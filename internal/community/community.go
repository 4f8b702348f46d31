// Package community implements community detection — label
// propagation and Louvain modularity optimization — together with the
// modularity measure. The paper's §2/§5 cite Viswanath et al.'s
// finding that random-walk Sybil defenses are, at their core,
// community detectors around the verifier, and that slow mixing *is*
// community structure; this package makes the comparison executable.
package community

import (
	"math/rand/v2"
	"slices"

	"mixtime/internal/graph"
)

// Labels assigns every vertex a community id in [0, k).
type Labels []int32

// NumCommunities returns the number of distinct communities.
func (l Labels) NumCommunities() int {
	seen := map[int32]bool{}
	for _, c := range l {
		seen[c] = true
	}
	return len(seen)
}

// Normalize relabels communities to the contiguous range [0, k) in
// first-appearance order and returns k.
func (l Labels) Normalize() int {
	remap := map[int32]int32{}
	for i, c := range l {
		nc, ok := remap[c]
		if !ok {
			nc = int32(len(remap))
			remap[c] = nc
		}
		l[i] = nc
	}
	return len(remap)
}

// CommunityOf returns the member set of v's community.
func CommunityOf(l Labels, v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for u, c := range l {
		if c == l[v] {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// Modularity returns Newman's modularity Q ∈ [−0.5, 1) of the
// labeling: the fraction of edges inside communities minus the
// expectation under the degree-preserving null model.
func Modularity(g *graph.Graph, l Labels) float64 {
	m2 := float64(2 * g.NumEdges())
	if m2 == 0 {
		return 0
	}
	inside := map[int32]float64{} // 2×edges within community c
	degSum := map[int32]float64{}
	for v := 0; v < g.NumNodes(); v++ {
		c := l[v]
		degSum[c] += float64(g.Degree(graph.NodeID(v)))
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if l[w] == c {
				inside[c]++
			}
		}
	}
	// Sum in community-id order so the float result never depends on
	// map iteration order. A community with no internal edges reads
	// inside[c] = 0 and still contributes its null term.
	ids := make([]int32, 0, len(degSum))
	for c := range degSum {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	var q float64
	for _, c := range ids {
		d := degSum[c] / m2
		q += inside[c]/m2 - d*d
	}
	return q
}

// LabelPropagation runs asynchronous label propagation: every node
// repeatedly adopts the most frequent label among its neighbors
// (ties broken randomly), until a sweep changes nothing or maxSweeps
// elapse. Fast and parameter-free; communities are whatever the graph
// agrees on.
func LabelPropagation(g *graph.Graph, maxSweeps int, rng *rand.Rand) Labels {
	n := g.NumNodes()
	labels := make(Labels, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	if maxSweeps <= 0 {
		maxSweeps = 100
	}
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	counts := map[int32]int{}
	var best []int32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := false
		for _, v := range order {
			adj := g.Neighbors(v)
			if len(adj) == 0 {
				continue
			}
			clear(counts)
			for _, w := range adj {
				counts[labels[w]]++
			}
			max := 0
			best = best[:0]
			for c, k := range counts {
				if k > max {
					max = k
					best = best[:0]
				}
				if k == max {
					best = append(best, c)
				}
			}
			pick := best[0]
			if len(best) > 1 {
				// Deterministic tie-break under a seeded rng: pick the
				// smallest among the tied labels unless rng moves us,
				// keeping runs reproducible.
				min := best[0]
				for _, c := range best[1:] {
					if c < min {
						min = c
					}
				}
				pick = min
				if rng.IntN(4) == 0 {
					pick = best[rng.IntN(len(best))]
				}
			}
			if pick != labels[v] {
				labels[v] = pick
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	labels.Normalize()
	return labels
}
