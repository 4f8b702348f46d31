package community

import (
	"math/rand/v2"
	"slices"

	"mixtime/internal/graph"
)

// wedge is one weighted adjacency entry of Louvain's working
// multigraph.
type wedge struct {
	to int32
	w  float64
}

// Louvain runs the Louvain method: greedy local modularity moves
// followed by community aggregation, repeated until modularity stops
// improving. Returns the flat labeling of the original vertices.
// Neighbour communities are visited in ascending id order, so ties
// between equal gains and every float sum are fixed: the same graph
// and rng state give the same labels on every run.
func Louvain(g *graph.Graph, rng *rand.Rand) Labels {
	n := g.NumNodes()
	labels := make(Labels, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	if n == 0 {
		return labels
	}

	// Working multigraph: weighted adjacency sorted by neighbour, with
	// self-loops for aggregated internal edges kept apart in self.
	type wgraph struct {
		adj  [][]wedge
		self []float64 // 2×internal weight
		deg  []float64 // weighted degree incl. self-loops
		m2   float64
	}
	cur := &wgraph{
		adj:  make([][]wedge, n),
		self: make([]float64, n),
		deg:  make([]float64, n),
	}
	for v := 0; v < n; v++ {
		nb := g.Neighbors(graph.NodeID(v))
		cur.adj[v] = make([]wedge, len(nb))
		for i, w := range nb {
			cur.adj[v][i] = wedge{int32(w), 1}
		}
		cur.deg[v] = float64(len(nb))
		cur.m2 += cur.deg[v]
	}
	if cur.m2 == 0 {
		return labels
	}

	// membership maps original vertices to current-level nodes.
	membership := make([]int32, n)
	for i := range membership {
		membership[i] = int32(i)
	}

	// acc/touched gather weights per neighbouring community: acc is
	// zero outside touched, and touched is sorted before it is read.
	acc := make([]float64, n)
	seen := make([]bool, n)
	var touched []int32
	gather := func(c int32, w float64) {
		if !seen[c] {
			seen[c] = true
			touched = append(touched, c)
		}
		acc[c] += w
	}
	release := func() {
		for _, c := range touched {
			acc[c], seen[c] = 0, false
		}
		touched = touched[:0]
	}

	for level := 0; level < 32; level++ {
		k := len(cur.adj)
		comm := make([]int32, k)
		commDeg := make([]float64, k) // Σ deg of community members
		for i := 0; i < k; i++ {
			comm[i] = int32(i)
			commDeg[i] = cur.deg[i]
		}

		// Phase 1: local moving.
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		improvedAny := false
		for pass := 0; pass < 64; pass++ {
			rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
			moved := false
			for _, v := range order {
				cv := comm[v]
				// Weights from v to each neighboring community.
				for _, e := range cur.adj[v] {
					gather(comm[e.to], e.w)
				}
				slices.Sort(touched)
				commDeg[cv] -= cur.deg[v]
				bestC := cv
				bestGain := acc[cv] - commDeg[cv]*cur.deg[v]/cur.m2
				for _, c := range touched {
					if c == cv {
						continue
					}
					gain := acc[c] - commDeg[c]*cur.deg[v]/cur.m2
					if gain > bestGain+1e-12 {
						bestGain = gain
						bestC = c
					}
				}
				release()
				commDeg[bestC] += cur.deg[v]
				if bestC != cv {
					comm[v] = bestC
					moved = true
					improvedAny = true
				}
			}
			if !moved {
				break
			}
		}
		if !improvedAny {
			break
		}

		// Relabel communities densely, in first-appearance order.
		remap := make([]int32, k)
		for i := range remap {
			remap[i] = -1
		}
		nk := 0
		for _, c := range comm {
			if remap[c] < 0 {
				remap[c] = int32(nk)
				nk++
			}
		}
		for v := range comm {
			comm[v] = remap[comm[v]]
		}
		for i := range membership {
			membership[i] = comm[membership[i]]
		}
		if nk == k {
			break // no aggregation happens; fixed point
		}

		// Phase 2: aggregate. Each community's members are visited in
		// id order, so every aggregated weight sums in a fixed order.
		first := make([]int, nk+1)
		for _, c := range comm {
			first[c+1]++
		}
		for c := 0; c < nk; c++ {
			first[c+1] += first[c]
		}
		members := make([]int32, k)
		fill := slices.Clone(first[:nk])
		for v, c := range comm {
			members[fill[c]] = int32(v)
			fill[c]++
		}
		next := &wgraph{
			adj:  make([][]wedge, nk),
			self: make([]float64, nk),
			deg:  make([]float64, nk),
			m2:   cur.m2,
		}
		for cv := 0; cv < nk; cv++ {
			for _, v := range members[first[cv]:first[cv+1]] {
				next.self[cv] += cur.self[v]
				next.deg[cv] += cur.deg[v]
				for _, e := range cur.adj[v] {
					if cu := comm[e.to]; cu == int32(cv) {
						next.self[cv] += e.w // each internal edge seen twice
					} else {
						gather(cu, e.w)
					}
				}
			}
			slices.Sort(touched)
			adj := make([]wedge, len(touched))
			for i, cu := range touched {
				adj[i] = wedge{cu, acc[cu]}
			}
			next.adj[cv] = adj
			release()
		}
		cur = next
	}

	copy(labels, membership)
	labels.Normalize()
	return labels
}
