// Package sybil implements the social-network Sybil defenses whose
// assumptions the paper measures: SybilLimit (Yu et al., Oakland
// 2008) with its r = r₀√m random-route instances, tail-intersection
// and balance conditions, a SybilGuard-style single-route baseline,
// and the attack model (a sybil region wired to the honest region by
// g attack edges) used to quantify how walk length trades admission
// of honest nodes against acceptance of sybils.
package sybil

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"mixtime/internal/graph"
	"mixtime/internal/walk"
)

// Config parameterizes a SybilLimit run.
type Config struct {
	// R is the number of random-route instances. If 0, it is derived
	// as ceil(R0·√m) per the SybilLimit design.
	R int
	// R0 is the multiplier for the derived R (default 4, the value
	// the SybilLimit paper suggests for >99.9% intersection).
	R0 float64
	// W is the random-route length — the protocol's stand-in for the
	// mixing time, and the knob the paper's Figure 8 sweeps.
	W int
	// Seed makes the run deterministic.
	Seed uint64
	// BalanceFloor is b₀, the minimum per-tail load allowance
	// (default 4 + ⌈log₂ r⌉).
	BalanceFloor int
	// BalanceMult is h, the multiplier on the average per-tail load
	// (default 4).
	BalanceMult float64
	// Lazy routes the suspects through PRF-lazy permutations instead
	// of a materialized table per instance: slower per hop, no O(m)
	// table. The verifier's routes are always lazy.
	Lazy bool
}

func (c Config) withDefaults(m int64) (Config, error) {
	if c.W < 1 {
		return c, errors.New("sybil: route length W must be ≥ 1")
	}
	if c.R0 <= 0 {
		c.R0 = 4
	}
	if c.R == 0 {
		c.R = int(math.Ceil(c.R0 * math.Sqrt(float64(m))))
	}
	if c.R < 1 {
		return c, fmt.Errorf("sybil: invalid instance count R=%d", c.R)
	}
	if c.BalanceFloor <= 0 {
		c.BalanceFloor = 4 + int(math.Ceil(math.Log2(float64(c.R))))
	}
	if c.BalanceMult <= 0 {
		c.BalanceMult = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Result reports one verifier's admission decisions over a suspect
// set.
type Result struct {
	Verifier graph.NodeID
	// Accepted[i] reports the decision for Suspects[i].
	Suspects []graph.NodeID
	Accepted []bool
	// NumAccepted counts true entries of Accepted.
	NumAccepted int
	// NoIntersection counts suspects rejected because no instance had
	// a tail intersection; BalanceRejected counts suspects that
	// intersected but failed the balance condition.
	NoIntersection  int
	BalanceRejected int
	// R and W echo the effective protocol parameters.
	R, W int
}

// AcceptRate returns the fraction of suspects accepted.
func (r *Result) AcceptRate() float64 {
	if len(r.Suspects) == 0 {
		return 0
	}
	return float64(r.NumAccepted) / float64(len(r.Suspects))
}

// Protocol is a configured SybilLimit deployment on a fixed graph.
type Protocol struct {
	g   *graph.Graph
	cfg Config
	x   *walk.Edges
}

// NewProtocol validates the configuration against the graph. The
// graph must be connected with no isolated vertices (run it on the
// largest connected component, as the paper does).
func NewProtocol(g *graph.Graph, cfg Config) (*Protocol, error) {
	if g.NumNodes() < 2 {
		return nil, errors.New("sybil: graph too small")
	}
	if g.MinDegree() < 1 {
		return nil, errors.New("sybil: graph has an isolated vertex")
	}
	cfg, err := cfg.withDefaults(g.NumEdges())
	if err != nil {
		return nil, err
	}
	x, err := walk.NewEdges(g)
	if err != nil {
		return nil, fmt.Errorf("sybil: %w", err)
	}
	return &Protocol{g: g, cfg: cfg, x: x}, nil
}

// Config returns the effective configuration (with derived defaults).
func (p *Protocol) Config() Config { return p.cfg }

// firstSlot derives the deterministic first hop a node takes in an
// instance, uniform over its edge slots.
func firstSlot(seed uint64, instance int, v graph.NodeID, deg int) int {
	x := seed ^ (uint64(instance)+1)*0x9e3779b97f4a7c15 ^ (uint64(v)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return int(x % uint64(deg))
}

// instanceSeed is the route-permutation seed of one protocol instance.
func (p *Protocol) instanceSeed(instance int) uint64 {
	return p.cfg.Seed*0x100000001b3 + uint64(instance)
}

// verifierStart re-keys lz to one instance and returns the first edge
// of the verifier's route in it; stepping lz from there walks the
// route with no instance table built. The verifier's routes use an
// independent first-slot stream (different salt), so they are
// uncorrelated with a suspect route started at the same node.
func (p *Protocol) verifierStart(lz *walk.Lazy, instance int, verifier graph.NodeID) uint32 {
	lz.Reset(p.instanceSeed(instance))
	return p.x.Edge(verifier, firstSlot(p.cfg.Seed^0xa5a5a5a5, instance, verifier, p.g.Degree(verifier)))
}

// Verify runs the full SybilLimit admission protocol at the
// configured route length W: VerifySweep over the single length. It
// panics if the verifier or a suspect is not a node of the graph.
func (p *Protocol) Verify(verifier graph.NodeID, suspects []graph.NodeID) *Result {
	res, err := p.VerifySweep(verifier, suspects, []int{p.cfg.W})
	if err != nil {
		panic(err)
	}
	return res[0]
}

// VerifySweep runs the SybilLimit admission protocol once per route
// length in ws and returns the Results in the order of ws. The
// verifier and every suspect perform one random route of length w in
// each of the r instances; a suspect's tail set (the last directed
// edges of its routes) must intersect the verifier's tail set — with
// r = r₀·√m both sets are ~√m uniform samples of the edge set, so
// honest pairs intersect with high probability by the birthday
// paradox, provided w reaches the mixing time. The suspect is then
// admitted only if the balance condition holds: the least-loaded
// intersecting verifier tail must stay below max(b₀, h·(A+1)/r),
// where A counts prior admissions — the mechanism that caps what an
// adversary gains from tails escaped into a sybil region.
//
// A route of length w is a prefix of the route of length max(ws) in
// the same instance, so the sweep walks each (instance, node) route
// once and reads its tail at every w; each result equals a Verify at
// that W. The configured W is not used.
func (p *Protocol) VerifySweep(verifier graph.NodeID, suspects []graph.NodeID, ws []int) ([]*Result, error) {
	return p.verifySweep(verifier, suspects, ws, runtime.GOMAXPROCS(0))
}

// verifySweep is VerifySweep with the instances split into the given
// number of contiguous ranges routed in parallel; the results do not
// depend on it.
func (p *Protocol) verifySweep(verifier graph.NodeID, suspects []graph.NodeID, ws []int, ranges int) ([]*Result, error) {
	if err := checkNodes(p.g, verifier, suspects); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, errors.New("sybil: no route lengths to verify")
	}
	for _, w := range ws {
		if w < 1 {
			return nil, fmt.Errorf("sybil: route length %d must be ≥ 1", w)
		}
	}
	lens := slices.Clone(ws)
	slices.Sort(lens)
	lens = slices.Compact(lens)

	// Pass 1: the verifier's r routes, their tails indexed per length.
	tails := make([]tailSet, len(lens))
	for k := range tails {
		tails[k] = newTailSet(2 * p.g.NumEdges())
	}
	lz := p.x.NewLazy(0)
	vt := make([]uint32, len(lens))
	for i := 0; i < p.cfg.R; i++ {
		walk.Tails(lz, p.verifierStart(lz, i, verifier), lens, vt)
		for k, e := range vt {
			tails[k].add(e, int32(i))
		}
	}
	// Pass 2: every suspect's routes, instance by instance, recording
	// per length which verifier tails each one hits.
	hits := p.intersect(suspects, lens, tails, ranges)
	// Pass 3: the balance condition, per length.
	out := make([]*Result, len(ws))
	for q, w := range ws {
		k, _ := slices.BinarySearch(lens, w)
		out[q] = p.balance(verifier, suspects, w, hits[k])
	}
	return out, nil
}

// checkNodes reports a verifier or suspect that is not a node of g.
func checkNodes(g *graph.Graph, verifier graph.NodeID, suspects []graph.NodeID) error {
	n := g.NumNodes()
	if int(verifier) >= n {
		return fmt.Errorf("sybil: verifier %d out of range [0, %d)", verifier, n)
	}
	for _, s := range suspects {
		if int(s) >= n {
			return fmt.Errorf("sybil: suspect %d out of range [0, %d)", s, n)
		}
	}
	return nil
}

// tailSet indexes the verifier's tails at one route length: mark has
// bit e set when some instance's tail is edge e (a cheap filter for
// the common miss), and idx lists the instances holding each tail
// edge in ascending order (several may share one).
type tailSet struct {
	mark []uint64
	idx  map[uint32][]int32
}

func newTailSet(edges int64) tailSet {
	return tailSet{mark: make([]uint64, (edges+63)/64), idx: map[uint32][]int32{}}
}

func (t tailSet) add(e uint32, instance int32) {
	t.mark[e/64] |= 1 << (e % 64)
	t.idx[e] = append(t.idx[e], instance)
}

// hits returns the instances whose verifier tail is edge e.
func (t tailSet) hits(e uint32) []int32 {
	if t.mark[e/64]&(1<<(e%64)) == 0 {
		return nil
	}
	return t.idx[e]
}

// hitLists holds, per suspect, the verifier tail indices its tails
// hit, in instance order, as one CSR array.
type hitLists struct {
	start []int32 // suspect j's hits are vals[start[j]:start[j+1]]
	vals  []int32
}

func (h hitLists) of(j int) []int32 { return h.vals[h.start[j]:h.start[j+1]] }

// tableBudget caps the bytes of successor tables (8m each) the
// suspect pass holds at once; on graphs too large for one table per
// range it runs fewer ranges.
const tableBudget = 1 << 30

// intersect routes every suspect in every instance and returns, per
// route length, each suspect's hit list. The instances are split into
// contiguous ranges routed concurrently, each on its own route table;
// a range records its hits as packed (suspect, verifier tail) pairs
// in instance order, and concatenating the ranges in order keeps
// every list in instance order, so the result does not depend on the
// range count.
func (p *Protocol) intersect(suspects []graph.NodeID, lens []int, tails []tailSet, ranges int) []hitLists {
	ranges = max(1, min(ranges, p.cfg.R, int(tableBudget/(8*p.g.NumEdges()))))
	parts := make([][][]uint64, ranges) // [range][length] packed hits
	var wg sync.WaitGroup
	for t := range parts {
		lo, hi := t*p.cfg.R/ranges, (t+1)*p.cfg.R/ranges
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[t] = p.intersectRange(lo, hi, suspects, lens, tails)
		}()
	}
	wg.Wait()
	out := make([]hitLists, len(lens))
	for k := range out {
		start := make([]int32, len(suspects)+1)
		for _, part := range parts {
			for _, h := range part[k] {
				start[h>>32+1]++
			}
		}
		for j := range suspects {
			start[j+1] += start[j]
		}
		vals := make([]int32, start[len(suspects)])
		fill := slices.Clone(start[:len(suspects)])
		for _, part := range parts {
			for _, h := range part[k] {
				j := h >> 32
				vals[fill[j]] = int32(uint32(h))
				fill[j]++
			}
		}
		out[k] = hitLists{start: start, vals: vals}
	}
	return out
}

// intersectRange routes every suspect through instances [lo, hi) and
// returns, per route length, the packed (suspect<<32 | verifier tail)
// hits in instance order.
func (p *Protocol) intersectRange(lo, hi int, suspects []graph.NodeID, lens []int, tails []tailSet) [][]uint64 {
	var r walk.Router
	if p.cfg.Lazy {
		r = p.x.NewLazy(p.instanceSeed(lo))
	} else {
		r = p.x.NewInstance(p.instanceSeed(lo))
	}
	out := make([][]uint64, len(lens))
	st := make([]uint32, len(lens))
	for i := lo; i < hi; i++ {
		if i > lo {
			r.Reset(p.instanceSeed(i))
		}
		for j, v := range suspects {
			s := firstSlot(p.cfg.Seed, i, v, p.g.Degree(v))
			walk.Tails(r, p.x.Edge(v, s), lens, st)
			for k, e := range st {
				for _, vi := range tails[k].hits(e) {
					out[k] = append(out[k], uint64(j)<<32|uint64(vi))
				}
			}
		}
	}
	return out
}

// balance applies the balance condition at route length w: suspects
// in a seed-determined random order (arrival order matters for load),
// each admitted through its least-loaded intersecting verifier tail
// while that load stays under the threshold.
func (p *Protocol) balance(verifier graph.NodeID, suspects []graph.NodeID, w int, hits hitLists) *Result {
	res := &Result{
		Verifier: verifier,
		Suspects: suspects,
		Accepted: make([]bool, len(suspects)),
		R:        p.cfg.R,
		W:        w,
	}
	order := make([]int, len(suspects))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewPCG(p.cfg.Seed, 0xba1a))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	loads := make([]int, p.cfg.R)
	admitted := 0
	for _, j := range order {
		insts := hits.of(j)
		if len(insts) == 0 {
			res.NoIntersection++
			continue
		}
		best := insts[0]
		for _, i := range insts[1:] {
			if loads[i] < loads[best] {
				best = i
			}
		}
		threshold := math.Max(float64(p.cfg.BalanceFloor),
			p.cfg.BalanceMult*float64(admitted+1)/float64(p.cfg.R))
		if float64(loads[best]+1) > threshold {
			res.BalanceRejected++
			continue
		}
		loads[best]++
		admitted++
		res.Accepted[j] = true
	}
	res.NumAccepted = admitted
	return res
}

// AllHonest returns every node of the graph as the suspect set,
// excluding the verifier itself — the Figure 8 workload: how many
// honest nodes does a trusted verifier admit at walk length w?
func AllHonest(g *graph.Graph, verifier graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, g.NumNodes()-1)
	for v := 0; v < g.NumNodes(); v++ {
		if graph.NodeID(v) != verifier {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
