// Package walk provides random walks on graphs and the "random
// route" primitive of SybilGuard/SybilLimit: per-node random
// permutations mapping incoming edge slots to outgoing edge slots, so
// routes are deterministic per instance, convergent (two routes
// entering a node along the same edge continue identically) and
// back-traceable (the slot maps are bijections).
//
// Random and Tail cover the plain-walk needs of the defenses and the
// Whānau tail-distribution experiments.
//
// Routes step over directed-edge ids: the directed edge u→v is its
// CSR position e in u's adjacency block, and Edges, built once per
// graph, holds the reverse-edge table rev[e] (the position of v→u).
// A route instance maps each incoming edge id to the outgoing one, so
// a hop is one table load with no adjacency search. Instances come in
// two storage strategies with identical routes: Instance materializes
// the successor table (2m ids, rebuilt in place per instance seed,
// fastest to traverse) and Lazy regenerates the one permutation a hop
// needs from a keyed SplitMix64 (O(max degree) memory, O(deg) work
// per hop) — the trade-off measured by BenchmarkRoutePermutations and
// discussed in DESIGN.md §7. All randomness flows from caller-provided
// seeds, so defense experiments are reproducible run to run.
package walk

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/fastrand"
	"mixtime/internal/graph"
)

// DirectedEdge is an ordered traversal of an undirected edge.
type DirectedEdge struct {
	From, To graph.NodeID
}

// Random performs a plain random walk of the given length from start
// and returns the full vertex trajectory (length+1 vertices). The
// step loop draws from a private fastrand.PCG derived from rng (one
// Uint64), so neighbor picks are an inlined PCG32 step plus a Lemire
// bounded draw — no interface dispatch per hop. Trajectories are a
// pure function of rng's seed but differ from the pre-fastrand
// streams.
func Random(g *graph.Graph, start graph.NodeID, length int, rng *rand.Rand) []graph.NodeID {
	pr := fastrand.FromRand(rng)
	traj := make([]graph.NodeID, 0, length+1)
	traj = append(traj, start)
	cur := start
	if off := g.Offsets32(); off != nil {
		adj := g.Adjacency()
		for i := 0; i < length; i++ {
			o := off[cur]
			cur = adj[o+pr.Uint32n(off[cur+1]-o)]
			traj = append(traj, cur)
		}
		return traj
	}
	for i := 0; i < length; i++ {
		adj := g.Neighbors(cur)
		cur = adj[pr.IntN(len(adj))]
		traj = append(traj, cur)
	}
	return traj
}

// Endpoint returns the final vertex of a plain random walk of the
// given length from start. Same fastrand stream discipline as Random.
func Endpoint(g *graph.Graph, start graph.NodeID, length int, rng *rand.Rand) graph.NodeID {
	pr := fastrand.FromRand(rng)
	cur := start
	if off := g.Offsets32(); off != nil {
		adj := g.Adjacency()
		for i := 0; i < length; i++ {
			o := off[cur]
			cur = adj[o+pr.Uint32n(off[cur+1]-o)]
		}
		return cur
	}
	for i := 0; i < length; i++ {
		adj := g.Neighbors(cur)
		cur = adj[pr.IntN(len(adj))]
	}
	return cur
}

// Tail returns the last directed edge of a plain random walk of
// length ≥ 1. Same fastrand stream discipline as Random.
func Tail(g *graph.Graph, start graph.NodeID, length int, rng *rand.Rand) DirectedEdge {
	if length < 1 {
		length = 1
	}
	pr := fastrand.FromRand(rng)
	prev, cur := start, start
	if off := g.Offsets32(); off != nil {
		adj := g.Adjacency()
		for i := 0; i < length; i++ {
			o := off[cur]
			prev = cur
			cur = adj[o+pr.Uint32n(off[cur+1]-o)]
		}
		return DirectedEdge{From: prev, To: cur}
	}
	for i := 0; i < length; i++ {
		adj := g.Neighbors(cur)
		prev = cur
		cur = adj[pr.IntN(len(adj))]
	}
	return DirectedEdge{From: prev, To: cur}
}

// splitmix64 is the standard 64-bit finalizer-based PRNG step; used
// to derive independent per-(instance, node) permutation seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// smRand is a tiny splitmix64-state PRNG for in-place Fisher–Yates;
// avoids allocating a rand.Rand per node visit.
type smRand struct{ state uint64 }

func (s *smRand) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a value in [0, n) (n > 0) as the top 53 bits of the
// next output reduced modulo n. The modulo bias is negligible for the
// degree ranges involved; the reduction is part of every route's
// definition, so changing it would move every route.
func (s *smRand) intn(n int) int {
	return int((s.next() >> 11) % uint64(n))
}

// fillPerm writes a uniform random permutation of [0, d) into dst
// using the seed.
func fillPerm(dst []uint32, d int, seed uint64) {
	for i := 0; i < d; i++ {
		dst[i] = uint32(i)
	}
	r := smRand{state: seed}
	for i := d - 1; i > 0; i-- {
		j := r.intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// nodeKey is the per-node half of a permutation seed; an instance's
// permutation at v is seeded splitmix64(instance seed) ^ nodeKey(v).
func nodeKey(v int) uint64 { return splitmix64(uint64(v) + 0x5bd1) }

// Edges indexes a graph's directed edges for random routes. The
// directed edge u→v has id e, its position in u's CSR adjacency block
// (Adjacency()[e] == v); rev[e] is the id of v→u. One Edges serves
// every route instance over the graph and is safe for concurrent use.
type Edges struct {
	g      *graph.Graph
	off    []uint32
	adj    []graph.NodeID
	rev    []uint32
	maxDeg int
}

// NewEdges builds the reverse-edge table of g with one EdgeSlot
// search per undirected edge — the only slot lookups routes make.
// Edge ids are 32-bit; a graph whose adjacency does not fit
// (2m ≥ 2³², Offsets32 nil) is an error.
func NewEdges(g *graph.Graph) (*Edges, error) {
	off := g.Offsets32()
	if off == nil {
		if g.NumNodes() == 0 {
			return nil, errors.New("walk: empty graph")
		}
		return nil, fmt.Errorf("walk: %d directed edges overflow 32-bit route ids", 2*g.NumEdges())
	}
	adj := g.Adjacency()
	rev := make([]uint32, len(adj))
	for u := range graph.NodeID(g.NumNodes()) {
		for e := off[u]; e < off[u+1]; e++ {
			if v := adj[e]; v > u {
				r := off[v] + uint32(g.EdgeSlot(v, u))
				rev[e], rev[r] = r, e
			}
		}
	}
	return &Edges{g: g, off: off, adj: adj, rev: rev, maxDeg: g.MaxDegree()}, nil
}

// Graph returns the indexed graph.
func (x *Edges) Graph() *graph.Graph { return x.g }

// Edge returns the id of the edge leaving v by its given slot.
func (x *Edges) Edge(v graph.NodeID, slot int) uint32 { return x.off[v] + uint32(slot) }

// Head returns the vertex edge e enters.
func (x *Edges) Head(e uint32) graph.NodeID { return x.adj[e] }

// Directed returns edge e as a (from, to) pair.
func (x *Edges) Directed(e uint32) DirectedEdge {
	return DirectedEdge{From: x.adj[x.rev[e]], To: x.adj[e]}
}

// Router steps random routes over directed-edge ids.
type Router interface {
	// Edges returns the routed graph's edge index.
	Edges() *Edges
	// Next maps the edge a route just traversed to the edge it
	// traverses next, out of that edge's head.
	Next(e uint32) uint32
	// Reset re-keys the router to another instance seed.
	Reset(seed uint64)
}

// Instance is a materialized random-route instance: the successor
// table next[e] = off[v] + σ_v(rev[e] − off[v]) with v the head of e
// and σ_v v's permutation, 2m ids, O(1) per hop. Reset rebuilds it in
// place for another instance, so one table serves a sweep of
// instances. Not safe for concurrent use.
type Instance struct {
	x    *Edges
	next []uint32
	perm []uint32 // max-degree scratch for one node's permutation
}

// NewInstance materializes the route permutations for the given
// instance seed.
func (x *Edges) NewInstance(seed uint64) *Instance {
	in := &Instance{x: x, next: make([]uint32, len(x.adj)), perm: make([]uint32, x.maxDeg)}
	in.Reset(seed)
	return in
}

// Edges implements Router.
func (in *Instance) Edges() *Edges { return in.x }

// Next implements Router.
func (in *Instance) Next(e uint32) uint32 { return in.next[e] }

// Reset implements Router. Slot k of v is the reverse of the edge
// entering v by slot k, so v's permutation scatters into the entries
// of v's in-edges.
func (in *Instance) Reset(seed uint64) {
	x, key := in.x, splitmix64(seed)
	for v := 0; v+1 < len(x.off); v++ {
		o := x.off[v]
		d := int(x.off[v+1] - o)
		p := in.perm[:d]
		fillPerm(p, d, key^nodeKey(v))
		for k, s := range p {
			in.next[x.rev[o+uint32(k)]] = o + s
		}
	}
}

// Lazy is a route instance that regenerates, per hop, the permutation
// of the node it enters from the PRF seed: no per-instance table,
// O(deg) work per hop. The memory/time trade-off against Instance is
// an ablation benchmark in the harness. Not safe for concurrent use
// (it reuses a scratch buffer).
type Lazy struct {
	x    *Edges
	key  uint64
	perm []uint32
}

// NewLazy creates a lazy route instance.
func (x *Edges) NewLazy(seed uint64) *Lazy {
	return &Lazy{x: x, key: splitmix64(seed), perm: make([]uint32, x.maxDeg)}
}

// Edges implements Router.
func (l *Lazy) Edges() *Edges { return l.x }

// Reset implements Router.
func (l *Lazy) Reset(seed uint64) { l.key = splitmix64(seed) }

// Next implements Router.
func (l *Lazy) Next(e uint32) uint32 {
	x := l.x
	v := x.adj[e]
	o := x.off[v]
	d := int(x.off[v+1] - o)
	p := l.perm[:d]
	fillPerm(p, d, l.key^nodeKey(int(v)))
	return o + p[x.rev[e]-o]
}

// Tails walks the route that leaves along e (its first edge) to the
// longest length in lens, which must be ascending and ≥ 1, and stores
// in tails[k] the tail of the route's length-lens[k] prefix: a route
// of length w is a prefix of every longer route of the same instance,
// so one walk serves a whole sweep of lengths. A materialized Instance
// is stepped without interface dispatch.
func Tails(r Router, e uint32, lens []int, tails []uint32) {
	h := 1
	if in, ok := r.(*Instance); ok {
		next := in.next
		for k, w := range lens {
			for ; h < w; h++ {
				e = next[e]
			}
			tails[k] = e
		}
		return
	}
	for k, w := range lens {
		for ; h < w; h++ {
			e = r.Next(e)
		}
		tails[k] = e
	}
}

// Route walks a random route of length w (w ≥ 1 edges) from start,
// taking the given first slot out of start, and returns the tail (the
// last directed edge traversed).
func Route(r Router, start graph.NodeID, firstSlot, w int) DirectedEdge {
	x := r.Edges()
	e := x.Edge(start, firstSlot)
	for i := 1; i < w; i++ {
		e = r.Next(e)
	}
	return x.Directed(e)
}

// RouteTrace is Route returning the full vertex trajectory
// (w+1 vertices), for tests and diagnostics.
func RouteTrace(r Router, start graph.NodeID, firstSlot, w int) []graph.NodeID {
	x := r.Edges()
	e := x.Edge(start, firstSlot)
	traj := make([]graph.NodeID, 0, w+1)
	traj = append(traj, start, x.adj[e])
	for i := 1; i < w; i++ {
		e = r.Next(e)
		traj = append(traj, x.adj[e])
	}
	return traj
}

// RandomRoute walks a route with a uniformly random first hop — the
// verifier/suspect behaviour in SybilLimit — and returns its tail.
func RandomRoute(r Router, start graph.NodeID, w int, rng *rand.Rand) DirectedEdge {
	d := r.Edges().Graph().Degree(start)
	return Route(r, start, rng.IntN(d), w)
}
