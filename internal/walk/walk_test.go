package walk

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x1111)) }

func TestRandomWalkStaysOnEdges(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rng(1))
	traj := Random(g, 0, 50, rng(2))
	if len(traj) != 51 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	for i := 1; i < len(traj); i++ {
		if !g.HasEdge(traj[i-1], traj[i]) {
			t.Fatalf("step %d: %d->%d is not an edge", i, traj[i-1], traj[i])
		}
	}
}

func TestEndpointMatchesTrajectory(t *testing.T) {
	g := gen.Ring(11)
	a := Random(g, 3, 20, rng(7))
	b := Endpoint(g, 3, 20, rng(7))
	if a[len(a)-1] != b {
		t.Fatalf("trajectory end %d vs endpoint %d", a[len(a)-1], b)
	}
}

func TestTailIsEdge(t *testing.T) {
	g := gen.Complete(8)
	e := Tail(g, 0, 10, rng(3))
	if !g.HasEdge(e.From, e.To) {
		t.Fatalf("tail %v is not an edge", e)
	}
	e = Tail(g, 0, 0, rng(3)) // clamps to length 1
	if e.From != 0 {
		t.Fatalf("length-0 tail %v", e)
	}
}

func TestEndpointDistributionOnCompleteGraph(t *testing.T) {
	// On K_n, one step lands uniformly on the n-1 others.
	g := gen.Complete(6)
	counts := map[graph.NodeID]int{}
	r := rng(4)
	const N = 30_000
	for i := 0; i < N; i++ {
		counts[Endpoint(g, 0, 1, r)]++
	}
	if counts[0] != 0 {
		t.Fatal("one-step walk stayed at source on K_n")
	}
	for v := graph.NodeID(1); v < 6; v++ {
		frac := float64(counts[v]) / N
		if math.Abs(frac-0.2) > 0.02 {
			t.Fatalf("endpoint %d frequency %v, want ≈0.2", v, frac)
		}
	}
}

// mustEdges indexes g for routing or fails the test.
func mustEdges(tb testing.TB, g *graph.Graph) *Edges {
	tb.Helper()
	x, err := NewEdges(g)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// inEdges returns the ids of the directed edges entering at.
func inEdges(x *Edges, at graph.NodeID) []uint32 {
	var out []uint32
	for k := range x.Graph().Degree(at) {
		out = append(out, x.rev[x.Edge(at, k)])
	}
	return out
}

func TestInstanceStepBijective(t *testing.T) {
	// For each node, the map (incoming edge → outgoing edge) must be a
	// bijection: every outgoing edge used exactly once.
	g := gen.BarabasiAlbert(100, 3, rng(5))
	x := mustEdges(t, g)
	in := x.NewInstance(99)
	for v := 0; v < g.NumNodes(); v++ {
		at := graph.NodeID(v)
		used := map[graph.NodeID]int{}
		for _, e := range inEdges(x, at) {
			if x.Head(e) != at {
				t.Fatalf("node %d: in-edge %d enters %d", v, e, x.Head(e))
			}
			out := in.Next(e)
			if x.Directed(out).From != at {
				t.Fatalf("node %d: successor %v does not leave it", v, x.Directed(out))
			}
			used[x.Head(out)]++
		}
		if len(used) != g.Degree(at) {
			t.Fatalf("node %d: %d distinct outputs for %d inputs", v, len(used), g.Degree(at))
		}
		for next, c := range used {
			if c != 1 {
				t.Fatalf("node %d: output %d used %d times", v, next, c)
			}
			if !g.HasEdge(at, next) {
				t.Fatalf("node %d: output %d not a neighbor", v, next)
			}
		}
	}
}

func TestLazyMatchesInstance(t *testing.T) {
	g := gen.WattsStrogatz(150, 3, 0.3, rng(6))
	x := mustEdges(t, g)
	seed := uint64(424242)
	mat := x.NewInstance(seed)
	lazy := x.NewLazy(seed)
	for e := range uint32(2 * g.NumEdges()) {
		if a, b := mat.Next(e), lazy.Next(e); a != b {
			t.Fatalf("edge %v: materialized %d vs lazy %d", x.Directed(e), a, b)
		}
	}
}

func TestEdgesReverse(t *testing.T) {
	g := gen.CommunityBA(3, 40, 2, 3, rng(12))
	x := mustEdges(t, g)
	for e := range uint32(2 * g.NumEdges()) {
		d, r := x.Directed(e), x.Directed(x.rev[e])
		if x.rev[x.rev[e]] != e || r.From != d.To || r.To != d.From {
			t.Fatalf("edge %d %v: reverse %d %v", e, d, x.rev[e], r)
		}
		if int(x.rev[e]) != int(g.AdjacencyOffset(d.To))+g.EdgeSlot(d.To, d.From) {
			t.Fatalf("edge %v: reverse id %d disagrees with EdgeSlot", d, x.rev[e])
		}
	}
	if _, err := NewEdges(&graph.Graph{}); err == nil {
		t.Fatal("empty graph indexed")
	}
}

// refTrace is the vertex-stepping reference route: at each hop it
// finds the incoming slot with EdgeSlot and applies the node's
// permutation, with the same seed derivation as Instance and Lazy.
func refTrace(g *graph.Graph, seed uint64, start graph.NodeID, firstSlot, w int) []graph.NodeID {
	traj := []graph.NodeID{start, g.Neighbors(start)[firstSlot]}
	perm := make([]uint32, g.MaxDegree())
	for len(traj) < w+1 {
		from, at := traj[len(traj)-2], traj[len(traj)-1]
		d := g.Degree(at)
		fillPerm(perm[:d], d, splitmix64(seed)^splitmix64(uint64(at)+0x5bd1))
		traj = append(traj, g.Neighbors(at)[perm[g.EdgeSlot(at, from)]])
	}
	return traj
}

func TestRoutesMatchEdgeSlotReference(t *testing.T) {
	const w = 12
	lens := []int{1, 2, 5, 5, w}
	tails := make([]uint32, len(lens))
	for _, g := range []*graph.Graph{
		gen.BarabasiAlbert(120, 3, rng(13)),
		gen.WithPendants(gen.WattsStrogatz(80, 2, 0.2, rng(14)), 10, rng(15)),
	} {
		x := mustEdges(t, g)
		for _, seed := range []uint64{1, 0xfeed} {
			routers := []Router{x.NewInstance(seed), x.NewLazy(seed)}
			for v := 0; v < g.NumNodes(); v++ {
				for slot := range g.Degree(graph.NodeID(v)) {
					want := refTrace(g, seed, graph.NodeID(v), slot, w)
					for _, r := range routers {
						got := RouteTrace(r, graph.NodeID(v), slot, w)
						if !slices.Equal(got, want) {
							t.Fatalf("%T seed %d from %d slot %d:\n got %v\nwant %v", r, seed, v, slot, got, want)
						}
						if tail := Route(r, graph.NodeID(v), slot, w); tail != (DirectedEdge{From: want[w-1], To: want[w]}) {
							t.Fatalf("%T seed %d from %d slot %d: tail %v", r, seed, v, slot, tail)
						}
						Tails(r, x.Edge(graph.NodeID(v), slot), lens, tails)
						for k, l := range lens {
							if d := x.Directed(tails[k]); d != (DirectedEdge{From: want[l-1], To: want[l]}) {
								t.Fatalf("%T seed %d from %d slot %d: length-%d tail %v", r, seed, v, slot, l, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestResetMatchesFresh(t *testing.T) {
	g := gen.BarabasiAlbert(90, 4, rng(16))
	x := mustEdges(t, g)
	in, lazy := x.NewInstance(1), x.NewLazy(1)
	in.Reset(77)
	lazy.Reset(77)
	fresh := x.NewInstance(77)
	if !slices.Equal(in.next, fresh.next) {
		t.Fatal("Reset instance differs from a fresh one")
	}
	for e := range uint32(len(fresh.next)) {
		if lazy.Next(e) != fresh.next[e] {
			t.Fatalf("reset lazy differs at edge %d", e)
		}
	}
}

func TestRouteConvergence(t *testing.T) {
	// Two routes that traverse the same directed edge continue
	// identically afterwards.
	g := gen.BarabasiAlbert(300, 4, rng(8))
	in := mustEdges(t, g).NewInstance(7)
	// Route A from node 0 slot 0; route B enters A's second vertex via
	// the same directed edge — suffixes must coincide.
	trajA := RouteTrace(in, 0, 0, 20)
	// B enters along the directed edge trajA[0]→trajA[1]: step
	// manually from that edge.
	x := in.Edges()
	e := x.Edge(trajA[0], g.EdgeSlot(trajA[0], trajA[1]))
	for i := 1; i < 20; i++ {
		e = in.Next(e)
		if x.Head(e) != trajA[i+1] {
			t.Fatalf("routes diverged at step %d: %d vs %d", i, x.Head(e), trajA[i+1])
		}
	}
}

func TestRouteDeterministicPerInstance(t *testing.T) {
	g := gen.CommunityBA(3, 60, 3, 10, rng(9))
	lcc, _ := graph.LargestComponent(g)
	x := mustEdges(t, lcc)
	in1 := x.NewInstance(1)
	in2 := x.NewInstance(1)
	in3 := x.NewInstance(2)
	tail1 := Route(in1, 5, 0, 15)
	tail2 := Route(in2, 5, 0, 15)
	if tail1 != tail2 {
		t.Fatal("same seed produced different routes")
	}
	// Different seeds should (overwhelmingly) differ somewhere.
	diff := false
	for v := 0; v < lcc.NumNodes() && !diff; v++ {
		if Route(in1, graph.NodeID(v), 0, 15) != Route(in3, graph.NodeID(v), 0, 15) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("independent instances produced identical routes everywhere")
	}
}

func TestRouteTraceOnEdges(t *testing.T) {
	g := gen.Grid(10, 10)
	in := mustEdges(t, g).NewInstance(77)
	traj := RouteTrace(in, 0, 0, 30)
	if len(traj) != 31 {
		t.Fatalf("trace length %d", len(traj))
	}
	for i := 1; i < len(traj); i++ {
		if !g.HasEdge(traj[i-1], traj[i]) {
			t.Fatalf("trace step %d not an edge", i)
		}
	}
	tail := Route(in, 0, 0, 30)
	if tail.From != traj[29] || tail.To != traj[30] {
		t.Fatalf("tail %v vs trace end %v->%v", tail, traj[29], traj[30])
	}
}

func TestRandomRouteUsesAllFirstSlots(t *testing.T) {
	g := gen.Complete(5)
	in := mustEdges(t, g).NewInstance(3)
	r := rng(10)
	firsts := map[graph.NodeID]bool{}
	for i := 0; i < 200; i++ {
		tr := RouteTrace(in, 0, r.IntN(g.Degree(0)), 1)
		firsts[tr[1]] = true
	}
	if len(firsts) != 4 {
		t.Fatalf("only %d distinct first hops on K5", len(firsts))
	}
	// RandomRoute returns a valid edge.
	e := RandomRoute(in, 0, 8, r)
	if !g.HasEdge(e.From, e.To) {
		t.Fatalf("random route tail %v not an edge", e)
	}
}

// Property: on any connected generated graph, every node's slot
// permutation is a bijection and routes never leave the edge set.
func TestQuickRouteInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.BarabasiAlbert(60+int(seed%60), 2, rng(seed))
		x, err := NewEdges(g)
		if err != nil {
			return false
		}
		in := x.NewInstance(seed ^ 0xdead)
		// Bijectivity at a few sampled nodes.
		r := rng(seed + 1)
		for k := 0; k < 10; k++ {
			at := graph.NodeID(r.IntN(g.NumNodes()))
			seen := map[graph.NodeID]bool{}
			for _, e := range inEdges(x, at) {
				seen[x.Head(in.Next(e))] = true
			}
			if len(seen) != g.Degree(at) {
				return false
			}
		}
		// Route validity.
		traj := RouteTrace(in, 0, 0, 25)
		for i := 1; i < len(traj); i++ {
			if !g.HasEdge(traj[i-1], traj[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInstanceRoutes(b *testing.B) {
	x := mustEdges(b, gen.BarabasiAlbert(10_000, 5, rng(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := x.NewInstance(uint64(i))
		for v := 0; v < 1000; v++ {
			Route(in, graph.NodeID(v), 0, 10)
		}
	}
}

func BenchmarkLazyRoutes(b *testing.B) {
	x := mustEdges(b, gen.BarabasiAlbert(10_000, 5, rng(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := x.NewLazy(uint64(i))
		for v := 0; v < 1000; v++ {
			Route(l, graph.NodeID(v), 0, 10)
		}
	}
}
