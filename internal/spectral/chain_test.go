package spectral

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// chainTrajectory is an evolving trajectory that exercises every carry
// case: edges accrete on a fixed node range, the range grows (padded
// warm start), shrinks (cold start), grows again, and finally jumps to
// a complete graph large enough (2m ≥ minParallelAdj) that its matvecs
// shard and its λ_n phase stays on the caller.
func chainTrajectory() []*graph.Graph {
	rng := rand.New(rand.NewPCG(11, 0xc4a1))
	var edges [][2]int
	build := func(n int) *graph.Graph {
		b := graph.NewBuilder(len(edges))
		for _, e := range edges {
			b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
		}
		g := b.Build()
		if g.NumNodes() != n {
			panic(fmt.Sprintf("built %d nodes, want %d", g.NumNodes(), n))
		}
		return g
	}
	ringChords := func(n, chords int) {
		edges = edges[:0]
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
		addRandom(&edges, rng, 0, n, chords)
	}
	var gs []*graph.Graph
	ringChords(80, 60)
	gs = append(gs, build(80))
	addRandom(&edges, rng, 0, 80, 20)
	gs = append(gs, build(80))
	for v := 80; v < 100; v++ { // grow: new nodes hang off old ones
		edges = append(edges, [2]int{v, rng.IntN(v)}, [2]int{v, rng.IntN(v)})
	}
	gs = append(gs, build(100))
	ringChords(70, 50) // shrink: relabeled, so the carry goes cold
	gs = append(gs, build(70))
	for v := 70; v < 90; v++ {
		edges = append(edges, [2]int{v, rng.IntN(v)}, [2]int{v, rng.IntN(v)})
	}
	gs = append(gs, build(90))
	gs = append(gs, complete(182))
	for i, g := range gs {
		if sharded := 2*g.NumEdges() >= minParallelAdj; sharded != (i == len(gs)-1) {
			panic(fmt.Sprintf("graph %d: 2m = %d", i, 2*g.NumEdges()))
		}
	}
	return gs
}

// addRandom appends k random non-loop edges among nodes [lo, hi).
func addRandom(edges *[][2]int, rng *rand.Rand, lo, hi, k int) {
	for added := 0; added < k; {
		u, v := lo+rng.IntN(hi-lo), lo+rng.IntN(hi-lo)
		if u != v {
			*edges = append(*edges, [2]int{u, v})
			added++
		}
	}
}

// sequentialChain is the reference: one SLEMPowerContext per graph on
// the sequential kernel, each seeded with the previous Vector2
// zero-padded when the node range grew and dropped when it shrank.
func sequentialChain(t *testing.T, gs []*graph.Graph, opt Options) []*Estimate {
	t.Helper()
	opt.Workers = 1
	var ests []*Estimate
	var prev []float64
	for _, g := range gs {
		opt.Start = nil
		if len(prev) > 0 && len(prev) <= g.NumNodes() {
			opt.Start = make([]float64, g.NumNodes())
			copy(opt.Start, prev)
		}
		est, err := SLEMPowerContext(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
		prev = est.Vector2
	}
	return ests
}

func withProcs(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSLEMPowerChainMatchesSequential: every Estimate of the chain —
// eigenvalues, Vector2, per-phase iteration counts, warm flags — is
// deeply equal to the sequential solve with the carried start, for any
// GOMAXPROCS and worker mode, and the solver telemetry sums agree.
func TestSLEMPowerChainMatchesSequential(t *testing.T) {
	gs := chainTrajectory()
	opt := Options{Tol: 1e-4, Seed: 5}
	refCol := telemetry.New()
	ropt := opt
	ropt.Collector = refCol
	want := sequentialChain(t, gs, ropt)
	for i, w := range want {
		if cold := i == 0 || i == 3; w.WarmStarted == cold {
			t.Fatalf("reference graph %d: WarmStarted = %v", i, w.WarmStarted)
		}
	}
	for _, procs := range []int{1, 2, 7} {
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("procs%d/workers%d", procs, workers), func(t *testing.T) {
				withProcs(t, procs)
				col := telemetry.New()
				copt := opt
				copt.Workers = workers
				copt.Collector = col
				got, err := SLEMPowerChain(context.Background(), gs, copt)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d estimates, want %d", len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("graph %d: chain %+v\nsequential %+v", i, *got[i], *want[i])
					}
				}
				for _, c := range []telemetry.Counter{telemetry.PowerIterations, telemetry.Matvecs,
					telemetry.EdgesScanned, telemetry.EvolveWarmStarts} {
					if g, w := col.Count(c), refCol.Count(c); g != w {
						t.Errorf("counter %v = %d, sequential %d", c, g, w)
					}
				}
			})
		}
	}
}

// TestSLEMPowerChainExplicitStart: graph 0 takes opt.Start under the
// one-graph rule (exact length or cold), never the chain's pad.
func TestSLEMPowerChainExplicitStart(t *testing.T) {
	gs := chainTrajectory()[:2]
	opt := Options{Tol: 1e-4, Seed: 2}
	cold, err := SLEMPowerChain(context.Background(), gs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Start = cold[0].Vector2[:gs[0].NumNodes()-1] // short: still cold
	short, err := SLEMPowerChain(context.Background(), gs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(short, cold) {
		t.Fatal("a short explicit Start changed the chain")
	}
}

// TestPowerLambda2MatchesFullSolve: the λ₂-only solve reproduces every
// λ₂ field of the full solve, cold and warm.
func TestPowerLambda2MatchesFullSolve(t *testing.T) {
	g := chainTrajectory()[2]
	opt := Options{Tol: 1e-6, Seed: 3}
	for _, warm := range []bool{false, true} {
		full, err := SLEMPowerContext(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		half, err := PowerLambda2Context(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := &Estimate{Lambda2: full.Lambda2, Iterations: full.Iters2, Iters2: full.Iters2,
			Converged: half.Converged, WarmStarted: full.WarmStarted, Vector2: full.Vector2}
		if !reflect.DeepEqual(half, want) || warm != half.WarmStarted || (full.Converged && !half.Converged) {
			t.Fatalf("warm=%v: λ₂-only %+v\nfull %+v", warm, *half, *full)
		}
		opt.Start = CarryStart(full.Vector2[:90], g.NumNodes())
	}
}

func TestCarryStart(t *testing.T) {
	prev := []float64{1, 2, 3}
	if got := CarryStart(prev, 5); !reflect.DeepEqual(got, []float64{1, 2, 3, 0, 0}) {
		t.Errorf("grow: %v", got)
	}
	if got := CarryStart(prev, 3); &got[0] != &prev[0] {
		t.Error("same length: want the vector itself")
	}
	if got := CarryStart(prev, 2); got != nil {
		t.Errorf("shrink: %v, want nil", got)
	}
	if got := CarryStart(nil, 4); got != nil {
		t.Errorf("empty: %v, want nil", got)
	}
}

// countdownCtx is a context whose Err turns into context.Canceled
// after a fixed number of calls, so cancellation lands mid-chain.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSLEMPowerChainCancellation: cancelling mid-chain — in a λ₂
// phase, a shared λ_n phase or the sharded tail graph — returns an
// error wrapping context.Canceled that names the graph, and no helper
// goroutine outlives the call.
func TestSLEMPowerChainCancellation(t *testing.T) {
	gs := chainTrajectory()
	withProcs(t, 3)
	for _, calls := range []int64{0, 40, 2000, 4000, 5400} {
		t.Run(fmt.Sprint(calls), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(calls)
			_, err := SLEMPowerChain(ctx, gs, Options{Tol: 1e-4, Seed: 5})
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "chain graph") {
				t.Fatalf("err = %v, want a chain-graph error wrapping context.Canceled", err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlived the cancelled chain", runtime.NumGoroutine()-before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
