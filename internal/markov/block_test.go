package markov

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

// blockFixtures are the graphs the blocked kernels must match the
// sequential ones on bit-for-bit: an Erdős–Rényi graph (uniform
// degrees) and a relaxed caveman graph (community structure with the
// skewed degree mix the shard plan exists for).
func blockFixtures(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	erg, _ := graph.LargestComponent(gen.ErdosRenyi(300, 0.03, rand.New(rand.NewPCG(5, 6))))
	cave, _ := graph.LargestComponent(gen.RelaxedCaveman(12, 10, 0.1, rand.New(rand.NewPCG(7, 8))))
	return map[string]*graph.Graph{"erdos-renyi": erg, "caveman": cave}
}

// mustEqualTraces fails unless the two trace sets are byte-identical.
func mustEqualTraces(t *testing.T, label string, got, want []*Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d traces, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Source != want[i].Source {
			t.Fatalf("%s: trace %d source %d, want %d", label, i, got[i].Source, want[i].Source)
		}
		if len(got[i].TV) != len(want[i].TV) {
			t.Fatalf("%s: trace %d has %d steps, want %d", label, i, len(got[i].TV), len(want[i].TV))
		}
		for s := range want[i].TV {
			if got[i].TV[s] != want[i].TV[s] {
				t.Fatalf("%s: trace %d step %d: %v, want %v (not byte-identical)",
					label, i, s, got[i].TV[s], want[i].TV[s])
			}
		}
	}
}

func TestStepBlockMatchesStep(t *testing.T) {
	for name, g := range blockFixtures(t) {
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			c := mustChain(t, g, lazyOpt...)
			n := g.NumNodes()
			for _, width := range []int{1, 2, 3, 8} {
				// Block columns are independent point masses spread a few
				// steps so the inputs are dense.
				cols := make([][]float64, width)
				for j := range cols {
					cols[j] = c.Propagate(c.Delta(graph.NodeID((j*13)%n)), j%3)
				}
				p := make([]float64, n*width)
				for j, col := range cols {
					for v, x := range col {
						p[v*width+j] = x
					}
				}
				dst := make([]float64, n*width)
				c.StepBlock(dst, p, width, nil)
				for j, col := range cols {
					want := make([]float64, n)
					c.Step(want, col, nil)
					for v := 0; v < n; v++ {
						if dst[v*width+j] != want[v] {
							t.Fatalf("%s lazy=%v width=%d: col %d row %d: %v, want %v",
								name, c.IsLazy(), width, j, v, dst[v*width+j], want[v])
						}
					}
				}
			}
		}
	}
}

// scalarTrace is the independent reference every trace entry point is
// checked against: one source at a time through Step and TVDistance,
// ending after the first distance below eps (never, for eps = 0).
func scalarTrace(c *Chain, src graph.NodeID, eps float64, maxT int) (*Trace, bool) {
	p := c.Delta(src)
	q := make([]float64, c.NumNodes())
	tr := &Trace{Source: src, TV: []float64{}}
	for t := 0; t < maxT; t++ {
		c.Step(q, p, nil)
		p, q = q, p
		d := TVDistance(p, c.Stationary())
		tr.TV = append(tr.TV, d)
		if d < eps {
			return tr, true
		}
	}
	return tr, false
}

// scalarTraces is scalarTrace over every source, to maxT.
func scalarTraces(c *Chain, sources []graph.NodeID, maxT int) []*Trace {
	out := make([]*Trace, len(sources))
	for i, s := range sources {
		out[i], _ = scalarTrace(c, s, 0, maxT)
	}
	return out
}

// TestTraceUntilPrefixParity checks that the early-stopping driver
// records exactly the scalar curve up to and including its first
// crossing of eps, and agrees on whether eps was reached — at width 1
// through TraceUntil, and with columns ending at different steps of
// one wider block.
func TestTraceUntilPrefixParity(t *testing.T) {
	for name, g := range blockFixtures(t) {
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			c := mustChain(t, g, lazyOpt...)
			n := g.NumNodes()
			sources := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}
			for _, eps := range []float64{0.5, 0.1, 1e-3, 0} {
				want := make([]*Trace, len(sources))
				for i, src := range sources {
					label := fmt.Sprintf("%s lazy=%v eps=%g src=%d", name, c.IsLazy(), eps, src)
					var wantOK bool
					want[i], wantOK = scalarTrace(c, src, eps, 60)
					got, ok := c.TraceUntil(src, eps, 60)
					if ok != wantOK {
						t.Fatalf("%s: ok = %v, want %v", label, ok, wantOK)
					}
					mustEqualTraces(t, label, []*Trace{got}, want[i:i+1])
				}
				got, err := c.traceBlock(context.Background(), sources, eps, 60,
					newBlockBuffers(n, len(sources)), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualTraces(t, fmt.Sprintf("%s lazy=%v eps=%g block", name, c.IsLazy(), eps), got, want)
			}
		}
	}
}

func TestTraceBlockMatchesTraceFrom(t *testing.T) {
	for name, g := range blockFixtures(t) {
		c := mustChain(t, g, Lazy())
		sources := []graph.NodeID{0, 3, graph.NodeID(g.NumNodes() - 1)}
		want := scalarTraces(c, sources, 20)
		got, err := c.TraceSampleBlockedContext(context.Background(), sources, 20, len(sources), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualTraces(t, name, got, want)
		for i, s := range sources {
			mustEqualTraces(t, name+" TraceFrom", []*Trace{c.TraceFrom(s, 20)}, want[i:i+1])
		}
	}
}

func TestTraceSampleBlockedMatchesSequential(t *testing.T) {
	for name, g := range blockFixtures(t) {
		c := mustChain(t, g)
		// Seven sources: odd tails for every block size below, and the
		// degenerate blockSize=1 path.
		n := g.NumNodes()
		sources := []graph.NodeID{0, 2, 5, graph.NodeID(n / 3), graph.NodeID(n / 2),
			graph.NodeID(n - 2), graph.NodeID(n - 1)}
		want := scalarTraces(c, sources, 25)
		for _, blockSize := range []int{0, 1, 2, 3, 8, 16} {
			for _, workers := range []int{0, 1, 2, 4} {
				got, err := c.TraceSampleBlockedContext(context.Background(),
					sources, 25, blockSize, workers, nil)
				if err != nil {
					t.Fatalf("%s B=%d workers=%d: %v", name, blockSize, workers, err)
				}
				mustEqualTraces(t, name, got, want)
			}
		}
	}
}

// TestTraceSampleProbedMatchesSequential checks the probe hook: for
// every block size and worker count, the traces stay byte-identical to
// the scalar reference, and the probe sees every (source, step) exactly
// once with a column byte-identical to the scalar distribution after
// that many steps.
func TestTraceSampleProbedMatchesSequential(t *testing.T) {
	const maxT = 25
	for name, g := range blockFixtures(t) {
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			c := mustChain(t, g, lazyOpt...)
			n := g.NumNodes()
			sources := []graph.NodeID{0, 2, 5, graph.NodeID(n / 3), graph.NodeID(n / 2),
				graph.NodeID(n - 2), graph.NodeID(n - 1)}
			want := make([][][]float64, len(sources)) // [source][t-1] distribution
			for i, s := range sources {
				p := c.Delta(s)
				for step := 0; step < maxT; step++ {
					q := make([]float64, n)
					c.Step(q, p, nil)
					want[i] = append(want[i], q)
					p = q
				}
			}
			wantTraces := scalarTraces(c, sources, maxT)
			for _, blockSize := range []int{0, 1, 2, 3, 8, 16} {
				for _, workers := range []int{0, 1, 2, 4} {
					label := fmt.Sprintf("%s lazy=%v B=%d workers=%d", name, c.IsLazy(), blockSize, workers)
					var mu sync.Mutex
					seen := make([][]int, len(sources))
					for i := range seen {
						seen[i] = make([]int, maxT)
					}
					var bad string
					probe := func(first, step int, p []float64, width int) {
						mu.Lock()
						defer mu.Unlock()
						for j := 0; j < width; j++ {
							i := first + j
							seen[i][step-1]++
							for v := 0; v < n && bad == ""; v++ {
								if p[v*width+j] != want[i][step-1][v] {
									bad = fmt.Sprintf("source %d step %d row %d: %v, want %v",
										i, step, v, p[v*width+j], want[i][step-1][v])
								}
							}
						}
					}
					got, err := c.TraceSampleProbedContext(context.Background(), sources, maxT, blockSize, workers, probe)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mustEqualTraces(t, label, got, wantTraces)
					if bad != "" {
						t.Fatalf("%s: probe %s (not byte-identical)", label, bad)
					}
					for i := range seen {
						for step, k := range seen[i] {
							if k != 1 {
								t.Fatalf("%s: source %d step %d probed %d times, want 1", label, i, step+1, k)
							}
						}
					}
				}
			}
		}
	}
}

// TestTraceSampleProbedCancellation cancels from inside the probe: the
// running block aborts at its next step and the error wraps ctx.Err().
func TestTraceSampleProbedCancellation(t *testing.T) {
	c := mustChain(t, complete(30))
	sources := make([]graph.NodeID, 12)
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := c.TraceSampleProbedContext(ctx, sources, 50, 4, workers,
			func(first, step int, p []float64, width int) {
				if step == 2 {
					cancel()
				}
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestTraceUntilHugeMaxT asks for an absurd step budget on a
// fast-mixing graph: the trace must stop at eps after a few steps
// without reserving memory for the budget it never uses.
func TestTraceUntilHugeMaxT(t *testing.T) {
	c := mustChain(t, complete(20), Lazy())
	tr, ok := c.TraceUntil(0, 1e-6, 1<<32)
	if !ok {
		t.Fatalf("eps not reached after %d steps", len(tr.TV))
	}
	if len(tr.TV) > 50 {
		t.Fatalf("took %d steps on a complete graph, want a few", len(tr.TV))
	}
	if cap(tr.TV) > traceTVCap {
		t.Fatalf("TV capacity %d, want at most %d", cap(tr.TV), traceTVCap)
	}
}

func TestTraceSampleBlockedProgress(t *testing.T) {
	g := complete(20)
	c := mustChain(t, g)
	sources := []graph.NodeID{0, 1, 2, 3, 4, 5, 6} // blocks of 3: 3+3+1
	var dones []int
	_, err := c.TraceSampleBlockedContext(context.Background(), sources, 5, 3, 1,
		func(done, total int) {
			if total != len(sources) {
				t.Fatalf("total = %d", total)
			}
			dones = append(dones, done)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 3 || dones[0] != 3 || dones[1] != 6 || dones[2] != 7 {
		t.Fatalf("progress = %v, want [3 6 7]", dones)
	}
}

func TestTraceSampleBlockedCancellation(t *testing.T) {
	g := complete(30)
	c := mustChain(t, g)
	sources := make([]graph.NodeID, 12)
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}

	// Already-cancelled context: no block survives its first step.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TraceSampleBlockedContext(ctx, sources, 50, 4, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if _, err := c.TraceSampleBlockedContext(ctx, sources, 50, 4, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled parallel err = %v", err)
	}

	// Cancel mid-run, from the progress callback after the first block:
	// later blocks must abort and the error must wrap ctx.Err().
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err := c.TraceSampleBlockedContext(ctx2, sources, 50, 4, 1,
		func(done, total int) { cancel2() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v", err)
	}
}

// TestTraceSampleBlockedCancelAfterLastBlock cancels ctx from the
// progress call that reports every source done: the sampler finished
// its work, so it must return every trace and no error whatever the
// worker count.
func TestTraceSampleBlockedCancelAfterLastBlock(t *testing.T) {
	c := mustChain(t, complete(30))
	sources := make([]graph.NodeID, 8)
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		got, err := c.TraceSampleBlockedContext(ctx, sources, 10, 2, workers,
			func(done, total int) {
				if done == total {
					cancel()
				}
			})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		mustEqualTraces(t, fmt.Sprintf("workers=%d", workers), got, scalarTraces(c, sources, 10))
	}
}

func TestTraceSampleBlockedEmptySources(t *testing.T) {
	c := mustChain(t, complete(5))
	got, err := c.TraceSampleBlockedContext(context.Background(), nil, 10, 8, 2, nil)
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty sources = %v, %v", got, err)
	}
}

func TestStepParallelMatchesStep(t *testing.T) {
	for name, g := range blockFixtures(t) {
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			c := mustChain(t, g, lazyOpt...)
			n := g.NumNodes()
			p := c.Propagate(c.Delta(0), 2)
			want := make([]float64, n)
			c.Step(want, p, nil)
			for _, workers := range []int{0, 1, 2, 4} {
				got := make([]float64, n)
				c.StepParallel(got, p, nil, workers)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s lazy=%v workers=%d: row %d: %v, want %v (not byte-identical)",
							name, c.IsLazy(), workers, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// Step must accept an oversized scratch by reslicing (no allocation)
// and fall back to allocating when scratch is too short — both paths
// must produce the same result.
func TestStepScratchSizes(t *testing.T) {
	g := connectedRandom(50, 80, 3)
	c := mustChain(t, g)
	n := g.NumNodes()
	p := c.Propagate(c.Delta(0), 3)
	want := make([]float64, n)
	c.Step(want, p, make([]float64, n))
	for _, size := range []int{0, n - 1, n + 17} {
		got := make([]float64, n)
		c.Step(got, p, make([]float64, size))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("scratch len %d: row %d differs", size, v)
			}
		}
	}
	// Oversized blocked scratch reslices too.
	width := 4
	pb := make([]float64, n*width)
	for j := 0; j < width; j++ {
		for v, x := range p {
			pb[v*width+j] = x
		}
	}
	dst := make([]float64, n*width)
	c.StepBlock(dst, pb, width, make([]float64, n*width+9))
	for j := 0; j < width; j++ {
		for v := 0; v < n; v++ {
			if dst[v*width+j] != want[v] {
				t.Fatalf("blocked oversized scratch: col %d row %d differs", j, v)
			}
		}
	}
}
