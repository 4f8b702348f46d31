// Package markov implements the random walk on an undirected graph as
// a Markov chain: the transition operator P = D⁻¹A applied to exact
// probability distributions, the stationary distribution
// π_v = deg(v)/2m, the total-variation distance, and the direct
// (sampling) measurement of the mixing time from Definition 1 of the
// paper:
//
//	T(ε) = max_i min{ t : ‖π − π⁽ⁱ⁾Pᵗ‖_tv < ε }.
//
// One driver propagates every trace: a block of point masses advanced
// together by StepBlock, recording each column's ‖p_t − π‖_tv after
// every step. It has three entry points:
//
//   - TraceFrom(src, maxT) records the full curve from one source;
//   - TraceUntil(src, eps, maxT) stops at the first distance below eps;
//   - TraceSampleBlockedContext runs many sources in blocks over a
//     cancellable worker pool with progress reporting.
package markov

import (
	"errors"
	"math"
	"runtime"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// minParallelAdj is the adjacency length (2m) below which the
// row-sharded kernels fall back to the sequential ones when the
// caller asks for automatic parallelism: under it a matvec costs a
// few tens of microseconds and goroutine fan-out overhead dominates.
// An explicit workers > 1 always shards.
const minParallelAdj = 1 << 15

// Chain is the random walk on a fixed graph. The zero value is not
// usable; construct with New. A Chain is immutable and safe for
// concurrent use.
type Chain struct {
	g      *graph.Graph
	invDeg []float64
	pi     []float64
	plan   *graph.ShardPlan
	adjLen int64 // 2m, the CSR entries one full pass scans
	col    *telemetry.Collector
	lazy   bool
}

// Option configures a Chain.
type Option func(*Chain)

// Lazy makes the chain lazy: P' = (I+P)/2. A lazy chain is aperiodic
// on every connected graph, including bipartite ones where the plain
// walk never converges. The stationary distribution is unchanged.
func Lazy() Option { return func(c *Chain) { c.lazy = true } }

// WithCollector attaches a telemetry collector: every propagation
// kernel then counts its matvecs, SpMM blocks, edges scanned and
// trace completions into col at kernel-call granularity (one atomic
// add per CSR pass, never per edge), so results stay byte-identical.
// A nil col — the default — keeps the hot paths on the uninstrumented
// fast path.
func WithCollector(col *telemetry.Collector) Option {
	return func(c *Chain) { c.col = col }
}

// New constructs the random-walk chain for g. It fails if the graph
// is empty or has isolated vertices (the walk is undefined there); the
// paper sidesteps both by measuring the largest connected component.
func New(g *graph.Graph, opts ...Option) (*Chain, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("markov: empty graph")
	}
	c := &Chain{g: g}
	for _, o := range opts {
		o(c)
	}
	c.invDeg = make([]float64, n)
	c.pi = make([]float64, n)
	twoM := float64(2 * g.NumEdges())
	if twoM == 0 {
		return nil, errors.New("markov: graph has no edges")
	}
	for v := 0; v < n; v++ {
		d := g.Degree(graph.NodeID(v))
		if d == 0 {
			return nil, errors.New("markov: graph has an isolated vertex")
		}
		c.invDeg[v] = 1 / float64(d)
		c.pi[v] = float64(d) / twoM
	}
	// Edge-balanced shard plan for the row-sharded kernels, computed
	// once per chain. Oversubscribing the core count keeps workers
	// busy when shard costs drift apart.
	c.plan = graph.NewShardPlan(g, 4*runtime.GOMAXPROCS(0))
	c.adjLen = 2 * g.NumEdges()
	if c.col != nil {
		st := c.plan.Stats(g)
		c.col.ObserveMax(telemetry.ShardImbalanceMilli, int64(st.Imbalance*1000))
		c.col.ObserveMax(telemetry.MaxGraphAdjacency, c.adjLen)
	}
	return c, nil
}

// Collector returns the attached telemetry collector (nil when the
// chain is uninstrumented).
func (c *Chain) Collector() *telemetry.Collector { return c.col }

// Graph returns the underlying graph.
func (c *Chain) Graph() *graph.Graph { return c.g }

// IsLazy reports whether the chain is the lazy walk (I+P)/2.
func (c *Chain) IsLazy() bool { return c.lazy }

// NumNodes returns the number of states.
func (c *Chain) NumNodes() int { return c.g.NumNodes() }

// Stationary returns the stationary distribution π, with
// π_v = deg(v)/2m (Theorem 1). The returned slice is shared; callers
// must not modify it.
func (c *Chain) Stationary() []float64 { return c.pi }

// IsErgodic reports whether the chain converges to π from every start:
// the graph must be connected, and the walk aperiodic (non-bipartite,
// or lazy).
func (c *Chain) IsErgodic() bool {
	if !graph.IsConnected(c.g) {
		return false
	}
	return c.lazy || !graph.IsBipartite(c.g)
}

// Step computes dst = p·P for the plain walk, or p·(I+P)/2 for the
// lazy walk. dst and p must have length NumNodes and must not alias.
// scratch, if at least NumNodes long, avoids an allocation (longer
// pooled buffers are resliced, not rejected).
func (c *Chain) Step(dst, p, scratch []float64) {
	if c.col != nil {
		c.col.Add(telemetry.Matvecs, 1)
		c.col.Add(telemetry.EdgesScanned, c.adjLen)
	}
	n := c.g.NumNodes()
	w := scratch
	if len(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	for v := 0; v < n; v++ {
		w[v] = p[v] * c.invDeg[v]
	}
	c.stepRows(dst, p, w, 0, n)
}

// stepRows computes dst[v] for v in [lo, hi) from the pre-scaled
// w = p/deg. Rows are independent, so any partition of the vertex
// range produces bytes identical to a full sequential pass — the
// invariant StepParallel and the sharded tests rely on. The compact
// (uint32-offset) form gets a loop with the offset and adjacency
// arrays hoisted into locals — no per-row slice construction, half
// the offset bytes per row; per-row summation order is unchanged.
func (c *Chain) stepRows(dst, p, w []float64, lo, hi int) {
	if off := c.g.Offsets32(); off != nil {
		adj := c.g.Adjacency()
		if c.lazy {
			for v := lo; v < hi; v++ {
				var s float64
				for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
					s += w[adj[i]]
				}
				dst[v] = 0.5*p[v] + 0.5*s
			}
			return
		}
		for v := lo; v < hi; v++ {
			var s float64
			for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
				s += w[adj[i]]
			}
			dst[v] = s
		}
		return
	}
	if c.lazy {
		for v := lo; v < hi; v++ {
			var s float64
			for _, u := range c.g.Neighbors(graph.NodeID(v)) {
				s += w[u]
			}
			dst[v] = 0.5*p[v] + 0.5*s
		}
		return
	}
	for v := lo; v < hi; v++ {
		var s float64
		for _, u := range c.g.Neighbors(graph.NodeID(v)) {
			s += w[u]
		}
		dst[v] = s
	}
}

// StepParallel is Step with the row loop sharded across the chain's
// edge-balanced plan: workers goroutines claim contiguous vertex
// ranges whose adjacency lengths are near-equal, so each pays for the
// edges it scans rather than the vertices it owns. Per-row summation
// order is unchanged, so the output is byte-identical to Step.
//
// workers <= 0 uses GOMAXPROCS but stays sequential on graphs too
// small to amortize the fan-out; workers == 1 is Step; an explicit
// workers > 1 always shards.
func (c *Chain) StepParallel(dst, p, scratch []float64, workers int) {
	n := c.g.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if 2*c.g.NumEdges() < minParallelAdj {
			workers = 1
		}
	}
	if workers <= 1 {
		c.Step(dst, p, scratch)
		return
	}
	if c.col != nil {
		c.col.Add(telemetry.Matvecs, 1)
		c.col.Add(telemetry.EdgesScanned, c.adjLen)
	}
	w := scratch
	if len(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	c.plan.Do(workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			w[v] = p[v] * c.invDeg[v]
		}
	})
	c.plan.Do(workers, func(lo, hi int) {
		c.stepRows(dst, p, w, lo, hi)
	})
}

// Delta returns the point distribution concentrated at src (π⁽ⁱ⁾ in
// the paper's notation).
func (c *Chain) Delta(src graph.NodeID) []float64 {
	p := make([]float64, c.g.NumNodes())
	p[src] = 1
	return p
}

// Propagate advances p by t steps in place and returns it.
func (c *Chain) Propagate(p []float64, t int) []float64 {
	n := c.g.NumNodes()
	q := make([]float64, n)
	scratch := make([]float64, n)
	for i := 0; i < t; i++ {
		c.Step(q, p, scratch)
		p, q = q, p
	}
	return p
}

// TVDistance returns the total variation distance
// ½·Σ|p_v − q_v| ∈ [0, 1].
func TVDistance(p, q []float64) float64 {
	var s float64
	for i, v := range p {
		s += math.Abs(v - q[i])
	}
	return s / 2
}
