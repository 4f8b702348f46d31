// Package distmix estimates mixing times the way a distributed system
// would: no global eigensolve, no dense distribution vectors — just
// random-walk tokens hopping between graph partitions, with
// convergence detected from per-partition visit statistics. It follows
// Molla & Pandurangan's distributed mixing-time line of work: each
// node learns how mixed the walk is from local walk counts alone, and
// the only global operations are a per-round barrier and an
// O(shards)-sized reduction.
//
// The package simulates the distributed execution on one machine so
// the estimates can be cross-validated against the exact spectral and
// propagation answers the rest of the repository computes (experiments
// D1/D2). The edge-balanced graph.ShardPlan partitions are the cost
// model's workers, rounds are bulk-synchronous supersteps, and every
// walker hop whose endpoints lie on different shards is accounted as
// an off-shard message through internal/telemetry — the cost a real
// deployment would put on the wire.
//
// The simulation is a flat superstep over walker state: one position
// per walker, indexed by walker id, hopped in place once per round.
// Shards decide only the accounting (which hops are off-shard), never
// the execution: the hops run on contiguous walker ranges sized by
// the host and the population, and every cross-range merge is integer
// addition, so the estimate and the message bill are identical for
// any split.
package distmix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"mixtime/internal/api"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/telemetry"
)

// Options configures one distributed estimate. Zero or negative
// numeric fields take the canonical api defaults; Seed is never
// rewritten (zero is a valid seed, matching core.Options).
type Options struct {
	// Shards is the number of simulated workers — the partitions the
	// message bill is split over (default api.DefaultDistShards;
	// capped at the vertex count by the plan).
	// The estimate is identical for any value — only the communication
	// accounting changes — which is the invariant the fingerprint
	// exclusion of dist_shards relies on.
	Shards int
	// WalksPerNode scales the walker population: every source launches
	// WalksPerNode × n walkers (default api.DefaultDistWalks). More
	// walks shrink the sampling noise floor — and cost proportionally
	// more messages.
	WalksPerNode int
	// MaxRounds caps the supersteps per source (default
	// api.DefaultDistRounds). A source that has not mixed by then is
	// reported incomplete with its round cap as a lower bound, matching
	// markov.MixingTime's incomplete semantics.
	MaxRounds int
	// Eps is the variation-distance threshold τ(ε) is measured at
	// (default api.DefaultEps).
	Eps float64
	// Sources is how many start vertices to sample (default
	// api.DefaultSources). Ignored when SourceList is set. Sampling
	// uses the exact derivation of core.MeasureContext — PCG(Seed,
	// 0xc0fe) into markov.SampleSources — so a distmix query and a cdf
	// query with equal seeds measure the same sources.
	Sources int
	// SourceList, when non-nil, names the start vertices explicitly
	// (the D1 driver passes the same list to the exact reference).
	SourceList []graph.NodeID
	// Seed drives the hashed walker steps and source sampling.
	Seed uint64
	// Lazy forces the lazy walk. Bipartite graphs are measured lazily
	// regardless, mirroring core.MeasureContext's chain convention so
	// estimates stay comparable with the exact answers.
	Lazy bool
	// Collector, if non-nil, receives the distmix_* communication
	// counters. Estimates are identical with or without it.
	Collector *telemetry.Collector
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = api.DefaultDistShards
	}
	if o.WalksPerNode <= 0 {
		o.WalksPerNode = api.DefaultDistWalks
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = api.DefaultDistRounds
	}
	if o.Eps <= 0 {
		o.Eps = api.DefaultEps
	}
	if o.Sources <= 0 {
		o.Sources = api.DefaultSources
	}
	return o
}

// Stats is the communication accounting of one estimate — the cost
// model of the simulated distributed system. Message counts are exact
// and deterministic; they grow with the shard count even though the
// estimate itself does not, which is the accuracy-vs-communication
// axis experiment D2 sweeps.
type Stats struct {
	// Rounds is the number of supersteps executed.
	Rounds int `json:"rounds"`
	// Messages counts every delivered message, local or not.
	Messages int64 `json:"messages"`
	// OffShardMessages counts messages whose sender and receiver live
	// on different shards — wire traffic in a real deployment.
	OffShardMessages int64 `json:"offshard_messages"`
	// OnShardBytes and OffShardBytes are the accounted payload volumes
	// (message count × the 8-byte walker message).
	OnShardBytes  int64 `json:"onshard_bytes"`
	OffShardBytes int64 `json:"offshard_bytes"`
	// Halted reports that the convergence test stopped the run before
	// the round budget ran out.
	Halted bool `json:"halted"`
}

// Add accumulates another source's accounting.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.OffShardMessages += o.OffShardMessages
	s.OnShardBytes += o.OnShardBytes
	s.OffShardBytes += o.OffShardBytes
	s.Halted = s.Halted || o.Halted
}

// SourceEstimate is one source's walk-distribution measurement.
type SourceEstimate struct {
	Source graph.NodeID `json:"source"`
	// Tau is the first walk length whose debiased TV estimate drops
	// below ε. When Mixed is false the source never crossed within
	// MaxRounds and Tau is the round cap (a lower bound).
	Tau   int  `json:"tau"`
	Mixed bool `json:"mixed"`
	// LocalTau is the local mixing time ζ(ε) in the Molla–Pandurangan
	// sense: the first walk length at which vertices holding ≥ 1−ε of
	// the stationary mass are individually within their pointwise
	// tolerance of π. The certificate is pointwise (stricter per
	// vertex than the aggregate TV test), so ζ tracks τ closely but
	// can land on either side of it.
	LocalTau   int  `json:"local_tau"`
	LocalMixed bool `json:"local_mixed"`
	// Rounds is the supersteps this source's walker flood executed.
	Rounds int `json:"rounds"`
}

// Result is one distributed mixing-time estimate.
type Result struct {
	Eps          float64 `json:"eps"`
	WalksPerNode int     `json:"walks_per_node"`
	// Walks is the walker population per source (WalksPerNode × n).
	Walks  int `json:"walks"`
	Shards int `json:"shards"`
	// Lazy reports the measured chain (true on bipartite graphs).
	Lazy    bool             `json:"lazy"`
	Sources []SourceEstimate `json:"sources"`
	// Tau applies Definition 1 to the per-source estimates: the
	// maximum first ε-crossing over sources. Complete is false when
	// some source never crossed (Tau is then a lower bound).
	Tau      int  `json:"tau"`
	Complete bool `json:"complete"`
	// LocalTau is the worst-case local mixing time over sources.
	LocalTau      int  `json:"local_tau"`
	LocalComplete bool `json:"local_complete"`
	// NoiseFloor is the expected sampling contribution to the raw TV
	// estimate (½·Σ_v MAD of Bin(K, π_v)/K) subtracted before the ε
	// comparison — the debiasing that makes finite-walker estimates
	// track the exact propagated distance.
	NoiseFloor float64 `json:"noise_floor"`
	// Stats totals the communication accounting over every source's
	// walker flood. It depends on the shard count even though the
	// estimate does not.
	Stats Stats `json:"stats"`
}

// walkerBytes is the accounted wire size of one walker message:
// walker id + current position.
const walkerBytes = 8

// minWalksPerRange is the smallest walker range worth a goroutine of
// its own; below it the per-round fan-out costs more than it saves.
const minWalksPerRange = 4096

// Hash constants of the counter-mode walker stream: a hop is
// mix64(runSeed + id·hopWalkerMul + round·hopRoundMul).
const (
	hopWalkerMul = 0x9e3779b97f4a7c15
	hopRoundMul  = 0xd1b54a32d192ed03
)

// EstimateMixingTime measures τ(ε) the distributed way: every sampled
// source floods the graph with K = WalksPerNode·n walk tokens, every
// token advances one hop per superstep, and each round's exact visit
// counts are reduced into an ℓ1 distance to the degree-proportional
// stationary distribution. The walk stops at the first round whose
// debiased distance is below ε. Sources run sequentially (walker
// memory stays bounded by one population) and each contributes its
// flood's communication accounting to the returned totals.
//
// Determinism: walker hops are a pure hash of (seed, source, walker,
// round) and every cross-range reduction is integer arithmetic, so
// the estimate is bit-identical for any shard count and any
// goroutine interleaving — only Stats varies with the plan.
func EstimateMixingTime(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	return estimate(ctx, g, opt, 0)
}

// estimate is EstimateMixingTime with the walker-range count exposed.
// ranges <= 0 picks min(shards, GOMAXPROCS, walks/minWalksPerRange);
// the Result is the same for every count.
func estimate(ctx context.Context, g *graph.Graph, opt Options, ranges int) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n < 2 {
		return nil, errors.New("distmix: graph too small to measure")
	}
	if !graph.IsConnected(g) {
		return nil, errors.New("distmix: graph must be connected (mixing time is undefined otherwise)")
	}
	walks := opt.WalksPerNode * n
	if int64(opt.WalksPerNode)*int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("distmix: %d walks per node on %d nodes overflows the walker id space", opt.WalksPerNode, n)
	}
	lazy := opt.Lazy || graph.IsBipartite(g)

	sources := opt.SourceList
	if sources == nil {
		// The exact derivation core.MeasureContext uses, so distmix and
		// cdf queries with equal seeds measure the same source set
		// (pinned by TestSourceDerivationMatchesCore).
		rng := rand.New(rand.NewPCG(opt.Seed, 0xc0fe))
		sources = markov.SampleSources(g, opt.Sources, rng)
	}
	if len(sources) == 0 {
		return nil, errors.New("distmix: no sources")
	}
	for _, src := range sources {
		if int(src) >= n {
			return nil, fmt.Errorf("distmix: source %d out of range for %d nodes", src, n)
		}
	}

	plan := graph.NewShardPlan(g, opt.Shards)
	res := &Result{
		Eps:           opt.Eps,
		WalksPerNode:  opt.WalksPerNode,
		Walks:         walks,
		Shards:        plan.NumShards(),
		Lazy:          lazy,
		Complete:      true,
		LocalComplete: true,
	}
	if ranges <= 0 {
		ranges = min(plan.NumShards(), runtime.GOMAXPROCS(0), walks/minWalksPerRange)
	}
	f := newFlood(g, plan, walks, max(1, min(ranges, walks)), lazy)

	// Stationary-distribution scaffolding, computed once in vertex
	// order (the only floating-point inputs; identical for every shard
	// count). devThresh[v] is the pointwise "locally mixed" tolerance
	// on the integer deviation |2m·c_v − K·deg_v|: ε·π_v of real
	// deviation plus two noise MADs, scaled by K·2m.
	k2m := float64(walks) * float64(f.twoM)
	var floor float64
	for v := 0; v < n; v++ {
		deg := int64(g.Degree(graph.NodeID(v)))
		f.kDeg[v] = int64(walks) * deg
		pi := float64(deg) / float64(f.twoM)
		mad := binomMAD(walks, pi)
		floor += mad / 2
		f.devThresh[v] = (opt.Eps*pi + 2*mad) * k2m
	}
	res.NoiseFloor = floor

	for _, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("distmix: cancelled: %w", err)
		}
		se, stats, err := f.estimateSource(ctx, src, opt, floor)
		if err != nil {
			return nil, err
		}
		res.Sources = append(res.Sources, se)
		res.Stats.Add(stats)
		if se.Tau > res.Tau {
			res.Tau = se.Tau
		}
		if se.LocalTau > res.LocalTau {
			res.LocalTau = se.LocalTau
		}
		res.Complete = res.Complete && se.Mixed
		res.LocalComplete = res.LocalComplete && se.LocalMixed
	}
	return res, nil
}

// flood is one estimate's walker state, built once and reused by
// every source. Walker i's position is pos[i]; the walkers are split
// into contiguous ranges, and range r counts the arrivals its hops
// produce into its own row of nxt, so ranges never write shared
// memory. The next superstep sums the rows vertex by vertex.
type flood struct {
	g     *graph.Graph
	off32 []uint32 // hoisted CSR offsets; nil selects the wide fallback
	adj   []graph.NodeID
	lazy  bool
	// owner maps a vertex to its shard — the cost model's routing
	// table, consulted only to price a hop.
	owner []uint32
	pos   []graph.NodeID
	// cur and nxt are [range][vertex] visit counts: this round's
	// arrivals (consumed and zeroed by the reduction) and the next
	// round's (filled by the hops).
	cur, nxt [][]int32
	tally    []tally

	twoM      int64
	kDeg      []int64   // K·deg_v
	devThresh []float64 // pointwise locally-mixed tolerance
}

// tally is one walker range's share of a superstep: exact integer
// sums, so merging over any split is associative and lossless — the
// root of the range- and shard-count invariance.
type tally struct {
	// absDev is Σ_v |2m·c_v − K·deg_v| over the range's vertices
	// (K·2m·TV̂ scale).
	absDev int64
	// mixedDeg is Σ deg_v over the range's vertices whose count is
	// within the pointwise tolerance — stationary mass (×2m) already
	// locally mixed.
	mixedDeg int64
	// off counts the range's hops that crossed a shard boundary.
	off int64
}

func newFlood(g *graph.Graph, plan *graph.ShardPlan, walks, ranges int, lazy bool) *flood {
	n := g.NumNodes()
	f := &flood{
		g:         g,
		off32:     g.Offsets32(),
		adj:       g.Adjacency(),
		lazy:      lazy,
		owner:     make([]uint32, n),
		pos:       make([]graph.NodeID, walks),
		cur:       make([][]int32, ranges),
		nxt:       make([][]int32, ranges),
		tally:     make([]tally, ranges),
		twoM:      2 * g.NumEdges(),
		kDeg:      make([]int64, n),
		devThresh: make([]float64, n),
	}
	for s := 0; s < plan.NumShards(); s++ {
		lo, hi := plan.Bounds(s)
		for v := lo; v < hi; v++ {
			f.owner[v] = uint32(s)
		}
	}
	for r := range f.cur {
		f.cur[r] = make([]int32, n)
		f.nxt[r] = make([]int32, n)
	}
	return f
}

// estimateSource runs one source's walker population to its ε
// crossing (or the round cap).
func (f *flood) estimateSource(ctx context.Context, src graph.NodeID, opt Options, floor float64) (SourceEstimate, Stats, error) {
	walks := len(f.pos)
	for i := range f.pos {
		f.pos[i] = src
	}
	for r := range f.cur {
		clear(f.cur[r])
	}
	f.cur[0][src] = int32(walks)

	runSeed := mix64(mix64(opt.Seed^0x646973746d6978) ^ uint64(src))
	se := SourceEstimate{Source: src}
	invScale := 1 / (2 * float64(walks) * float64(f.twoM))
	// ζ(ε) target: locally mixed vertices must hold ≥ (1−ε) of the
	// stationary mass, i.e. Σ deg over mixed vertices ≥ (1−ε)·2m.
	localTarget := (1 - opt.Eps) * float64(f.twoM)
	var tvDone, localDone bool
	var st Stats

	// Round r reduces the distribution after r−1 hops, so a crossing
	// detected at round r means τ = r−1, and observing walk length
	// MaxRounds needs MaxRounds+1 rounds. Every round's hops are
	// computed and billed, the halting round's included.
	for round := 1; round <= opt.MaxRounds+1; round++ {
		if err := ctx.Err(); err != nil {
			return SourceEstimate{}, Stats{}, fmt.Errorf("distmix: cancelled at round %d: %w", round, err)
		}
		t := f.superstep(runSeed + uint64(round)*hopRoundMul)

		on := int64(walks) - t.off
		st.Rounds++
		st.Messages += int64(walks)
		st.OffShardMessages += t.off
		st.OnShardBytes += on * walkerBytes
		st.OffShardBytes += t.off * walkerBytes
		col := opt.Collector
		col.Add(telemetry.DistRounds, 1)
		col.Add(telemetry.DistMessages, int64(walks))
		col.Add(telemetry.DistOffShardMessages, t.off)
		col.Add(telemetry.DistOnShardBytes, on*walkerBytes)
		col.Add(telemetry.DistOffShardBytes, t.off*walkerBytes)

		tau := round - 1
		if !localDone && float64(t.mixedDeg) >= localTarget {
			se.LocalTau, se.LocalMixed, localDone = tau, true, true
		}
		if tv := float64(t.absDev)*invScale - floor; !tvDone && tv < opt.Eps {
			se.Tau, se.Mixed, tvDone = tau, true, true
		}
		if tvDone && localDone {
			st.Halted = true
			break
		}
	}
	se.Rounds = st.Rounds
	if !se.Mixed {
		se.Tau = opt.MaxRounds // lower bound, like markov.MixingTime
	}
	if !se.LocalMixed {
		se.LocalTau = opt.MaxRounds
	}
	return se, st, nil
}

// superstep runs one round on every walker range — range 0 on the
// calling goroutine — and returns the summed tally. roundKey is the
// round's share of the hop hash, runSeed + round·hopRoundMul.
func (f *flood) superstep(roundKey uint64) tally {
	var wg sync.WaitGroup
	for r := 1; r < len(f.tally); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f.tally[r] = f.step(r, roundKey)
		}(r)
	}
	f.tally[0] = f.step(0, roundKey)
	wg.Wait()
	var t tally
	for _, p := range f.tally {
		t.absDev += p.absDev
		t.mixedDeg += p.mixedDeg
		t.off += p.off
	}
	f.cur, f.nxt = f.nxt, f.cur
	return t
}

// step is range r's share of one superstep. It reduces the r-th slice
// of the vertices over every range's arrival counts (zeroing them for
// reuse), then hops the r-th slice of the walkers, counting their
// arrivals into its own next-round row and their shard crossings.
// Both halves are pure functions of the walker ids and vertices they
// cover, so any split yields the same sums.
func (f *flood) step(r int, roundKey uint64) tally {
	var t tally
	ranges, n, walks := len(f.cur), len(f.owner), len(f.pos)

	for v := r * n / ranges; v < (r+1)*n/ranges; v++ {
		var c int32
		for _, row := range f.cur {
			c += row[v]
			row[v] = 0
		}
		dev := f.twoM*int64(c) - f.kDeg[v]
		if dev < 0 {
			dev = -dev
		}
		t.absDev += dev
		if float64(dev) <= f.devThresh[v] {
			t.mixedDeg += int64(f.g.Degree(graph.NodeID(v)))
		}
	}

	lo, hi := r*walks/ranges, (r+1)*walks/ranges
	pos, cnt, owner := f.pos[lo:hi], f.nxt[r], f.owner
	off32, adj, lazy := f.off32, f.adj, f.lazy
	key := roundKey + uint64(lo)*hopWalkerMul
	for i, v := range pos {
		// The hop is a pure function of (seed, walker id, round): a
		// lazy coin when measuring the lazy chain, then a uniform
		// neighbour choice, both from one avalanche hash.
		h := mix64(key + uint64(i)*hopWalkerMul)
		next := v
		if !lazy || h&1 == 0 {
			if lazy {
				h >>= 1
			}
			if off32 != nil {
				start := off32[v]
				next = adj[uint64(start)+(h>>1)%uint64(off32[v+1]-start)]
			} else {
				nb := f.g.Neighbors(v)
				next = nb[(h>>1)%uint64(len(nb))]
			}
		}
		d := owner[v] ^ owner[next] // nonzero iff the hop leaves v's shard
		t.off += int64((d | -d) >> 31)
		pos[i] = next
		cnt[next]++
	}
	return t
}

// mix64 is the splitmix64 finalizer — a full-avalanche bijection used
// as a counter-mode RNG over (seed, walker, round).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// binomMAD is the exact mean absolute deviation of Bin(k, p)/k around
// p, by De Moivre's closed form E|X−kp| = 2ν(1−p)·P(X=ν) with
// ν = ⌊kp⌋+1. It is the per-vertex sampling noise a finite walker
// population adds to the ℓ1 distance; summed over vertices it gives
// the debiasing floor.
func binomMAD(k int, p float64) float64 {
	if p <= 0 || p >= 1 || k <= 0 {
		return 0
	}
	nu := math.Floor(float64(k)*p) + 1
	if nu > float64(k) {
		nu = float64(k)
	}
	lg := lchoose(k, nu) + nu*math.Log(p) + (float64(k)-nu)*math.Log1p(-p)
	return 2 * nu * (1 - p) * math.Exp(lg) / float64(k)
}

// lchoose is log C(n, k) via Lgamma.
func lchoose(n int, k float64) float64 {
	a, _ := math.Lgamma(float64(n) + 1)
	b, _ := math.Lgamma(k + 1)
	c, _ := math.Lgamma(float64(n) - k + 1)
	return a - b - c
}
