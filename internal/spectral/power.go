package spectral

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"mixtime/internal/graph"
	"mixtime/internal/linalg"
	"mixtime/internal/telemetry"
)

// Estimate is the result of a SLEM computation.
type Estimate struct {
	// Mu is the second largest eigenvalue modulus max(|λ₂|, |λ_n|).
	Mu float64
	// Lambda2 and LambdaN are the second largest and the smallest
	// eigenvalues of P.
	Lambda2, LambdaN float64
	// Iterations is the number of operator applications performed.
	Iterations int
	// Iters2 and ItersN split Iterations between the λ₂ and λ_n power
	// phases — the per-phase costs the warm-start comparison in E1
	// reports. Lanczos estimates both extremes from one Krylov space,
	// so there Iters2 carries the step count and ItersN is zero.
	Iters2, ItersN int
	// Converged reports whether the requested tolerance was met.
	Converged bool
	// WarmStarted reports whether the λ₂ phase was seeded from
	// Options.Start rather than a random unit vector.
	WarmStarted bool
	// Vector2 is the (unit, S-basis) eigenvector estimate for λ₂ when
	// the method produces one; it drives the spectral sweep cut.
	Vector2 []float64
}

// Options configures a SLEM estimation.
type Options struct {
	// Tol is the absolute eigenvalue tolerance (default 1e-8).
	Tol float64
	// MaxIter caps operator applications per eigenvalue
	// (default 50_000 for power iteration, 500 for Lanczos steps).
	MaxIter int
	// Seed seeds the random starting vector (default 1).
	Seed uint64
	// Workers shards every matvec across the operator's edge-balanced
	// plan: 0 uses GOMAXPROCS on graphs large enough to amortize the
	// fan-out, 1 forces the sequential kernel, > 1 always shards.
	// Sharding preserves per-row summation order, so estimates are
	// byte-identical for any value.
	Workers int
	// Collector, if non-nil, receives the solver's telemetry: matvecs,
	// edges scanned, power/Lanczos iteration counts and restarts.
	// Counting happens at call granularity, so estimates are
	// byte-identical with or without a collector.
	Collector *telemetry.Collector
	// Start, when its length equals the operator dimension, warm-starts
	// the λ₂ estimation from this vector instead of the seeded random
	// unit vector: power iteration begins its λ₂ phase there, and
	// Lanczos uses it as the first Krylov vector. The intended seed is
	// the previous epoch's Estimate.Vector2 on an evolving graph, where
	// the eigenvector drifts slowly and most of the iteration budget
	// would be spent rediscovering it. The vector is copied, deflated
	// against v₁ and normalized; a wrong-length or numerically
	// degenerate Start silently falls back to the cold random start, so
	// results are correct (if slower) whenever the warm hint is stale.
	// The λ_n phase always cold-starts — the λ₂ vector carries no
	// information about the other end of the spectrum.
	Start []float64
}

func (o Options) withDefaults(defaultIter int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = defaultIter
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// randomUnit fills x with Gaussian noise and normalizes.
func randomUnit(x []float64, rng *rand.Rand) {
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	linalg.Normalize(x)
}

// phase is the outcome of one deflated power iteration: the top
// eigenvalue of the shifted operator restricted to v₁⊥, its
// eigenvector, the operator applications spent and whether the
// residual tolerance was met.
type phase struct {
	val   float64
	vec   []float64
	iters int
	ok    bool
}

// powerExtreme runs deflated power iteration on the shifted operator
// (S + shift·I)/scale, whose spectrum is non-negative so the iterate
// cannot oscillate in sign.
//
// With shift=+1, scale=2 the top restricted eigenvalue is (λ₂+1)/2;
// with shift=-1, scale=-2 (i.e. (I−S)/2) it is (1−λ_n)/2.
// The iteration checks ctx once per operator application and returns
// the wrapped ctx.Err() when cancelled.
func powerExtreme(ctx context.Context, op *Operator, shift, scale float64, start []float64, opt Options) (p phase, err error) {
	n := op.Dim()
	rng := rand.New(rand.NewPCG(opt.Seed, 0x51e3))
	x := make([]float64, n)
	sx := make([]float64, n)
	scratch := make([]float64, n)
	if len(start) == n {
		copy(x, start)
	} else {
		randomUnit(x, rng)
	}
	op.Deflate(x)
	if linalg.Normalize(x) < 1e-12 {
		// A degenerate warm start (e.g. a stale vector collapsing onto
		// v₁, whose deflation residue is rounding noise still parallel
		// to v₁) must not wedge the solve: fall back to the cold start.
		// A deflated random unit vector has norm ≈ 1, so the cold path
		// never takes this branch and stays byte-identical.
		randomUnit(x, rng)
		op.Deflate(x)
		linalg.Normalize(x)
	}

	// One add per solve, whatever exit path the iteration takes.
	defer func() { opt.Collector.Add(telemetry.PowerIterations, int64(p.iters)) }()

	for p.iters = 1; p.iters <= opt.MaxIter; p.iters++ {
		if cerr := ctx.Err(); cerr != nil {
			return phase{iters: p.iters}, fmt.Errorf("spectral: power iteration cancelled at matvec %d: %w", p.iters, cerr)
		}
		op.ApplyParallel(sx, x, scratch, opt.Workers)
		// y = (S + shift I)/scale · x
		for i := range sx {
			sx[i] = (sx[i] + shift*x[i]) / scale
		}
		op.Deflate(sx)
		p.val = linalg.Dot(x, sx) // Rayleigh quotient of shifted op
		// residual ‖Mx − ρx‖
		var res float64
		for i := range sx {
			d := sx[i] - p.val*x[i]
			res += d * d
		}
		res = math.Sqrt(res)
		norm := linalg.Normalize(sx)
		if norm == 0 {
			// x was (numerically) entirely in the null space; the
			// restricted operator is zero in this direction.
			p.vec, p.ok = x, true
			return p, nil
		}
		x, sx = sx, x
		if res <= opt.Tol/2 {
			p.vec, p.ok = x, true
			return p, nil
		}
	}
	p.vec = x // p.iters is MaxIter+1 here, as the loop left it
	return p, nil
}

// lambda2Phase runs the λ₂ phase on (S+I)/2 from start, reporting
// whether start was taken as a warm start (exactly the operator
// dimension) rather than ignored for the seeded random one. The
// tolerance halves because λ₂ = 2ρ − 1. opt must already carry its
// defaults.
func lambda2Phase(ctx context.Context, op *Operator, start []float64, opt Options) (p phase, warm bool, err error) {
	if warm = len(start) == op.Dim(); warm {
		opt.Collector.Add(telemetry.EvolveWarmStarts, 1)
	}
	opt.Tol /= 2
	p, err = powerExtreme(ctx, op, +1, 2, start, opt)
	return p, warm, err
}

// lambdaNPhase runs the λ_n phase on (I−S)/2, whose top eigenvalue is
// (1−λ_n)/2. v₁ has eigenvalue 0 there, so deflation is belt and
// braces. It always starts cold, from its own seed.
func lambdaNPhase(ctx context.Context, op *Operator, opt Options) (phase, error) {
	opt.Tol /= 2
	opt.Seed++
	return powerExtreme(ctx, op, -1, -2, nil, opt)
}

// CarryStart is the warm-start rule between consecutive graphs of an
// evolving trajectory, given the previous graph's Vector2 and the next
// graph's node count n. A grown node range keeps old IDs stable, so a
// shorter previous vector is still a useful hint: it is zero-padded to
// n and deflation renormalizes it. A longer one means the graph shrank
// (relabeling destroyed alignment), and an empty one carries nothing:
// both return nil, a cold start. SLEMPowerChain applies it between its
// graphs; callers that chain solves themselves apply it too, so the
// rule has exactly one definition.
func CarryStart(prev []float64, n int) []float64 {
	if len(prev) == 0 || len(prev) > n {
		return nil
	}
	if len(prev) == n {
		return prev // the solvers copy Start, never write it
	}
	start := make([]float64, n)
	copy(start, prev)
	return start
}

// SLEMPower estimates µ by two deflated power iterations on shifted
// operators: (S+I)/2 isolates λ₂ and (I−S)/2 isolates λ_n. Shifting
// makes the restricted spectrum non-negative, so convergence is
// monotone even when λ₂ ≈ −λ_n (near-bipartite graphs), at the cost
// of a convergence rate governed by the shifted gap. This is the
// simple, O(n)-memory method; prefer SLEMLanczos when the spectral
// gap is small (slow-mixing graphs) and memory allows.
func SLEMPower(g *graph.Graph, opt Options) (*Estimate, error) {
	return SLEMPowerContext(context.Background(), g, opt)
}

// SLEMPowerContext is SLEMPower with cancellation. It is the one-graph
// SLEMPowerChain, so on small graphs in automatic worker mode its two
// phases run side by side.
func SLEMPowerContext(ctx context.Context, g *graph.Graph, opt Options) (*Estimate, error) {
	ests, err := SLEMPowerChain(ctx, []*graph.Graph{g}, opt)
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// SLEMPowerChain estimates µ for each graph of a trajectory in order.
// Graph 0's λ₂ phase starts from opt.Start exactly as SLEMPowerContext
// does; graph i > 0 starts from CarryStart(graph i−1's Vector2). Every
// Estimate is bit-identical to a SLEMPowerContext call on that graph
// with that start, whatever the scheduling below.
//
// The λ₂ phases form a chain, so they run in order on the calling
// goroutine. The λ_n phases start cold and depend only on their own
// graph. In automatic worker mode (opt.Workers <= 0) with GOMAXPROCS
// > 1, the λ_n phase of every graph whose matvec stays sequential
// (2m below the ApplyParallel threshold) is claimed from a shared
// counter by up to GOMAXPROCS−1 helper goroutines, and by the caller
// once its chain is done. Every other λ_n phase runs on the caller
// right after its graph's λ₂ phase, so Workers == 1 and sharded
// graphs keep the sequential order. No goroutine outlives the call.
//
// On cancellation the error wraps ctx.Err(); with more than one graph
// it names the graph that failed.
func SLEMPowerChain(ctx context.Context, gs []*graph.Graph, opt Options) ([]*Estimate, error) {
	ops := make([]*Operator, len(gs))
	for i, g := range gs {
		op, err := NewOperator(g)
		if err != nil {
			return nil, chainErr(len(gs), i, err)
		}
		ops[i] = op
	}
	return powerChain(ctx, ops, opt)
}

func slemPowerOp(ctx context.Context, op *Operator, opt Options) (*Estimate, error) {
	ests, err := powerChain(ctx, []*Operator{op}, opt)
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// PowerLambda2Context runs only the λ₂ phase of SLEMPowerContext on g,
// from opt.Start (cold when its length is not the node count). The
// Estimate carries Lambda2, Iters2 (= Iterations), Converged,
// WarmStarted and Vector2; Mu, LambdaN and ItersN stay zero. Each
// field is bit-identical to the same field of a full solve with that
// start. It is the cold control of evolve's CompareCold, which takes
// λ_n from the warm solve: same operator, seed and tolerance give the
// same λ_n phase.
func PowerLambda2Context(ctx context.Context, g *graph.Graph, opt Options) (*Estimate, error) {
	op, err := NewOperator(g)
	if err != nil {
		return nil, err
	}
	if opt, err = prepare([]*Operator{op}, opt); err != nil {
		return nil, err
	}
	hi, warm, err := lambda2Phase(ctx, op, opt.Start, opt)
	if err != nil {
		return nil, err
	}
	return &Estimate{
		Lambda2:     2*hi.val - 1,
		Iterations:  hi.iters,
		Iters2:      hi.iters,
		Converged:   hi.ok,
		WarmStarted: warm,
		Vector2:     hi.vec,
	}, nil
}

// chainErr names the failing graph of a chain longer than one, so a
// one-graph solve reports exactly what its phase reported.
func chainErr(n, i int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("spectral: chain graph %d of %d: %w", i, n, err)
}

// prepare fills opt's power-iteration defaults, rejects operators too
// small for a SLEM and attaches opt's collector to the others.
func prepare(ops []*Operator, opt Options) (Options, error) {
	opt = opt.withDefaults(50_000)
	for i, op := range ops {
		if op.Dim() < 2 {
			return opt, chainErr(len(ops), i, errors.New("spectral: graph too small for SLEM"))
		}
		if opt.Collector != nil && op.col == nil {
			op.SetCollector(opt.Collector)
		}
	}
	return opt, nil
}

// powerChain is the engine behind SLEMPowerChain over prebuilt
// operators.
func powerChain(ctx context.Context, ops []*Operator, opt Options) ([]*Estimate, error) {
	opt, err := prepare(ops, opt)
	if err != nil {
		return nil, err
	}

	hi := make([]phase, len(ops))
	lo := make([]phase, len(ops))
	loErr := make([]error, len(ops))

	// The λ_n phases that may overlap: small graphs in auto mode only.
	procs := runtime.GOMAXPROCS(0)
	shared := make([]bool, len(ops))
	var queue []int
	if opt.Workers <= 0 && procs > 1 {
		for i, op := range ops {
			if op.adjLen < minParallelAdj {
				shared[i] = true
				queue = append(queue, i)
			}
		}
	}
	var next atomic.Int64
	claim := func() {
		for k := int(next.Add(1)) - 1; k < len(queue); k = int(next.Add(1)) - 1 {
			i := queue[k]
			lo[i], loErr[i] = lambdaNPhase(ctx, ops[i], opt)
		}
	}
	var wg sync.WaitGroup
	for h := min(procs-1, len(queue)); h > 0; h-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}

	warm := make([]bool, len(ops))
	err = func() error {
		start := opt.Start
		for i, op := range ops {
			if i > 0 {
				start = CarryStart(hi[i-1].vec, op.Dim())
			}
			var err error
			if hi[i], warm[i], err = lambda2Phase(ctx, op, start, opt); err != nil {
				return chainErr(len(ops), i, err)
			}
			if !shared[i] {
				if lo[i], err = lambdaNPhase(ctx, op, opt); err != nil {
					return chainErr(len(ops), i, err)
				}
			}
		}
		return nil
	}()
	if err != nil {
		next.Store(int64(len(queue))) // helpers claim nothing more
	} else {
		claim()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, e := range loErr {
		if e != nil {
			return nil, chainErr(len(ops), i, e)
		}
	}

	ests := make([]*Estimate, len(ops))
	for i := range ops {
		lambda2 := 2*hi[i].val - 1
		lambdaN := 1 - 2*lo[i].val
		ests[i] = &Estimate{
			Mu:          math.Max(math.Abs(lambda2), math.Abs(lambdaN)),
			Lambda2:     lambda2,
			LambdaN:     lambdaN,
			Iterations:  hi[i].iters + lo[i].iters,
			Iters2:      hi[i].iters,
			ItersN:      lo[i].iters,
			Converged:   hi[i].ok && lo[i].ok,
			WarmStarted: warm[i],
			Vector2:     hi[i].vec,
		}
	}
	return ests, nil
}
