package evolve

import (
	"context"
	"fmt"
	"math"

	"mixtime/internal/graph"
	"mixtime/internal/spectral"
	"mixtime/internal/telemetry"
)

// Options configures a Tracker.
type Options struct {
	// Tol is the absolute eigenvalue tolerance of every per-epoch
	// solve, warm and cold alike (default 1e-8, matching spectral).
	Tol float64
	// Seed seeds the cold random starts (default 1). Warm starts are
	// deterministic by construction — they begin at the previous
	// epoch's eigenvector.
	Seed uint64
	// Workers shards matvecs exactly as spectral.Options.Workers does.
	Workers int
	// Method selects the solver: "power" (default) or "lanczos". Both
	// accept the warm-start vector; power iteration is where the
	// per-phase iteration split makes the saving directly countable.
	Method string
	// Eps is the variation distance for the per-epoch Sinclair bounds
	// (default 0.1, the paper's headline ε).
	Eps float64
	// CompareCold additionally runs a cold-start control per epoch and
	// reports its λ₂-phase iteration count beside the warm one — the
	// accuracy/cost column of experiment E1. Under power iteration the
	// control is one cold λ₂ phase; its λ_n phase would repeat the warm
	// solve's bit for bit, so that one is reused. The control is
	// discarded after measurement; trajectories always come from the
	// warm chain.
	CompareCold bool
	// Collector receives the solver and evolve_* telemetry.
	Collector *telemetry.Collector
}

// EpochStat is one epoch's observation of the mixing-time trajectory.
type EpochStat struct {
	// Epoch counts the epochs this tracker has observed (0-based);
	// Version is the underlying graph's epoch counter at observation
	// time.
	Epoch   int
	Version Version
	Nodes   int
	Edges   int64
	// Mu, Lambda2, LambdaN and Converged are the warm solve's estimate.
	Mu, Lambda2, LambdaN float64
	Converged            bool
	// WarmStarted reports whether this epoch actually reused the
	// previous eigenvector (the first epoch never does).
	WarmStarted bool
	// WarmIters is the λ₂-phase iteration count of the warm solve;
	// ColdIters is the cold control's (0 unless Options.CompareCold).
	// TotalIters is the warm solve's full count across both phases.
	WarmIters, ColdIters, TotalIters int
	// ColdMu is the cold control's µ (0 unless CompareCold): at equal
	// tolerance it agrees with Mu to within the solver tolerance, which
	// is what makes the iteration comparison an equal-accuracy one.
	ColdMu float64
	// LowerT and UpperT are the Sinclair mixing-time bounds at
	// Options.Eps for this epoch.
	LowerT, UpperT float64
}

// Tracker observes the SLEM/mixing-time trajectory of a MutableGraph
// across epochs, warm-starting each solve from the previous epoch's
// λ₂ eigenvector. The warm-start contract: the seed vector is a hint,
// never an assumption — a stale or wrong-length vector degrades to a
// cold start inside spectral, so every estimate is correct at the
// requested tolerance regardless of how far the graph drifted between
// observations.
//
// The tracked graph must stay free of isolated vertices at every
// observed epoch (delete batches that strand a vertex make the walk
// operator undefined); E1/E2 maintain that by construction.
type Tracker struct {
	mg    *MutableGraph
	opt   Options
	prev  []float64
	epoch int
}

// NewTracker builds a tracker over mg. The collector (if any) is also
// attached to mg so epoch counters and solver counters land together.
func NewTracker(mg *MutableGraph, opt Options) *Tracker {
	if opt.Eps <= 0 {
		opt.Eps = 0.1
	}
	if opt.Collector != nil {
		mg.SetCollector(opt.Collector)
	}
	return &Tracker{mg: mg, opt: opt}
}

// Observe estimates the current epoch's SLEM (warm-started when a
// previous eigenvector is available) and records the eigenvector for
// the next call. Safe to call after any number of Apply calls in
// between; each Observe measures whatever epoch is current. It is the
// one-epoch ObserveEach with no mutation.
func (t *Tracker) Observe(ctx context.Context) (EpochStat, error) {
	stats, err := t.ObserveEach(ctx, 1, nil)
	if err != nil {
		return EpochStat{}, err
	}
	return stats[0], nil
}

// ObserveEach observes epochs consecutive epochs. For each e it calls
// advance(e) (when non-nil) to apply that epoch's mutations, then
// snapshots the graph; advance's error aborts the call unwrapped. Once
// every epoch is snapshotted it solves them all as one warm chain —
// spectral.SLEMPowerChain under the power method, so the cold λ_n
// phases of the epochs overlap the warm λ₂ chain — and records the
// last eigenvector for the next call. The stats are bit-identical to
// calling advance and Observe alternately.
func (t *Tracker) ObserveEach(ctx context.Context, epochs int, advance func(epoch int) error) ([]EpochStat, error) {
	if epochs <= 0 {
		return nil, nil
	}
	gs := make([]*graph.Graph, epochs)
	vers := make([]Version, epochs)
	for e := range gs {
		if advance != nil {
			if err := advance(e); err != nil {
				return nil, err
			}
		}
		gs[e], vers[e] = t.mg.Snapshot()
	}
	sopt := spectral.Options{
		Tol:       t.opt.Tol,
		Seed:      t.opt.Seed,
		Workers:   t.opt.Workers,
		Collector: t.opt.Collector,
		Start:     spectral.CarryStart(t.prev, gs[0].NumNodes()),
	}
	ests, err := t.solve(ctx, gs, sopt)
	if err != nil {
		return nil, fmt.Errorf("evolve: epoch %d (version %d) onward: %w", t.epoch, vers[0], err)
	}

	stats := make([]EpochStat, epochs)
	for e, est := range ests {
		g := gs[e]
		stats[e] = EpochStat{
			Epoch:       t.epoch + e,
			Version:     vers[e],
			Nodes:       g.NumNodes(),
			Edges:       g.NumEdges(),
			Mu:          est.Mu,
			Lambda2:     est.Lambda2,
			LambdaN:     est.LambdaN,
			Converged:   est.Converged,
			WarmStarted: est.WarmStarted,
			WarmIters:   est.Iters2,
			TotalIters:  est.Iterations,
			LowerT:      spectral.MixingLowerBound(est.Mu, t.opt.Eps),
			UpperT:      spectral.MixingUpperBound(est.Mu, t.opt.Eps, g.NumNodes()),
		}
		if t.opt.CompareCold {
			copt := sopt
			copt.Start = nil
			iters, mu, err := t.coldControl(ctx, g, est, copt)
			if err != nil {
				return nil, fmt.Errorf("evolve: epoch %d cold control: %w", t.epoch+e, err)
			}
			stats[e].ColdIters, stats[e].ColdMu = iters, mu
		}
	}

	t.prev = ests[epochs-1].Vector2
	t.epoch += epochs
	return stats, nil
}

// solve runs the warm chain over gs. Power iteration is one
// spectral.SLEMPowerChain; Lanczos solves each graph in turn, carrying
// the Ritz vector by the same spectral.CarryStart rule.
func (t *Tracker) solve(ctx context.Context, gs []*graph.Graph, opt spectral.Options) ([]*spectral.Estimate, error) {
	if t.opt.Method != "lanczos" {
		return spectral.SLEMPowerChain(ctx, gs, opt)
	}
	ests := make([]*spectral.Estimate, len(gs))
	for i, g := range gs {
		if i > 0 {
			opt.Start = spectral.CarryStart(ests[i-1].Vector2, g.NumNodes())
		}
		est, err := spectral.SLEMLanczosContext(ctx, g, opt)
		if err != nil {
			return nil, fmt.Errorf("lanczos graph %d of %d: %w", i, len(gs), err)
		}
		ests[i] = est
	}
	return ests, nil
}

// coldControl is the CompareCold solve of g from the seeded random
// start; it returns the control's λ₂-phase iteration count and µ.
// Under power iteration only its λ₂ phase runs: the warm solve's λ_n
// phase already is the cold one (same operator, seed and tolerance),
// so µ combines the two bit-identically to a full cold solve. Lanczos
// has no separable phases and solves again in full.
func (t *Tracker) coldControl(ctx context.Context, g *graph.Graph, warm *spectral.Estimate, opt spectral.Options) (int, float64, error) {
	if t.opt.Method == "lanczos" {
		cold, err := spectral.SLEMLanczosContext(ctx, g, opt)
		if err != nil {
			return 0, 0, err
		}
		return cold.Iters2, cold.Mu, nil
	}
	cold, err := spectral.PowerLambda2Context(ctx, g, opt)
	if err != nil {
		return 0, 0, err
	}
	return cold.Iters2, math.Max(math.Abs(cold.Lambda2), math.Abs(warm.LambdaN)), nil
}
