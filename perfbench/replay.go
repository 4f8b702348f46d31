package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/core"
	"mixtime/internal/datasets"
	"mixtime/internal/evolve"
	"mixtime/internal/experiments"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/sybil"
	"mixtime/internal/telemetry"
)

// replayer replays an experiment's calls into the program's layers
// with a span around each call, adding their times to one traced
// phase's layer sums. The replays follow the experiment drivers in
// internal/experiments call for call, and each checks its results
// against the artifact the runner produced at the same seed, so a
// replay that drifts from its driver is a mismatch, not a silent
// change of what the per-layer times measure.
type replayer struct {
	ctx    context.Context
	cfg    runner.Config // defaults applied, seed set
	tr     *tracer
	parent int
	ls     *layerSums
	// spectralCol, when set, counts the spectral solves' work.
	spectralCol *telemetry.Collector
}

func (r *replayer) generate(d datasets.Dataset) *graph.Graph {
	var g *graph.Graph
	t0 := time.Now()
	r.tr.do("datasets.Generate", "datasets", r.parent, func() error { g = d.Generate(r.cfg.Scale, r.cfg.Seed); return nil })
	r.ls.generateTime += time.Since(t0)
	return g
}

func (r *replayer) generateByName(name string) (*graph.Graph, error) {
	d, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return r.generate(d), nil
}

// component times one of the graph layer's component calls.
func (r *replayer) component(name string, fn func()) {
	t0 := time.Now()
	r.tr.do(name, "graph", r.parent, func() error { fn(); return nil })
	r.ls.componentTime += time.Since(t0)
}

func (r *replayer) largestComponent(g *graph.Graph) *graph.Graph {
	var lcc *graph.Graph
	r.component("graph.LargestComponent", func() { lcc, _ = graph.LargestComponent(g) })
	return lcc
}

// spectral times one spectral solve, counting its convergence when it
// returns an estimate.
func (r *replayer) spectral(name string, fn func() (*spectral.Estimate, error)) (*spectral.Estimate, error) {
	var est *spectral.Estimate
	t0 := time.Now()
	err := r.tr.do(name, "spectral", r.parent, func() (err error) { est, err = fn(); return err })
	r.ls.slemTime += time.Since(t0)
	if err == nil && est != nil {
		r.ls.estimates++
		if est.Converged {
			r.ls.converged++
		}
	}
	return est, err
}

func (r *replayer) slem(g *graph.Graph) (*spectral.Estimate, error) {
	return r.spectral("spectral.SLEMContext", func() (*spectral.Estimate, error) {
		return spectral.SLEMContext(r.ctx, g, r.spectralOptions())
	})
}

func (r *replayer) spectralOptions() spectral.Options {
	return spectral.Options{Tol: r.cfg.SpectralTol, Seed: r.cfg.Seed, Workers: r.cfg.Workers,
		Collector: r.spectralCol}
}

// traceBlocked times the blocked propagation Figures 6 and 7 run, and
// counts its steps after mixing.
func (r *replayer) traceBlocked(g *graph.Graph, sources []graph.NodeID) error {
	t0 := time.Now()
	err := r.tr.do("markov.TraceSampleBlockedContext", "markov", r.parent, func() error {
		chain, err := markov.New(g)
		if err != nil {
			return err
		}
		traces, err := chain.TraceSampleBlockedContext(r.ctx, sources, r.cfg.MaxWalk, r.cfg.BlockSize, r.cfg.Workers, nil)
		for _, trace := range traces {
			r.ls.countSteps(trace, api.DefaultEps)
		}
		return err
	})
	r.ls.traceTime += time.Since(t0)
	return err
}

// decodeRows reads an artifact's rows into out.
func decodeRows(doc []byte, out any) error {
	if err := json.Unmarshal(doc, &struct {
		Rows any `json:"rows"`
	}{out}); err != nil {
		return fmt.Errorf("decode artifact: %w", err)
	}
	return nil
}

// replayFigs replays, at one pass's seed, the spectral, propagation
// and component calls of every figs experiment that makes them: T1,
// F5, F6, F7, X2 and E2. F8 (SybilLimit routes) and X3 (scalar exact
// propagation) are not replayed; their time shows only in their
// runner spans. It returns one error per experiment whose replay
// failed or disagreed with its artifact.
func replayFigs(ctx context.Context, w batchWorkload, seed uint64, docs map[string][]byte,
	tr *tracer, root int, ls *layerSums) []error {
	cfg := w.cfg.WithDefaults()
	cfg.Seed = seed
	ls.genReplays++
	var errs []error
	for _, x := range []struct {
		id string
		fn func(*replayer, []byte) error
	}{
		{"T1", replayT1}, {"F5", replayF5}, {"F6", replayF6},
		{"F7", replayF7}, {"X2", replayX2}, {"E2", replayE2},
	} {
		sp := tr.begin(x.id+".replay", "bench", root)
		err := x.fn(&replayer{ctx: ctx, cfg: cfg, tr: tr, parent: sp, ls: ls}, docs[x.id])
		tr.end(sp)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s replay: %w", x.id, err))
		}
	}
	return errs
}

// replayT1 follows experiments.Table1Context: every dataset generated
// and its SLEM solved.
func replayT1(r *replayer, doc []byte) error {
	var rows []struct {
		Name string
		Mu   float64
	}
	if err := decodeRows(doc, &rows); err != nil {
		return err
	}
	all := datasets.All()
	if len(rows) != len(all) {
		return fmt.Errorf("artifact has %d rows, want %d", len(rows), len(all))
	}
	for i, d := range all {
		est, err := r.slem(r.generate(d))
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if rows[i].Name != d.Name || rows[i].Mu != est.Mu {
			return fmt.Errorf("%s: replay µ %v, artifact %s µ %v", d.Name, est.Mu, rows[i].Name, rows[i].Mu)
		}
	}
	return nil
}

// replayF5 measures F5's inputs (the physics graphs) with
// core.MeasureContext, as experiments.Figure5Context does, and turns
// core's own "spectral" and "sampling" stage timers into the spectral
// and propagation times.
func replayF5(r *replayer, doc []byte) error {
	var rows []experiments.Fig5Curve
	if err := decodeRows(doc, &rows); err != nil {
		return err
	}
	names := []string{"physics-1", "physics-2", "physics-3"}
	if len(rows) != len(names) {
		return fmt.Errorf("artifact has %d rows, want %d", len(rows), len(names))
	}
	col := telemetry.New()
	for i, name := range names {
		g, err := r.generateByName(name)
		if err != nil {
			return err
		}
		col.Reset()
		sp := r.tr.begin("core.MeasureContext", "core", r.parent)
		m, err := core.MeasureContext(r.ctx, g, core.Options{Sources: r.cfg.Sources, MaxWalk: r.cfg.MaxWalk,
			SpectralTol: r.cfg.SpectralTol, Seed: r.cfg.Seed, Workers: r.cfg.Workers, BlockSize: r.cfg.BlockSize,
			Collector: col})
		r.tr.end(sp)
		recordCoreTimers(r.tr, sp, col.Snapshot(), r.ls)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got, want := m.Mu(), rows[i].Mu; got != want || rows[i].Dataset != name {
			return fmt.Errorf("%s: replay µ %v, artifact %s µ %v", name, got, rows[i].Dataset, want)
		}
		r.ls.estimates++
		if m.SLEM.Converged {
			r.ls.converged++
		}
		for _, trace := range m.Traces {
			r.ls.countSteps(trace, api.DefaultEps)
		}
	}
	return nil
}

// replayF6 follows experiments.Figure6Context: DBLP trimmed to minimum
// degree 1..5, each level's largest component solved and propagated.
func replayF6(r *replayer, doc []byte) error {
	var rows []struct {
		Level, Nodes int
		Mu           float64
	}
	if err := decodeRows(doc, &rows); err != nil {
		return err
	}
	if len(rows) != 5 {
		return fmt.Errorf("artifact has %d rows, want 5", len(rows))
	}
	full, err := r.generateByName("dblp")
	if err != nil {
		return err
	}
	for level := 1; level <= 5; level++ {
		var trimmed *graph.Graph
		r.tr.do("graph.Trim", "graph", r.parent, func() error { trimmed, _ = graph.Trim(full, level); return nil })
		lcc := r.largestComponent(trimmed)
		est, err := r.slem(lcc)
		if err != nil {
			return fmt.Errorf("dblp-%d: %w", level, err)
		}
		row := rows[level-1]
		if row.Level != level || row.Nodes != lcc.NumNodes() || row.Mu != est.Mu {
			return fmt.Errorf("dblp-%d: replay %d nodes µ %v, artifact level %d %d nodes µ %v",
				level, lcc.NumNodes(), est.Mu, row.Level, row.Nodes, row.Mu)
		}
		sources := markov.SampleSources(lcc, r.cfg.Sources, rand.New(rand.NewPCG(r.cfg.Seed, uint64(level))))
		if err := r.traceBlocked(lcc, sources); err != nil {
			return fmt.Errorf("dblp-%d: %w", level, err)
		}
	}
	return nil
}

// fig7Datasets and fig7PaperSizes mirror experiments.Figure7Context's
// panels; the artifact check catches a change to either.
var (
	fig7Datasets   = []string{"facebook-A", "facebook-B", "livejournal-A", "livejournal-B"}
	fig7PaperSizes = []int{10_000, 100_000, 1_000_000}
)

// replayF7 follows experiments.Figure7Context: BFS samples of the large
// graphs, each sample's largest component solved and propagated.
func replayF7(r *replayer, doc []byte) error {
	var rows []struct {
		Dataset string
		Nodes   int
		Mu      float64
	}
	if err := decodeRows(doc, &rows); err != nil {
		return err
	}
	if len(rows) != len(fig7Datasets)*len(fig7PaperSizes) {
		return fmt.Errorf("artifact has %d rows, want %d", len(rows), len(fig7Datasets)*len(fig7PaperSizes))
	}
	i := 0
	for _, name := range fig7Datasets {
		full, err := r.generateByName(name)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(r.cfg.Seed, 0xf167))
		for _, paperSize := range fig7PaperSizes {
			size := min(max(int(float64(paperSize)*r.cfg.Scale), 100), full.NumNodes())
			start := graph.NodeID(rng.IntN(full.NumNodes()))
			var sub *graph.Graph
			r.tr.do("graph.BFSSubgraph", "graph", r.parent, func() error { sub, _ = graph.BFSSubgraph(full, start, size); return nil })
			sub = r.largestComponent(sub)
			est, err := r.slem(sub)
			if err != nil {
				return fmt.Errorf("%s/%d: %w", name, paperSize, err)
			}
			row := rows[i]
			i++
			if row.Dataset != name || row.Nodes != sub.NumNodes() || row.Mu != est.Mu {
				return fmt.Errorf("%s/%d: replay %d nodes µ %v, artifact %s %d nodes µ %v",
					name, paperSize, sub.NumNodes(), est.Mu, row.Dataset, row.Nodes, row.Mu)
			}
			if err := r.traceBlocked(sub, markov.SampleSources(sub, r.cfg.Sources, rng)); err != nil {
				return fmt.Errorf("%s/%d: %w", name, paperSize, err)
			}
		}
	}
	return nil
}

// replayX2 follows experiments.ConductanceContext: the spectral sweep
// cut of every small dataset.
func replayX2(r *replayer, doc []byte) error {
	var rows []struct {
		Dataset  string
		Lambda2  float64
		SweepPhi float64
	}
	if err := decodeRows(doc, &rows); err != nil {
		return err
	}
	small := datasets.Small()
	if len(rows) != len(small) {
		return fmt.Errorf("artifact has %d rows, want %d", len(rows), len(small))
	}
	for i, d := range small {
		g := r.generate(d)
		var cut *spectral.Cut
		est, err := r.spectral("spectral.SweepConductanceContext", func() (est *spectral.Estimate, err error) {
			cut, est, err = spectral.SweepConductanceContext(r.ctx, g, r.spectralOptions())
			return est, err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if rows[i].Dataset != d.Name || rows[i].Lambda2 != est.Lambda2 || rows[i].SweepPhi != cut.Conductance {
			return fmt.Errorf("%s: replay λ2 %v Φ %v, artifact %s λ2 %v Φ %v",
				d.Name, est.Lambda2, cut.Conductance, rows[i].Dataset, rows[i].Lambda2, rows[i].SweepPhi)
		}
	}
	return nil
}

// e2Datasets mirrors the datasets experiments.EvolveAttackContext
// attacks; the artifact check catches a change.
var e2Datasets = []string{"physics-1", "wiki-vote"}

// replayE2 follows experiments.EvolveAttackContext: a baseline SLEM of
// each honest graph, then doubling batches of attack edges applied
// through evolve, with the warm-started tracker observing every epoch.
func replayE2(r *replayer, doc []byte) error {
	var rows []experiments.EvolveAttackRow
	if err := decodeRows(doc, &rows); err != nil {
		return err
	}
	i := 0
	for di, name := range e2Datasets {
		g, err := r.generateByName(name)
		if err != nil {
			return err
		}
		honest := r.largestComponent(g)
		base, err := r.slem(honest)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", name, err)
		}
		rng := rand.New(rand.NewPCG(r.cfg.Seed, 0xa77c+uint64(di)))
		var atk *sybil.Attack
		r.tr.do("sybil.NewAttack", "sybil", r.parent, func() error { atk = sybil.NewAttack(honest, honest, 1, rng); return nil })
		mg := evolve.NewMutable(atk.Combined)
		tk := evolve.NewTracker(mg, evolve.Options{Tol: r.cfg.SpectralTol, Seed: r.cfg.Seed,
			Workers: r.cfg.Workers, Eps: api.DefaultEps})
		maxAttack := max(int(honest.NumEdges()/8), 16)
		current := atk.AttackEdges
		for target := 1; target <= maxAttack; target *= 2 {
			if k := target - current; k > 0 {
				cur, _ := mg.Snapshot()
				var res evolve.Result
				t0 := time.Now()
				err := r.tr.do("evolve.Apply", "evolve", r.parent, func() (err error) {
					res, err = mg.Apply(evolve.AttackEdges(cur, honest.NumNodes(), k, rng))
					return err
				})
				r.ls.applyTime += time.Since(t0)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				current += res.Inserted
			}
			var s evolve.EpochStat
			if _, err := r.spectral("evolve.Tracker.Observe", func() (*spectral.Estimate, error) {
				var err error
				s, err = tk.Observe(r.ctx)
				return &spectral.Estimate{Mu: s.Mu, Converged: s.Converged}, err
			}); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if i >= len(rows) {
				return fmt.Errorf("artifact has %d rows, replay more", len(rows))
			}
			row := rows[i]
			i++
			if row.Dataset != name || row.AttackEdges != current || row.Mu != s.Mu || row.HonestMu != base.Mu {
				return fmt.Errorf("%s epoch %d: replay g=%d µ %v (honest %v), artifact %s g=%d µ %v (honest %v)",
					name, s.Epoch, current, s.Mu, base.Mu, row.Dataset, row.AttackEdges, row.Mu, row.HonestMu)
			}
		}
	}
	if i != len(rows) {
		return fmt.Errorf("artifact has %d rows, replay %d", len(rows), i)
	}
	return nil
}
