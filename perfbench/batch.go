package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/datasets"
	"mixtime/internal/distmix"
	"mixtime/internal/experiments"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// seedCycle is how many experiment seeds a batch run rotates through:
// pass k runs at passSeed(seed, k). Passes at one seed differ in cost
// (spectral iteration counts follow the generated graphs), so a run
// takes its median over several seeds, and seeds that come round
// again must reproduce their first pass byte for byte.
const seedCycle = 8

// minPasses is the fewest passes an untraced batch run measures: one
// at every seed of the cycle, so wall_s always averages the same
// eight inputs however many passes fit in the run.
const minPasses = seedCycle

// batchWorkload is one runner-driven workload: a fixed list of
// experiment IDs under a fixed reduced-scale configuration.
type batchWorkload struct {
	name string
	ids  []string
	cfg  runner.Config
	// pins are the artifact digests of passes 0..seedCycle-1 at the
	// default seed (api.DefaultSeed), recorded from this program; a
	// change that alters any artifact must re-pin them.
	pins [seedCycle]string
}

// d1Workload is experiment D1 at a reduced scale: every Table-1
// dataset, exact propagation against the distributed estimator.
var d1Workload = batchWorkload{
	name: "d1",
	ids:  []string{"D1"},
	cfg: runner.Config{Scale: 0.0005, Sources: 2, MaxWalk: 200,
		SpectralTol: api.DefaultSpectralTol, BlockSize: api.DefaultBlockSize},
	pins: [seedCycle]string{
		"574dc4e42a0d04b702616ba03490d5a5ed3fd37a0a5844cfec3231f1599b4849",
		"edb634f04b2d639191a1b68fd17d0b3ca3f6a1c38e04dcc312793089f83a61e9",
		"8dbe0df58345819220ca552983c623414d81517248b1c375ab78dc9666ef3807",
		"aba0f2aed3c7c0a43ac6b13e2fcb9ab1e6b112b883c22deedbdbf1c467f60c4d",
		"ff69fe28ede6f987dc8df0b9c2441d30067a565b6a6835ddb1f908eb8fce0f46",
		"611133909633014a1e2c3d7d41abba3f412aee5a94e4670c0b9320b517774d1a",
		"84d258deabf3429035b91b70bb6dc79f81f8280a74f31bb6524bd3b82c3a80d2",
		"589171218109e0a7e0ab233158087dc31a3ec66068294b6d105fda1a012603e2",
	},
}

// figsWorkload is the non-distmix artifacts: Lanczos (T1, F6), power
// iteration (X2, E2), blocked propagation (F5–F7), scalar exact
// propagation (X3), SybilLimit routes (F8) and evolve epochs (E2). Its
// SLEM tolerance is loose because at tight ones E2's near-disconnected
// power iterations dominate the pass and swing threefold by seed.
var figsWorkload = batchWorkload{
	name: "figs",
	ids:  []string{"T1", "F5", "F6", "F7", "F8", "X2", "X3", "E2"},
	cfg: runner.Config{Scale: 0.00025, Sources: 20, MaxWalk: 200,
		SpectralTol: 1e-4, BlockSize: api.DefaultBlockSize},
	pins: [seedCycle]string{
		"fb44866d1d9e7037ab4e48a579418c703855877d5f46e527403b9eb3fc8953ee",
		"0ea84f4c31a16552ba1dbe394fc7c981d671b299cf7478187ee25954a2efe805",
		"b966f0116dbf89b4da8ad3d86183b64c6f3ee7c63aae6f5ad0314e072e062494",
		"b6adc4898036e8db8dc46dc0bf1049809baa7071ea702b324dc180941490c8d1",
		"61565797e2007cbb1899e8145dcc791479bdb17e3841a1d5829700af371e915f",
		"0ae362a1e82f9a484071ddd19a267e5f7b1626ffb33f68589a2e6bbabe9a53ec",
		"1ff32a649d6e7ca8a901608dda6fc6cb2c90dc89c225763b449e8309f9084dd3",
		"5d80504c5e7dd398764375b3d1261448a63820eb9654919f26ba4a86a9d9501b",
	},
}

// passSeed is the experiment seed of pass k: the workload seed itself
// for pass 0, then golden-ratio steps.
func passSeed(seed uint64, k int) uint64 {
	return seed + uint64(k%seedCycle)*0x9e3779b97f4a7c15
}

// passResult is one untraced pass through the runner.
type passResult struct {
	wall   time.Duration
	jobs   map[string]time.Duration // runner-reported time per experiment
	digest string
	docs   map[string][]byte // artifact JSON per experiment
	failed []string
}

// runPass runs every experiment of w at seed through one runner call
// with a single job slot, as paperfigs -jobs 1 does.
func runPass(ctx context.Context, w batchWorkload, seed uint64) passResult {
	cfg := w.cfg
	cfg.Seed = seed
	t0 := time.Now()
	rep, err := (&runner.Runner{Jobs: 1}).Run(ctx, cfg, w.ids...)
	pr := passResult{wall: time.Since(t0), jobs: map[string]time.Duration{}, docs: map[string][]byte{}}
	if rep == nil {
		pr.failed = append(pr.failed, fmt.Sprintf("runner: %v", err))
		return pr
	}
	for _, e := range rep.Experiments {
		pr.jobs[e.ID] = e.Elapsed
		if e.Err != nil || e.Result == nil {
			pr.failed = append(pr.failed, fmt.Sprintf("%s: %v", e.ID, e.Err))
			continue
		}
		var buf bytes.Buffer
		if err := e.Result.JSON(&buf); err != nil {
			pr.failed = append(pr.failed, fmt.Sprintf("%s: encode: %v", e.ID, err))
			continue
		}
		pr.docs[e.ID] = buf.Bytes()
	}
	pr.digest = digestDocs(w.ids, pr.docs)
	return pr
}

// digestDocs hashes the artifacts of one pass in experiment order.
func digestDocs(ids []string, docs map[string][]byte) string {
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s %d\n", id, len(docs[id]))
		h.Write(docs[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestStore remembers each (code, workload, configuration, seed)
// pass digest across runs in the state directory, so a seed must
// reproduce itself from run to run as well as within one. The code
// identity keeps a change that legitimately alters an artifact from
// being held to the digests of the code before it; a fresh state
// directory has nothing to compare across runs.
type digestStore struct {
	path  string
	code  string
	known map[string]string
	added []string
}

func openDigestStore(dir, code string) (*digestStore, error) {
	s := &digestStore{path: filepath.Join(dir, "digests.txt"), code: code, known: map[string]string{}}
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			s.known[k] = v
		}
	}
	return s, sc.Err()
}

// check compares digest with the one recorded for key under this
// store's code identity, recording it when new. It returns the earlier
// digest on a mismatch.
func (s *digestStore) check(key, digest string) (string, bool) {
	key = s.code + "|" + key
	if prev, ok := s.known[key]; ok {
		return prev, prev == digest
	}
	s.known[key] = digest
	s.added = append(s.added, key+" "+digest)
	return "", true
}

// codeID identifies the code a run measures: the sha256 of this
// executable, which is built from the checkout with the program
// linked in.
func codeID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func (s *digestStore) save() error {
	if len(s.added) == 0 {
		return nil
	}
	f, err := os.OpenFile(s.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, line := range s.added {
		fmt.Fprintln(f, line)
	}
	return f.Close()
}

// checkPass applies every artifact check to one pass: the pinned
// digest at the default seed, and reproduction of any earlier pass at
// the same experiment seed.
func checkPass(rep *report, store *digestStore, w batchWorkload, seed uint64, k int, pr passResult) {
	for _, f := range pr.failed {
		rep.mismatch("%s pass %d: %s", w.name, k, f)
	}
	if len(pr.failed) > 0 {
		return
	}
	if seed == api.DefaultSeed && pr.digest != w.pins[k%seedCycle] {
		rep.mismatch("%s pass %d (seed %d): artifact digest %.16s, pinned %.16s",
			w.name, k, seed, pr.digest, w.pins[k%seedCycle])
	}
	cfg := w.cfg
	key := fmt.Sprintf("%s|%d|scale=%v|sources=%d|maxwalk=%d|tol=%v|block=%d",
		w.name, passSeed(seed, k), cfg.Scale, cfg.Sources, cfg.MaxWalk, cfg.SpectralTol, cfg.BlockSize)
	if prev, ok := store.check(key, pr.digest); !ok {
		rep.mismatch("%s pass %d: artifact digest %.16s, earlier pass at this seed gave %.16s",
			w.name, k, pr.digest, prev)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s pass %d seed %d: %.2fs digest %s\n",
		w.name, k, passSeed(seed, k), pr.wall.Seconds(), pr.digest)
}

// passLoop runs passes until budget is spent (predicting the next
// pass from the median so far) and at least min have run, or until a
// pass fails to run at all.
func passLoop(budget time.Duration, min int, pass func(k int) (time.Duration, error)) ([]float64, error) {
	var walls []float64
	t0 := time.Now()
	for k := 0; ; k++ {
		if k >= min && time.Since(t0)+time.Duration(median(walls)*float64(time.Second)) > budget {
			return walls, nil
		}
		d, err := pass(k)
		if err != nil {
			return walls, err
		}
		walls = append(walls, d.Seconds())
	}
}

// runBatch runs a batch workload, untraced or traced.
func runBatch(ctx context.Context, w batchWorkload, o options) (*report, error) {
	code, err := codeID()
	if err != nil {
		return nil, err
	}
	store, err := openDigestStore(o.stateDir, code)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if o.trace {
		err = tracedBatch(ctx, w, o, rep, store)
	} else {
		err = untracedBatch(w, o, rep, store)
	}
	if err != nil {
		return nil, err
	}
	return rep, store.save()
}

// untracedBatch runs each pass in a fresh process, as a user running
// paperfigs would, so every pass pays its own set-up and has its own
// peak resident set.
func untracedBatch(w batchWorkload, o options, rep *report, store *digestStore) error {
	var setups, rss, procs []float64
	jobs := map[string][]float64{}
	okJobs := 0
	walls, err := passLoop(o.seconds, minPasses, func(k int) (time.Duration, error) {
		rep.attempted += len(w.ids)
		t0 := time.Now()
		pr, ready, peak, err := spawnPass(w.name, passSeed(o.seed, k))
		procs = append(procs, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		okJobs += len(w.ids) - len(pr.failed)
		checkPass(rep, store, w, o.seed, k, pr)
		setups = append(setups, ready.Seconds())
		rss = append(rss, peak)
		for id, d := range pr.jobs {
			jobs[id] = append(jobs[id], d.Seconds())
		}
		return pr.wall, nil
	})
	if err != nil {
		return err
	}
	rep.add(kindE2E, "setup_s", "s", median(setups))
	rep.add(kindE2E, "wall_s", "s", seedMean(walls))
	rep.add(kindInfo, "pass_median_s", "s", median(walls))
	// Jobs per second of a pass process, start-up and exit included,
	// over the same evenly weighted seeds as wall_s.
	rep.add(kindE2E, "ops_per_s", "1/s", float64(okJobs)/float64(len(procs))/seedMean(procs))
	rep.add(kindE2E, "peak_rss_mib", "MiB", median(rss))
	rep.add(kindInfo, "passes", "count", float64(len(walls)))
	for _, id := range w.ids {
		rep.add(kindInfo, "runner."+id+"_s", "s", median(jobs[id]))
	}
	return nil
}

// layerSums accumulates one traced phase's per-layer numbers.
type layerSums struct {
	passes                 int
	spectral, markov, dist *telemetry.Collector
	estimates, converged   int
	stepsTotal, stepsAfter int64
	slemTime, traceTime    time.Duration
	distTime               time.Duration
	// slemTime, traceTime, distTime, componentTime and applyTime
	// cover timedPasses passes; generateTime covers genReplays replays
	// of the workload's graph generation.
	timedPasses   int
	componentTime time.Duration
	applyTime     time.Duration
	generateTime  time.Duration
	genReplays    int
}

func newLayerSums() *layerSums {
	return &layerSums{spectral: telemetry.New(), markov: telemetry.New(), dist: telemetry.New()}
}

// countSteps adds a trace's propagated steps, and those after its
// first crossing of eps, to the totals.
func (ls *layerSums) countSteps(tr *markov.Trace, eps float64) {
	ls.stepsTotal += int64(len(tr.TV))
	if t, ok := tr.MixingTime(eps); ok {
		ls.stepsAfter += int64(len(tr.TV) - t)
	}
}

// tracedBatch measures untraced passes for half the time, then traced
// passes at the same experiment seeds for the other half, and reports
// the per-layer metrics.
func tracedBatch(ctx context.Context, w batchWorkload, o options, rep *report, store *digestStore) error {
	half := o.seconds / 2
	untraced := map[int]passResult{}
	jobs := map[string][]float64{}
	plain, _ := passLoop(half, 1, func(k int) (time.Duration, error) {
		pr := runPass(ctx, w, passSeed(o.seed, k))
		rep.attempted += len(w.ids)
		checkPass(rep, store, w, o.seed, k, pr)
		untraced[k] = pr
		for id, d := range pr.jobs {
			jobs[id] = append(jobs[id], d.Seconds())
		}
		return pr.wall, nil
	})
	for _, id := range w.ids {
		rep.add(kindInfo, "runner."+id+"_s", "s", median(jobs[id]))
	}

	tr := newTracer()
	ls := newLayerSums()
	root := tr.begin("traced", "bench", -1)
	var traced []float64
	var err error
	switch w.name {
	case d1Workload.name:
		compared := 0
		traced, err = tracedD1(ctx, w, o, rep, tr, root, ls, untraced, &compared)
		if compared == 0 {
			rep.mismatch("d1 replay parity: no replayed pass had an untraced artifact to compare")
		}
		rep.add(kindInfo, "d1.parity_passes", "count", float64(compared))
	default:
		traced, err = tracedFigs(ctx, w, o, rep, store, tr, root, ls)
	}
	tr.end(root)
	if err != nil {
		return err
	}
	wall := tr.duration(root)

	n := float64(ls.passes)
	tp := float64(ls.timedPasses)
	spec, mk, dm := ls.spectral.Snapshot(), ls.markov.Snapshot(), ls.dist.Snapshot()
	rep.add(kindLayer, "datasets.generate_s", "s", ratio(ls.generateTime.Seconds(), float64(ls.genReplays)))
	rep.add(kindLayer, "graph.components_s", "s", ratio(ls.componentTime.Seconds(), tp))
	rep.add(kindLayer, "spectral.slem_s", "s", ratio(ls.slemTime.Seconds(), tp))
	rep.add(kindLayer, "spectral.matvecs", "count", float64(spec.Get(telemetry.Matvecs))/n)
	rep.add(kindLayer, "spectral.iterations", "count",
		float64(spec.Get(telemetry.PowerIterations)+spec.Get(telemetry.LanczosIterations))/n)
	rep.add(kindLayer, "spectral.converged_frac", "frac", ratio(float64(ls.converged), float64(ls.estimates)))
	rep.add(kindLayer, "markov.trace_s", "s", ratio(ls.traceTime.Seconds(), tp))
	rep.add(kindLayer, "markov.edges_scanned", "count", float64(mk.Get(telemetry.EdgesScanned))/n)
	rep.add(kindLayer, "markov.source_steps", "count", float64(mk.Get(telemetry.SourceSteps))/n)
	rep.add(kindLayer, "markov.steps_after_mixed_frac", "frac", ratio(float64(ls.stepsAfter), float64(ls.stepsTotal)))
	layerTime := ls.generateTime + ls.componentTime + ls.slemTime + ls.traceTime + ls.distTime + ls.applyTime
	rep.add(kindLayer, "distmix.share", "frac", ratio(ls.distTime.Seconds(), layerTime.Seconds()))
	msgs := float64(dm.Get(telemetry.DistMessages))
	rep.add(kindLayer, "distmix.rounds", "count", float64(dm.Get(telemetry.DistRounds))/n)
	rep.add(kindLayer, "distmix.messages", "count", msgs/n)
	rep.add(kindLayer, "distmix.offshard_frac", "frac", ratio(float64(dm.Get(telemetry.DistOffShardMessages)), msgs))
	rep.add(kindLayer, "evolve.epochs", "count", float64(mk.Get(telemetry.EvolveEpochs))/n)
	for _, name := range []string{"solves", "hits", "joins", "shed", "evictions"} {
		rep.add(kindLayer, "service."+name, "count", 0)
	}
	rep.add(kindLayer, "service.solve_efficiency", "frac", 0)
	rep.add(kindLayer, "trace.coverage", "frac", tr.coverage(wall))
	rep.add(kindLayer, "trace.overhead_frac", "frac", ratio(median(traced), median(plain))-1)

	rep.add(kindInfo, "distmix.estimate_s", "s", ratio(ls.distTime.Seconds(), tp))
	rep.add(kindInfo, "evolve.apply_s", "s", ratio(ls.applyTime.Seconds(), tp))
	rep.add(kindInfo, "distmix.msgs_per_s", "1/s", ratio(msgs, ls.distTime.Seconds()))
	for layer, d := range tr.layerSelf() {
		if layer != "bench" {
			rep.add(kindInfo, "share."+layer, "frac", ratio(d.Seconds(), wall.Seconds()))
		}
	}
	return nil
}

// d1MaxSources mirrors the D1 driver's per-dataset source cap.
const d1MaxSources = 8

// tracedD1 replays D1's call chain per dataset — datasets.Generate,
// spectral.SLEMContext, graph.IsBipartite, markov.New plus TraceUntil
// per source, distmix.EstimateMixingTime — with a span around each
// call, and checks that the replay reproduces the D1 artifact of the
// untraced pass at the same seed.
func tracedD1(ctx context.Context, w batchWorkload, o options, rep *report, tr *tracer, root int,
	ls *layerSums, untraced map[int]passResult, compared *int) ([]float64, error) {
	return passLoop(o.seconds-o.seconds/2, 1, func(k int) (time.Duration, error) {
		cfg := w.cfg.WithDefaults()
		cfg.Seed = passSeed(o.seed, k)
		rep.attempted++
		t0 := time.Now()
		pass := tr.begin(fmt.Sprintf("d1.pass%d", k), "bench", root)
		rows, err := replayD1(ctx, cfg, tr, pass, ls)
		tr.end(pass)
		wall := time.Since(t0)
		ls.passes++
		ls.timedPasses++
		ls.genReplays++
		if err != nil {
			rep.mismatch("d1 replay pass %d: %v", k, err)
			return wall, nil
		}
		if pr, ok := untraced[k]; ok && pr.docs["D1"] != nil {
			*compared++
			if err := d1Parity(pr.docs["D1"], rows); err != nil {
				rep.mismatch("d1 replay parity, pass %d: %v", k, err)
			}
		}
		return wall, nil
	})
}

func replayD1(ctx context.Context, cfg runner.Config, tr *tracer, pass int, ls *layerSums) ([]experiments.DistMixRow, error) {
	eps := api.DefaultEps
	var rows []experiments.DistMixRow
	for _, d := range datasets.All() {
		ds := tr.begin(d.Name, "bench", pass)
		row, err := replayD1Dataset(ctx, cfg, &replayer{ctx: ctx, cfg: cfg, tr: tr, parent: ds, ls: ls,
			spectralCol: ls.spectral}, d, eps)
		tr.end(ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func replayD1Dataset(ctx context.Context, cfg runner.Config, r *replayer, d datasets.Dataset, eps float64) (experiments.DistMixRow, error) {
	g := r.generate(d)
	if _, err := r.slem(g); err != nil {
		return experiments.DistMixRow{}, err
	}
	k := min(cfg.Sources, d1MaxSources)
	sources := markov.SampleSources(g, k, rand.New(rand.NewPCG(cfg.Seed, 0xc0fe)))
	opts := []markov.Option{markov.WithCollector(r.ls.markov)}
	var bipartite bool
	r.component("graph.IsBipartite", func() { bipartite = graph.IsBipartite(g) })
	if bipartite {
		opts = append(opts, markov.Lazy())
	}
	tauExact := 0
	t0 := time.Now()
	err := r.tr.do("markov.TraceUntil", "markov", r.parent, func() error {
		chain, err := markov.New(g, opts...)
		if err != nil {
			return err
		}
		for _, s := range sources {
			trace, ok := chain.TraceUntil(s, eps, cfg.MaxWalk)
			t := len(trace.TV)
			if ok {
				t, _ = trace.MixingTime(eps)
			}
			tauExact = max(tauExact, t)
			r.ls.countSteps(trace, eps)
		}
		return nil
	})
	r.ls.traceTime += time.Since(t0)
	if err != nil {
		return experiments.DistMixRow{}, err
	}

	var res *distmix.Result
	t0 = time.Now()
	err = r.tr.do("distmix.EstimateMixingTime", "distmix", r.parent, func() (err error) {
		res, err = distmix.EstimateMixingTime(ctx, g, distmix.Options{
			Shards: api.DefaultDistShards, WalksPerNode: api.DefaultDistWalks, MaxRounds: cfg.MaxWalk,
			Eps: eps, SourceList: sources, Seed: cfg.Seed, Collector: r.ls.dist})
		return err
	})
	r.ls.distTime += time.Since(t0)
	if err != nil {
		return experiments.DistMixRow{}, err
	}
	return experiments.DistMixRow{Dataset: d.Name, TauExact: tauExact,
		TauEst: res.Tau, Messages: res.Stats.Messages}, nil
}

// d1Parity compares the replay with the D1 artifact, row by row, on
// tau_exact, tau_est and messages.
func d1Parity(doc []byte, rows []experiments.DistMixRow) error {
	var art []experiments.DistMixRow
	if err := decodeRows(doc, &art); err != nil {
		return err
	}
	if len(art) != len(rows) {
		return fmt.Errorf("artifact has %d rows, replay %d", len(art), len(rows))
	}
	for i, a := range art {
		r := rows[i]
		if a.Dataset != r.Dataset || a.TauExact != r.TauExact || a.TauEst != r.TauEst || a.Messages != r.Messages {
			return fmt.Errorf("%s: artifact tau_exact=%d tau_est=%d messages=%d, replay %s tau_exact=%d tau_est=%d messages=%d",
				a.Dataset, a.TauExact, a.TauEst, a.Messages, r.Dataset, r.TauExact, r.TauEst, r.Messages)
		}
	}
	return nil
}

// tracedFigs runs each figs experiment through its own runner call
// with a span around it and a telemetry collector attached. After the
// first pass it replays that pass's layer calls (replayFigs), which
// supply the per-layer times: the runner path cannot split them.
func tracedFigs(ctx context.Context, w batchWorkload, o options, rep *report, store *digestStore,
	tr *tracer, root int, ls *layerSums) ([]float64, error) {
	perID := map[string]time.Duration{}
	walls, err := passLoop(o.seconds-o.seconds/2, 1, func(k int) (time.Duration, error) {
		cfg := w.cfg
		cfg.Seed = passSeed(o.seed, k)
		cfg.Collector = ls.markov // one collector per traced phase: the runner path cannot split layers
		pr := passResult{jobs: map[string]time.Duration{}, docs: map[string][]byte{}}
		pass := tr.begin(fmt.Sprintf("figs.pass%d", k), "bench", root)
		t0 := time.Now()
		for _, id := range w.ids {
			rep.attempted++
			sp := tr.begin("runner."+id, "runner", pass)
			t1 := time.Now()
			r, err := (&runner.Runner{Jobs: 1}).Run(ctx, cfg, id)
			perID[id] += time.Since(t1)
			tr.end(sp)
			if err != nil || r == nil || r.Experiments[0].Result == nil {
				pr.failed = append(pr.failed, fmt.Sprintf("%s: %v", id, err))
				continue
			}
			e := r.Experiments[0]
			if e.Telemetry != nil {
				recordCoreTimers(tr, sp, *e.Telemetry, nil)
			}
			var buf bytes.Buffer
			if err := e.Result.JSON(&buf); err != nil {
				pr.failed = append(pr.failed, fmt.Sprintf("%s: encode: %v", id, err))
				continue
			}
			pr.docs[id] = buf.Bytes()
		}
		tr.end(pass)
		pr.wall = time.Since(t0)
		pr.digest = digestDocs(w.ids, pr.docs)
		checkPass(rep, store, w, o.seed, k, pr)
		ls.passes++
		if k == 0 && len(pr.failed) == 0 {
			ls.timedPasses++
			for _, err := range replayFigs(ctx, w, cfg.Seed, pr.docs, tr, root, ls) {
				rep.mismatch("figs %v", err)
			}
		}
		return pr.wall, nil
	})
	// The counters of the shared collector serve both the spectral and
	// the markov rows on this workload.
	ls.spectral = ls.markov
	for _, id := range w.ids {
		rep.add(kindInfo, "traced.runner."+id+"_s", "s", perID[id].Seconds()/float64(len(walls)))
	}
	return walls, err
}

// recordCoreTimers turns core's existing "spectral" and "sampling"
// stage timers into child spans of parent, adding them to the layer
// sums when ls is non-nil.
func recordCoreTimers(tr *tracer, parent int, snap telemetry.Snapshot, ls *layerSums) {
	for _, st := range snap.Timers {
		d := time.Duration(st.Nanos)
		switch st.Stage {
		case "spectral":
			tr.record("core.spectral", "spectral", parent, d)
			if ls != nil {
				ls.slemTime += d
			}
		case "sampling":
			tr.record("core.sampling", "markov", parent, d)
			if ls != nil {
				ls.traceTime += d
			}
		}
	}
}
