package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/core"
	"mixtime/internal/datasets"
	"mixtime/internal/distmix"
	"mixtime/internal/evolve"
	"mixtime/internal/graph"
	"mixtime/internal/spectral"
	"mixtime/internal/telemetry"
)

// The served registry: two immutable Table-1 graphs for the read
// stream and one mid-size mutable graph for the write stream.
var (
	serveGraphs  = [2]string{"dblp", "facebook-A"}
	mutableGraph = "slashdot-1"
)

const (
	serveScale = 0.005
	// serveGraphSeed generates the served graphs. It is fixed, like a
	// daemon's registry: the workload seed drives the traffic, and a
	// graph drawn per seed would swing the cost of every solve (dblp's
	// Lanczos iterations vary twofold between draws).
	serveGraphSeed = api.DefaultSeed
	servePool      = 2
	// writeEvery is the open-loop write rate; writeGrow the edges each
	// write inserts.
	writeEvery = 500 * time.Millisecond
	writeGrow  = 4
	// writeQuerySeed is the SLEM seed each write's re-query uses.
	writeQuerySeed = 1
	// requestTimeout bounds every request; one that runs out counts as
	// failed.
	requestTimeout = 60 * time.Second
	minRounds      = 3
)

// daemon is one running mixtimed child.
type daemon struct {
	cmd      *exec.Cmd
	exited   chan error // receives the Wait result once
	addrFile string
	base     string
	setup    time.Duration
}

// startDaemon starts mixtimed and waits until /healthz answers; setup
// is the time from process start until then, which covers dataset
// generation (with its largest-component step), the
// registry's connectivity check and graph hashing.
func startDaemon(o options, i int) (*daemon, error) {
	addrFile := filepath.Join(o.stateDir, fmt.Sprintf("mixtimed-%d-%d.addr", os.Getpid(), i))
	os.Remove(addrFile)
	bin, err := filepath.Abs(filepath.Join(o.binDir, "mixtimed"))
	if err != nil {
		return nil, err
	}
	names := strings.Join(append(serveGraphs[:], mutableGraph), ",")
	cmd := exec.Command(bin, "-datasets", names, "-mutable", mutableGraph,
		"-scale", fmt.Sprint(serveScale), "-seed", fmt.Sprint(serveGraphSeed),
		"-pool", fmt.Sprint(servePool), "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-grace", "2s")
	d := &daemon{cmd: cmd, exited: make(chan error, 1), addrFile: addrFile}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mixtimed: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-d.exited:
			os.Remove(addrFile)
			return nil, fmt.Errorf("mixtimed exited during set-up: %v", err)
		default:
		}
		if time.Since(t0) > time.Minute {
			d.kill()
			return nil, errors.New("mixtimed not ready within a minute")
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if res, err := hc.Get(d.base + "/healthz"); err == nil {
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					d.setup = time.Since(t0)
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	os.Remove(d.addrFile)
}

// stop asks the daemon to shut down gracefully, killing it if it has
// not exited within a few seconds, and waits for it.
func (d *daemon) stop() error {
	defer os.Remove(d.addrFile)
	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		d.cmd.Process.Kill()
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("mixtimed ignored SIGINT for 5s; killed")
	}
}

func newAPIClient(base string) *api.Client {
	c := api.NewClient(base)
	c.HTTPClient = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   requestTimeout,
	}
	return c
}

// readRecord is one completed read.
type readRecord struct {
	read
	Latency time.Duration
	Server  time.Duration // the daemon's elapsed_ns
	Err     error
	Mu      float64 // SLEM µ of slem answers
}

// writeRecord is one write: a mutation, then a query of the new
// version.
type writeRecord struct {
	I       int
	Seed    uint64
	Due     time.Time
	Sent    time.Time
	Done    time.Time
	Applied bool // the mutation is known to have been applied
	Version uint64
	Added   int
	Mu      float64
	Err     error
}

// payload is a response's answer with the per-request envelope fields
// (elapsed time, cache-hit flag) cleared, for byte comparison.
func payload(resp *api.Response) ([]byte, error) {
	c := *resp
	c.ElapsedNS = 0
	c.CacheHit = false
	return json.Marshal(&c)
}

// classify checks one read's outcome, returning its failure reason or
// "". A refused or failed request (429 shed, 503 draining, a timeout,
// any transport error) is a failure whatever its class.
func classify(err error, resp *api.Response) string {
	var se *api.StatusError
	switch {
	case err == nil && resp != nil && resp.Error == "":
		return ""
	case errors.As(err, &se):
		return fmt.Sprintf("HTTP %d: %s", se.StatusCode, se.Msg)
	case errors.Is(err, context.DeadlineExceeded):
		return "timed out"
	case err != nil:
		return err.Error()
	default:
		return "empty answer"
	}
}

// traffic is the state of one run's two load streams.
type traffic struct {
	reads  []readRecord
	writes []writeRecord
	rounds []float64 // seconds per round
	// split is the index of the first traced round (len(rounds) when
	// the run is untraced).
	split int
	first map[string][]byte // first answer per request key
	tr    *tracer
	root  int
}

// readLoop runs whole rounds of the closed-loop read stream until
// budget is spent; traced rounds record a span per request.
func (t *traffic) readLoop(ctx context.Context, c *api.Client, gen *generator, budget time.Duration, traced bool, rep *report) {
	t0 := time.Now()
	for n := 0; ; n++ {
		if n >= minRounds && time.Since(t0)+time.Duration(median(t.rounds[t.split:])*float64(time.Second)) > budget {
			return
		}
		r := len(t.rounds)
		start := time.Now()
		for _, rd := range gen.round(r) {
			t.doRead(ctx, c, rd, traced, rep)
		}
		t.rounds = append(t.rounds, time.Since(start).Seconds())
	}
}

func (t *traffic) doRead(ctx context.Context, c *api.Client, rd read, traced bool, rep *report) {
	rep.attempted++
	qctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	sp := -1
	if traced {
		sp = t.tr.begin("api.Query", "api", t.root)
	}
	t0 := time.Now()
	resp, err := c.Query(qctx, rd.Req)
	rec := readRecord{read: rd, Latency: time.Since(t0)}
	if traced {
		t.tr.end(sp)
	}
	if why := classify(err, resp); why != "" {
		rec.Err = errors.New(why)
		rep.mismatch("read %s %s on %s: %s", rd.Class, rd.Req.Op, rd.Req.Graph, why)
		t.reads = append(t.reads, rec)
		return
	}
	rec.Server = time.Duration(resp.ElapsedNS)
	if traced {
		t.tr.record("service.handleQuery", "service", sp, rec.Server)
	}
	if resp.SLEM != nil {
		rec.Mu = resp.SLEM.Mu
	}
	body, err := payload(resp)
	if err != nil {
		rep.mismatch("encode answer: %v", err)
	} else if prev, ok := t.first[rd.Key]; !ok {
		t.first[rd.Key] = body
	} else if string(prev) != string(body) {
		rep.mismatch("repeat of %s on %s (seed %d) answered differently from its first answer",
			rd.Req.Op, rd.Req.Graph, rd.Req.Params.Seed)
	}
	t.reads = append(t.reads, rec)
}

// writeLoop sends one write every writeEvery from t0 until stop is
// closed, each timed from its due time: POST /v1/mutate, then a slem
// query of the version the mutation produced.
func (t *traffic) writeLoop(ctx context.Context, c *api.Client, seed uint64, t0 time.Time, stop <-chan struct{}) {
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * writeEvery)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		w := writeRecord{I: i, Seed: seed + uint64(i) + 1, Due: due, Sent: time.Now()}
		mctx, cancel := context.WithTimeout(ctx, requestTimeout)
		mres, err := c.Mutate(mctx, api.MutateRequest{Graph: mutableGraph, Grow: writeGrow, Seed: w.Seed})
		cancel()
		var se *api.StatusError
		switch {
		case err == nil:
			w.Applied, w.Version, w.Added = true, mres.Version, mres.Inserted
			qctx, cancel := context.WithTimeout(ctx, requestTimeout)
			resp, qerr := c.Query(qctx, api.Request{Op: api.OpSLEM, Graph: mutableGraph,
				Params: api.Params{Seed: writeQuerySeed}})
			cancel()
			if why := classify(qerr, resp); why != "" {
				w.Err = errors.New(why)
			} else {
				w.Mu = resp.SLEM.Mu
			}
		case errors.As(err, &se) && (se.StatusCode == http.StatusTooManyRequests || se.StatusCode == http.StatusServiceUnavailable):
			w.Err = err // refused: provably not applied
		default:
			w.Err = fmt.Errorf("mutation state unknown: %w", err)
		}
		w.Done = time.Now()
		t.writes = append(t.writes, w)
	}
}

// served is the benchmark's own copy of one served graph.
type served struct {
	name string
	g    *graph.Graph
}

// hashGraph is the daemon's graph content identity: sha256 over the
// node count and the edge list.
func hashGraph(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.NumNodes()))
	h.Write(buf[:])
	g.Edges(func(u, v graph.NodeID) bool {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		h.Write(buf[:])
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// runServe runs the serve workload.
func runServe(ctx context.Context, o options) (*report, error) {
	rep := &report{}
	var setups []float64
	var d *daemon
	for i := 0; i < setupSpawns; i++ {
		var err error
		if d, err = startDaemon(o, i); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		if i < setupSpawns-1 {
			d.kill()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	// The benchmark's own copies of the served graphs, generated and
	// registered the way the daemon's registry does (the connectivity
	// check, and the largest component only of a disconnected graph)
	// and checked against its hashes.
	graphs := map[string]*graph.Graph{}
	var genTime, componentTime time.Duration
	for _, name := range append(serveGraphs[:], mutableGraph) {
		ds, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		g := ds.Generate(serveScale, serveGraphSeed)
		genTime += time.Since(t0)
		t0 = time.Now()
		if !graph.IsConnected(g) {
			g, _ = graph.LargestComponent(g)
		}
		componentTime += time.Since(t0)
		graphs[name] = g
	}
	rc, wc := newAPIClient(d.base), newAPIClient(d.base)
	list, err := rc.Graphs(ctx)
	if err != nil {
		return nil, err
	}
	for _, gi := range list.Graphs {
		g, ok := graphs[gi.Name]
		if !ok {
			return nil, fmt.Errorf("daemon serves unexpected graph %q", gi.Name)
		}
		if base, _, _ := strings.Cut(gi.Hash, "@"); base != hashGraph(g) {
			return nil, fmt.Errorf("graph %s: daemon hash %.16s differs from the benchmark's copy", gi.Name, gi.Hash)
		}
	}
	before, err := rc.Stats(ctx)
	if err != nil {
		return nil, err
	}

	t := &traffic{first: map[string][]byte{}}
	gen := newGenerator(o.seed, serveGraphs)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		t.writeLoop(ctx, wc, o.seed<<20, t0, stop)
	}()
	if o.trace {
		t.readLoop(ctx, rc, gen, o.seconds/2, false, rep)
		t.split = len(t.rounds)
		t.tr = newTracer()
		t.root = t.tr.begin("traced", "bench", -1)
		t.readLoop(ctx, rc, gen, o.seconds-o.seconds/2, true, rep)
	} else {
		t.readLoop(ctx, rc, gen, o.seconds, false, rep)
		t.split = len(t.rounds)
	}
	readTime := time.Since(t0)
	close(stop)
	wg.Wait()
	after, err := rc.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: mixtimed shutdown:", err)
	}

	rep.attempted += len(t.writes)
	for _, w := range t.writes {
		if w.Err != nil {
			rep.mismatch("write %d: %v", w.I, w.Err)
		}
	}
	v := newVerifier(ctx, graphs, rep, t.tr, t.root)
	v.checkReads(t.reads)
	v.checkWrites(t.writes)
	if o.trace {
		v.replay(t.reads)
	}
	v.wait()

	okReads := 0
	for _, r := range t.reads {
		if r.Err == nil {
			okReads++
		}
	}
	rep.add(kindE2E, "setup_s", "s", median(setups))
	rep.add(kindE2E, "wall_s", "s", mean(t.rounds[:t.split]))
	rep.add(kindInfo, "round_median_s", "s", median(t.rounds[:t.split]))
	rep.add(kindE2E, "ops_per_s", "1/s", float64(okReads)/readTime.Seconds())
	rep.add(kindE2E, "peak_rss_mib", "MiB", rss)
	latencyMetrics(rep, t)
	rep.add(kindInfo, "rounds", "count", float64(len(t.rounds)))
	if o.trace {
		serveLayers(rep, t, v, before, after, genTime, componentTime)
	}
	return rep, nil
}

// latencyMetrics adds the per-class read latencies, the write
// latencies and the generator's lag to the detail table. A failed
// request enters as +Inf, beyond any limit.
func latencyMetrics(rep *report, t *traffic) {
	byClass := map[string][]float64{}
	for _, r := range t.reads {
		ms := math.Inf(1)
		if r.Err == nil {
			ms = float64(r.Latency) / 1e6
		}
		byClass[r.Class] = append(byClass[r.Class], ms)
	}
	var writes, lag []float64
	for _, w := range t.writes {
		ms := math.Inf(1)
		if w.Err == nil {
			ms = float64(w.Done.Sub(w.Due)) / 1e6
		}
		writes = append(writes, ms)
		lag = append(lag, float64(w.Sent.Sub(w.Due))/1e6)
	}
	byClass["write"] = writes
	roundShares(rep, t)
	named := []struct {
		class string
		ps    []float64
	}{
		{classRepeat, []float64{50, 99}},
		{classVariant, []float64{50, 90}},
		{classFresh, []float64{50, 90}},
		{"write", []float64{50, 90}},
	}
	for _, n := range named {
		s := byClass[n.class]
		rep.add(kindInfo, n.class+"_count", "count", float64(len(s)))
		for _, p := range n.ps {
			v, err := percentile(s, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s_p%g_ms: %v\n", n.class, p, err)
				if tp := tailPercentile(len(s)); tp > 0 && tp < p && tp != n.ps[0] {
					tv, _ := percentile(s, tp)
					rep.add(kindInfo, fmt.Sprintf("%s_p%g_ms", n.class, tp), "ms", tv)
				}
				continue
			}
			rep.add(kindInfo, fmt.Sprintf("%s_p%g_ms", n.class, p), "ms", v)
		}
	}
	maxLag := 0.0
	for _, l := range lag {
		maxLag = math.Max(maxLag, l)
	}
	rep.add(kindInfo, "gen.lag_max_ms", "ms", maxLag)
	if tp := tailPercentile(len(lag)); tp > 0 {
		v, _ := percentile(lag, tp)
		rep.add(kindInfo, fmt.Sprintf("gen.lag_p%g_ms", tp), "ms", v)
	}
}

// roundShares adds each read class's share of the read stream's time
// to the detail table, and each op's share within the fresh class,
// so a claim on serve can be judged class by class. The class mix is
// a chosen assumption (see README.md), and these shares say how much
// of wall_s and ops_per_s each part of it carries.
func roundShares(rep *report, t *traffic) {
	total := 0.0
	for _, r := range t.rounds {
		total += r
	}
	shares := map[string]float64{}
	for _, r := range t.reads {
		shares[r.Class] += r.Latency.Seconds()
		if r.Class == classFresh {
			shares[classFresh+"_"+r.Req.Op] += r.Latency.Seconds()
		}
	}
	names := append([]string(nil), classes...)
	for _, op := range []string{api.OpSLEM, api.OpBounds, api.OpCDF, api.OpDistMix} {
		names = append(names, classFresh+"_"+op)
	}
	for _, n := range names {
		rep.add(kindInfo, n+"_round_frac", "frac", ratio(shares[n], total))
	}
}

// verifier checks the daemon's answers against direct calls into the
// program's layers, after the traffic has stopped, on two workers.
type verifier struct {
	ctx    context.Context
	graphs map[string]*graph.Graph
	rep    *report
	mu     sync.Mutex // guards rep and the sums below
	sem    chan struct{}
	wg     sync.WaitGroup
	// tr, when set, records a span around every direct call; calls
	// then run one at a time so spans never overlap.
	tr   *tracer
	root int

	// Direct-call layer sums (traced runs).
	spectralCol, markovCol, distCol *telemetry.Collector
	slemTime, traceTime, distTime   time.Duration
	applyTime                       time.Duration
	estimates, converged            int
	stepsTotal, stepsAfter          int64
}

func newVerifier(ctx context.Context, graphs map[string]*graph.Graph, rep *report, tr *tracer, root int) *verifier {
	workers := 2
	if tr != nil {
		workers = 1
	}
	return &verifier{ctx: ctx, graphs: graphs, rep: rep, sem: make(chan struct{}, workers),
		tr: tr, root: root, spectralCol: telemetry.New(), markovCol: telemetry.New(), distCol: telemetry.New()}
}

// span opens a span when tracing and returns its closer.
func (v *verifier) span(name, layer string) func() {
	if v.tr == nil {
		return func() {}
	}
	id := v.tr.begin(name, layer, v.root)
	return func() { v.tr.end(id) }
}

func (v *verifier) goDo(fn func()) {
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		v.sem <- struct{}{}
		defer func() { <-v.sem }()
		fn()
	}()
}

func (v *verifier) wait() { v.wg.Wait() }

func (v *verifier) fail(format string, args ...any) {
	v.mu.Lock()
	v.rep.mismatch(format, args...)
	v.mu.Unlock()
}

// slem solves the SLEM of g at seed directly, recording layer sums.
func (v *verifier) slem(g *graph.Graph, seed uint64) (*spectral.Estimate, error) {
	end := v.span("spectral.SLEMContext", "spectral")
	t0 := time.Now()
	est, err := spectral.SLEMContext(v.ctx, g, spectral.Options{Tol: api.DefaultSpectralTol, Seed: seed,
		Collector: v.spectralCol})
	d := time.Since(t0)
	end()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.slemTime += d
	if err == nil {
		v.estimates++
		if est.Converged {
			v.converged++
		}
	}
	return est, err
}

// checkReads holds every slem answer on an immutable graph to a direct
// spectral.SLEMContext call on the same graph and seed.
func (v *verifier) checkReads(reads []readRecord) {
	type key struct {
		graph string
		seed  uint64
	}
	answers := map[key][]float64{}
	for _, r := range reads {
		if r.Err == nil && r.Req.Op == api.OpSLEM {
			k := key{r.Req.Graph, r.Req.Params.Seed}
			answers[k] = append(answers[k], r.Mu)
		}
	}
	for k, mus := range answers {
		v.goDo(func() {
			est, err := v.slem(v.graphs[k.graph], k.seed)
			if err != nil {
				v.fail("direct SLEM of %s seed %d: %v", k.graph, k.seed, err)
				return
			}
			for _, mu := range mus {
				if mu != est.Mu {
					v.fail("slem on %s seed %d: daemon µ %v, direct spectral.SLEMContext µ %v", k.graph, k.seed, mu, est.Mu)
				}
			}
		})
	}
}

// checkWrites replays the applied mutations on the benchmark's copy of
// the mutable graph, in order, and holds each write's slem answer to a
// direct SLEM of the resulting version.
func (v *verifier) checkWrites(writes []writeRecord) {
	type check struct {
		w    writeRecord
		view *graph.Graph
	}
	var checks []check
	mg := evolve.NewMutable(v.graphs[mutableGraph])
	for _, w := range writes {
		if !w.Applied {
			if w.Err != nil && strings.HasPrefix(w.Err.Error(), "mutation state unknown") {
				v.fail("write %d: cannot verify later versions after an unknown mutation outcome", w.I)
				break
			}
			continue
		}
		g, _ := mg.Snapshot()
		batch := evolve.GrowRandom(g, writeGrow, rand.New(rand.NewPCG(w.Seed, 0x6709)))
		end := v.span("evolve.Apply", "evolve")
		t0 := time.Now()
		res, err := mg.Apply(batch)
		v.applyTime += time.Since(t0)
		end()
		if err != nil {
			v.fail("replay write %d: %v", w.I, err)
			break
		}
		if uint64(res.Version) != w.Version || res.Inserted != w.Added {
			v.fail("write %d: daemon version %d (+%d edges), replay version %d (+%d)",
				w.I, w.Version, w.Added, res.Version, res.Inserted)
			break
		}
		if w.Err != nil {
			continue
		}
		view, _ := mg.Snapshot()
		if !graph.IsConnected(view) {
			view, _ = graph.LargestComponent(view)
		}
		checks = append(checks, check{w, view})
	}
	for _, c := range checks {
		v.goDo(func() {
			est, err := v.slem(c.view, writeQuerySeed)
			if err != nil {
				v.fail("direct SLEM of %s v%d: %v", mutableGraph, c.w.Version, err)
			} else if est.Mu != c.w.Mu {
				v.fail("slem on %s v%d: daemon µ %v, direct µ %v", mutableGraph, c.w.Version, c.w.Mu, est.Mu)
			}
		})
	}
}

// replay calls each distinct solve the read stream needed directly,
// once, under a span: the SLEM of every slem/bounds seed, the traces
// of every cdf and every distmix estimate. checkReads already covers
// the slem seeds, so only the bounds seeds are solved again here.
func (v *verifier) replay(reads []readRecord) {
	seen := map[string]bool{}
	slemSeeds := map[string]bool{}
	for _, r := range reads {
		if r.Req.Op == api.OpSLEM {
			slemSeeds[fmt.Sprintf("%s|%d", r.Req.Graph, r.Req.Params.Seed)] = true
		}
	}
	for _, r := range reads {
		if seen[r.Solve] {
			continue
		}
		seen[r.Solve] = true
		req, g := r.Req, v.graphs[r.Req.Graph]
		p := req.Params.WithDefaults()
		switch req.Op {
		case api.OpBounds:
			if slemSeeds[fmt.Sprintf("%s|%d", req.Graph, p.Seed)] {
				continue
			}
			v.goDo(func() {
				if _, err := v.slem(g, p.Seed); err != nil {
					v.fail("direct SLEM of %s seed %d: %v", req.Graph, p.Seed, err)
				}
			})
		case api.OpCDF:
			v.goDo(func() {
				end := v.span("core.MeasureContext", "markov")
				t0 := time.Now()
				m, err := core.MeasureContext(v.ctx, g, core.Options{Sources: p.Sources, MaxWalk: p.MaxWalk,
					Seed: p.Seed, SkipSpectral: true, KeepWhole: true, BlockSize: p.BlockSize, Collector: v.markovCol})
				d := time.Since(t0)
				end()
				if err != nil {
					v.fail("direct cdf of %s seed %d: %v", req.Graph, p.Seed, err)
					return
				}
				v.mu.Lock()
				defer v.mu.Unlock()
				v.traceTime += d
				for _, trace := range m.Traces {
					v.stepsTotal += int64(len(trace.TV))
					if at, ok := trace.MixingTime(p.Eps); ok {
						v.stepsAfter += int64(len(trace.TV) - at)
					}
				}
			})
		case api.OpDistMix:
			v.goDo(func() {
				end := v.span("distmix.EstimateMixingTime", "distmix")
				t0 := time.Now()
				_, err := distmix.EstimateMixingTime(v.ctx, g, distmix.Options{Shards: p.DistShards,
					WalksPerNode: p.DistWalks, MaxRounds: p.DistRounds, Eps: p.Eps, Sources: p.Sources,
					Seed: p.Seed, Collector: v.distCol})
				d := time.Since(t0)
				end()
				if err != nil {
					v.fail("direct distmix of %s seed %d: %v", req.Graph, p.Seed, err)
					return
				}
				v.mu.Lock()
				v.distTime += d
				v.mu.Unlock()
			})
		}
	}
}

// serveLayers adds the per-layer metrics of a traced serve run. Times
// and counts are per round of the read stream; generation and the
// registry's component checks are per daemon set-up.
func serveLayers(rep *report, t *traffic, v *verifier, before, after *api.StatsResponse,
	genTime, componentTime time.Duration) {
	t.tr.end(t.root)
	delta := func(c telemetry.Counter) float64 {
		return float64(after.Telemetry.Get(c) - before.Telemetry.Get(c))
	}
	n := float64(len(t.rounds))
	mk := v.markovCol.Snapshot()
	rep.add(kindLayer, "datasets.generate_s", "s", genTime.Seconds())
	rep.add(kindLayer, "graph.components_s", "s", componentTime.Seconds())
	rep.add(kindLayer, "spectral.slem_s", "s", v.slemTime.Seconds()/n)
	rep.add(kindLayer, "spectral.matvecs", "count", delta(telemetry.Matvecs)/n)
	rep.add(kindLayer, "spectral.iterations", "count",
		(delta(telemetry.PowerIterations)+delta(telemetry.LanczosIterations))/n)
	rep.add(kindLayer, "spectral.converged_frac", "frac", ratio(float64(v.converged), float64(v.estimates)))
	rep.add(kindLayer, "markov.trace_s", "s", v.traceTime.Seconds()/n)
	rep.add(kindLayer, "markov.edges_scanned", "count", float64(mk.Get(telemetry.EdgesScanned))/n)
	rep.add(kindLayer, "markov.source_steps", "count", float64(mk.Get(telemetry.SourceSteps))/n)
	rep.add(kindLayer, "markov.steps_after_mixed_frac", "frac", ratio(float64(v.stepsAfter), float64(v.stepsTotal)))
	layerTime := v.slemTime + v.traceTime + v.distTime + v.applyTime
	rep.add(kindLayer, "distmix.share", "frac", ratio(v.distTime.Seconds(), layerTime.Seconds()))
	msgs := delta(telemetry.DistMessages)
	rep.add(kindLayer, "distmix.rounds", "count", delta(telemetry.DistRounds)/n)
	rep.add(kindLayer, "distmix.messages", "count", msgs/n)
	rep.add(kindLayer, "distmix.offshard_frac", "frac", ratio(delta(telemetry.DistOffShardMessages), msgs))
	rep.add(kindLayer, "evolve.epochs", "count", delta(telemetry.EvolveEpochs)/n)
	solves := delta(telemetry.ServiceSolves)
	rep.add(kindLayer, "service.solves", "count", solves/n)
	rep.add(kindLayer, "service.hits", "count", delta(telemetry.ServiceCacheHits)/n)
	rep.add(kindLayer, "service.joins", "count", delta(telemetry.ServiceJoins)/n)
	rep.add(kindLayer, "service.shed", "count", delta(telemetry.ServiceShed)/n)
	rep.add(kindLayer, "service.evictions", "count", delta(telemetry.ServiceEvictions)/n)
	needed := map[string]bool{}
	for _, r := range t.reads {
		needed[r.Solve] = true
	}
	writeSolves := 0
	for _, w := range t.writes {
		if w.Applied {
			writeSolves++
		}
	}
	rep.add(kindLayer, "service.solve_efficiency", "frac", ratio(float64(len(needed)+writeSolves), solves))

	wall := t.tr.duration(t.root)
	rep.add(kindLayer, "trace.coverage", "frac", t.tr.coverage(wall))
	rep.add(kindLayer, "trace.overhead_frac", "frac", ratio(median(t.rounds[t.split:]), median(t.rounds[:t.split]))-1)

	rep.add(kindInfo, "distmix.estimate_s", "s", v.distTime.Seconds()/n)
	rep.add(kindInfo, "distmix.msgs_per_s", "1/s",
		ratio(float64(v.distCol.Snapshot().Get(telemetry.DistMessages)), v.distTime.Seconds()))
	rep.add(kindInfo, "evolve.apply_s", "s", v.applyTime.Seconds()/n)
	var transport []float64
	server := map[string][]float64{}
	for _, r := range t.reads {
		if r.Err != nil {
			continue
		}
		server[r.Class] = append(server[r.Class], float64(r.Server)/1e6)
		transport = append(transport, float64(r.Latency-r.Server)/1e6)
	}
	for _, c := range classes {
		rep.add(kindInfo, "service.server_"+c+"_p50_ms", "ms", median(server[c]))
	}
	rep.add(kindInfo, "api.transport_p50_ms", "ms", median(transport))
}
