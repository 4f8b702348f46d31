package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/stats"
	"mixtime/internal/textplot"
)

// WhanauRow evaluates the evidence Whānau [12] offered for fast
// mixing: after a walk of length w, how close is the distribution of
// the walk's tail edge to uniform over the 2m directed edges? The
// paper's §2 argues the published convergence was loose (LiveJournal
// far from uniform at w=80) and that the tail distributions were
// never related to the stationary distribution in variation distance;
// this experiment computes those distances exactly: the tail-edge
// distribution from source s is q(u→v) = p_{w−1}(u)/deg(u), so its
// TV distance to uniform and its separation distance follow from the
// node distribution in O(n).
type WhanauRow struct {
	Dataset string
	W       int
	// MeanEdgeTV / MaxEdgeTV: total variation distance between the
	// tail-edge distribution and uniform over directed edges,
	// averaged / maximized over sources.
	MeanEdgeTV, MaxEdgeTV float64
	// MeanSeparation is the separation distance max_e(1 − q(e)·2m)
	// averaged over sources — the metric [12] actually used.
	MeanSeparation float64
}

// whanauWalks are the probe lengths, bracketing the w≈80 Whānau
// reports. Each is at least 2: a length-w tail reads the node
// distribution after w−1 ≥ 1 propagation steps.
var whanauWalks = []int{10, 20, 40, 80, 160, 320}

// whanauDatasets: a fast online graph and the slow graphs the paper
// calls out.
var whanauDatasets = []string{"facebook", "physics-1", "livejournal-A"}

// WhanauContext runs the tail-distribution experiment with
// cancellation and progress. Sources propagate in blocks of
// cfg.BlockSize over cfg.Workers pool workers; a step probe reads each
// column at the probe lengths into per-source slots, which are then
// summarized in source order, so the rows do not depend on the block
// size or the worker count. ctx is checked at every step and each
// finished dataset reports as a KindDatasetDone.
func WhanauContext(ctx context.Context, cfg Config, obs runner.Observer) ([]WhanauRow, error) {
	cfg = cfg.WithDefaults()
	var rows []WhanauRow
	for di, name := range whanauDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		chain, err := markov.New(g, markov.WithCollector(cfg.Collector))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0x77a0))
		sources := markov.SampleSources(g, min(cfg.Sources, 100), rng)

		tv, sep, _, err := whanauTails(ctx, chain, sources, cfg.BlockSize, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: whanau %s: %w", name, err)
		}
		for k, w := range whanauWalks {
			sum := stats.Summarize(tv[k])
			rows = append(rows, WhanauRow{
				Dataset:        name,
				W:              w,
				MeanEdgeTV:     sum.Mean,
				MaxEdgeTV:      sum.Max,
				MeanSeparation: stats.Summarize(sep[k]).Mean,
			})
		}
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: di + 1, Total: len(whanauDatasets)})
	}
	return rows, nil
}

// whanauTails propagates the sources on the blocked driver to the
// longest probe length and returns tv[k][i] and sep[k][i], source i's
// tail-edge TV and separation distance at whanauWalks[k], with the
// node TV traces the driver recorded on the way.
func whanauTails(ctx context.Context, chain *markov.Chain, sources []graph.NodeID, blockSize, workers int) (tv, sep [][]float64, traces []*markov.Trace, err error) {
	maxW := whanauWalks[len(whanauWalks)-1]
	walkAt := make([]int, maxW) // steps taken → index in whanauWalks, or −1
	for i := range walkAt {
		walkAt[i] = -1
	}
	tv = make([][]float64, len(whanauWalks))
	sep = make([][]float64, len(whanauWalks))
	for k, w := range whanauWalks {
		walkAt[w-1] = k
		tv[k] = make([]float64, len(sources))
		sep[k] = make([]float64, len(sources))
	}
	g := chain.Graph()
	probe := func(first, t int, p []float64, width int) {
		k := walkAt[t]
		if k < 0 {
			return
		}
		for j := 0; j < width; j++ {
			tv[k][first+j], sep[k][first+j] = tailEdgeDistances(g, p, width, j)
		}
	}
	traces, err = chain.TraceSampleProbedContext(ctx, sources, maxW-1, blockSize, workers, probe)
	return tv, sep, traces, err
}

// tailEdgeDistances computes, from column j of the row-major n×width
// block p of node distributions after w−1 steps, the TV distance of
// the length-w tail-edge distribution to uniform over directed edges,
// and its separation distance. The tail-edge TV equals the node TV
// ‖p − π‖: ½Σ_v deg(v)·|p_v/deg(v) − 1/2m| = ½Σ_v |p_v − π_v|.
func tailEdgeDistances(g *graph.Graph, p []float64, width, j int) (tv, sep float64) {
	twoM := float64(2 * g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		deg := float64(g.Degree(graph.NodeID(v)))
		perEdge := p[v*width+j] / deg // probability of each of v's out tails
		diff := perEdge - 1/twoM
		if diff < 0 {
			tv -= deg * diff
		} else {
			tv += deg * diff
		}
		if s := 1 - perEdge*twoM; s > sep {
			sep = s
		}
	}
	return tv / 2, sep
}

// RenderWhanau formats the experiment as a table.
func RenderWhanau(rows []WhanauRow) string {
	header := []string{"dataset", "w", "mean edge-TV", "max edge-TV", "mean separation"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%.4f", r.MeanEdgeTV),
			fmt.Sprintf("%.4f", r.MaxEdgeTV),
			fmt.Sprintf("%.4f", r.MeanSeparation),
		})
	}
	return "Whānau check: distance of walk-tail edge distribution from uniform (paper §2)\n" +
		textplot.Table(header, cells)
}
