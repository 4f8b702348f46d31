package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
)

// oracleFixtures are small connected gen graphs spanning the shapes
// the paper contrasts: bottlenecked (barbell, lollipop, caveman,
// planted partition), bipartite (grid) and expander-like (ER,
// Holme–Kim), two seeds of each random model.
func oracleFixtures() map[string]*graph.Graph {
	out := map[string]*graph.Graph{
		"barbell-8":     gen.Barbell(8),
		"lollipop-6-5":  gen.Lollipop(6, 5),
		"grid-5x6":      gen.Grid(5, 6),
		"hypercube-5":   gen.Hypercube(5),
		"star-9":        gen.Star(9),
		"complete-7":    gen.Complete(7),
		"facebook-figs": datasetGraph("facebook"),
	}
	for seed := uint64(1); seed <= 2; seed++ {
		rng := func() *rand.Rand { return rand.New(rand.NewPCG(seed, 0x0c1e)) }
		for name, g := range map[string]*graph.Graph{
			"erdos-renyi": gen.ErdosRenyi(120, 0.05, rng()),
			"caveman":     gen.RelaxedCaveman(6, 8, 0.1, rng()),
			"planted":     gen.PlantedPartition(3, 25, 0.3, 0.02, rng()),
			"holme-kim":   gen.HolmeKim(150, 3, 0.5, rng()),
		} {
			lcc, _ := graph.LargestComponent(g)
			out[fmt.Sprintf("%s-%d", name, seed)] = lcc
		}
	}
	return out
}

// datasetGraph is a dataset substitute at the benchmark's reduced
// scale, seed 1.
func datasetGraph(name string) *graph.Graph {
	d, err := datasets.ByName(name)
	if err != nil {
		panic(err)
	}
	return d.Generate(0.00025, 1)
}

// TestWhanauTailEqualsNodeDistances checks X3 against the TV curves of
// §4: the length-w tail-edge TV is exactly the node TV ‖p_{w−1} − π‖
// the trace driver records, and the tail-edge separation is the node
// separation distance max_v(1 − p_v/π_v), both up to rounding.
func TestWhanauTailEqualsNodeDistances(t *testing.T) {
	const tol = 1e-15
	for name, g := range oracleFixtures() {
		chain, err := markov.New(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(3, 0x77a0))
		sources := markov.SampleSources(g, 12, rng)
		tv, sep, traces, err := whanauTails(context.Background(), chain, sources, 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pi := chain.Stationary()
		for i, s := range sources {
			for k, w := range whanauWalks {
				nodeTV := traces[i].TV[w-2] // after w−1 steps
				if d := math.Abs(tv[k][i] - nodeTV); d > tol {
					t.Errorf("%s source %d w=%d: tail-edge TV %v, node TV %v (gap %g)", name, s, w, tv[k][i], nodeTV, d)
				}
				p := chain.Propagate(chain.Delta(s), w-1)
				nodeSep := math.Inf(-1)
				for v, pv := range p {
					nodeSep = math.Max(nodeSep, 1-pv/pi[v])
				}
				if d := math.Abs(sep[k][i] - nodeSep); d > tol {
					t.Errorf("%s source %d w=%d: tail-edge separation %v, node separation %v (gap %g)", name, s, w, sep[k][i], nodeSep, d)
				}
			}
		}
	}
}

// TestConductanceWithinCheeger checks every X2 row against Cheeger's
// inequality: the sweep cut's conductance lies between (1−λ₂)/2 and
// √(2(1−λ₂)), on the gen fixtures and on the small datasets at the
// benchmark's reduced configuration. The lower bound is tight on the
// hypercube, and λ₂ is known only to the spectral tolerance, so the
// lower side allows half that tolerance; the upper side is exact (the
// sweep bound holds for the Rayleigh quotient of the vector swept).
func TestConductanceWithinCheeger(t *testing.T) {
	type checked struct {
		row ConductanceRow
		tol float64
	}
	var rows []checked
	fixtureCfg := Config{SpectralTol: 1e-8, Seed: 1}.WithDefaults()
	for name, g := range oracleFixtures() {
		row, _, err := conductanceRow(context.Background(), name, g, fixtureCfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows = append(rows, checked{row, fixtureCfg.SpectralTol})
	}
	for _, seed := range []uint64{1, 2} {
		cfg := pinConfig(seed)
		ds, err := ConductanceContext(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ds {
			rows = append(rows, checked{r, cfg.SpectralTol})
		}
	}
	for _, c := range rows {
		r := c.row
		if !(r.CheegerLo-c.tol/2 <= r.SweepPhi && r.SweepPhi <= r.CheegerHi) {
			t.Errorf("%s: sweep Φ %v outside Cheeger [%v, %v] (λ₂ %v, tol %g)",
				r.Dataset, r.SweepPhi, r.CheegerLo, r.CheegerHi, r.Lambda2, c.tol)
		}
	}
}
