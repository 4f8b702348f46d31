// Package mixtime measures the mixing time of social graphs — a Go
// implementation of the methodology of Mohaisen, Yun and Kim,
// "Measuring the Mixing Time of Social Graphs" (IMC 2010).
//
// The mixing time T(ε) of the random walk on a graph is the walk
// length needed for the walk's distribution to come within total
// variation distance ε of the stationary distribution
// π_v = deg(v)/2m, from the worst-case start vertex. Social-network
// Sybil defenses (SybilGuard, SybilLimit, SybilInfer, Whānau) assume
// social graphs mix in O(log n) steps; the paper — and this library —
// measures how far real graph structure is from that assumption.
//
// Two measurement techniques are provided, exactly as in the paper:
//
//   - the spectral bound: the second largest eigenvalue modulus µ of
//     the transition matrix, estimated matrix-free by deflated power
//     iteration or Lanczos, bounding T(ε) via Sinclair's inequalities
//     (SLEM, MixingLowerBound, MixingUpperBound);
//
//   - direct sampling: exact propagation of point distributions with
//     per-step distance traces (Measure, Measurement).
//
// The package also ships the substrates the paper's evaluation needs:
// compact CSR graphs with the paper's preprocessing (largest
// component, degree trimming, BFS sampling), synthetic substitutes
// for the paper's fifteen datasets, a full SybilLimit/SybilGuard
// implementation with an attack model, and experiment drivers that
// regenerate every table and figure (see cmd/paperfigs and
// EXPERIMENTS.md).
//
// # Quick start
//
//	g := mixtime.BarabasiAlbert(10_000, 5, 1)
//	m, err := mixtime.Measure(g, mixtime.Options{Sources: 100, MaxWalk: 200})
//	if err != nil { ... }
//	fmt.Printf("µ = %.4f\n", m.Mu())
//	t, ok := m.SampledMixingTime(0.01)
//	fmt.Printf("sampled T(0.01) = %d (reached: %v); log n = %d\n",
//		t, ok, m.FastMixingYardstick())
//
// # Package map
//
// This facade re-exports the internal packages. Where something lives:
//
//	internal/graph        CSR graph, LCC, trimming, BFS sampling, shard plans
//	internal/digraph      directed graphs, Tarjan SCC, symmetrization
//	internal/graphio      edge-list / binary graph I/O (gzip-aware)
//	internal/linalg       dense Jacobi eigensolver, Sturm bisection, vectors
//	internal/markov       chain, exact propagation, TV/separation distance, traces
//	internal/spectral     SLEM (power, Lanczos), Sinclair/Cheeger bounds, sweep cut
//	internal/trust        trust-weighted and hesitant walks, weighted SLEM
//	internal/gen          reference topologies and social-graph generators
//	internal/datasets     Table-1 synthetic substitutes
//	internal/metrics      clustering, assortativity, degree statistics
//	internal/walk         plain walks and SybilGuard/SybilLimit random routes
//	internal/maxflow      Dinic max flow (SumUp substrate)
//	internal/sybil        SybilLimit, SybilGuard, SybilInfer, SumUp, attacks
//	internal/community    label propagation, Louvain, modularity
//	internal/centrality   betweenness, closeness, PageRank, PPR
//	internal/whanau       Whānau DHT core
//	internal/stats        CDFs, percentiles
//	internal/core         the composed Measure/MeasureContext pipeline
//	internal/distmix      simulated distributed estimation: flat walker superstep,
//	                      walker-flood mixing/local-mixing estimators (DESIGN.md §11)
//	internal/runner       experiment registry, parallel runner, observer events
//	internal/experiments  per-figure drivers (T1, F1–F8, X1–X7, D1–D2)
//	internal/telemetry    kernel counters, gauges, stage timers (DESIGN.md §8)
//	internal/textplot     ASCII charts and tables
//	internal/cliutil      CLI helpers: graph loading, pprof/trace capture
//
// The runner and telemetry layers are reachable through Options
// (Progress, Collector) and cmd/paperfigs; everything else surfaces
// here as plain functions and types.
package mixtime
