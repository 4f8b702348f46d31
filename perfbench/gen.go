package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/api"
)

// Read classes. The generator assigns them from what it has already
// issued; responses (their cache_hit flag included) never change a
// label, so a change that turns misses into hits moves a class's
// latency instead of moving requests between classes.
const (
	classRepeat  = "repeat"  // a request already answered, byte for byte
	classVariant = "variant" // shares an earlier request's SLEM solve, differs in a knob
	classFresh   = "fresh"   // a new seed: needs a new solve
)

var classes = []string{classRepeat, classVariant, classFresh}

// Per-round class mix of the read stream.
const (
	variantsPerRound = 4
	repeatsPerRound  = 16
)

// Knobs of the costly ops, kept small so a round stays near a second.
const (
	cdfSources      = 8
	cdfMaxWalk      = 200
	distSources     = 1
	distRounds      = 100
	distWalks       = 16
	readsPerRound   = 4 + variantsPerRound + repeatsPerRound
	variantKnobBase = 1000
)

// read is one generated query with its class and the identity of the
// solve it needs.
type read struct {
	Class string
	Req   api.Request
	// Key identifies the request exactly (a repeat shares its
	// original's key).
	Key string
	// Solve identifies the computation the request needs: requests
	// with equal Solve could share one solve.
	Solve string
}

// generator produces the seeded read stream over two immutable graphs.
type generator struct {
	rng    *rand.Rand
	graphs [2]string
	issued []read    // every request so far, the pool repeats draw from
	bases  [2][]read // fresh slem/bounds requests per graph, the pool variants derive from
	knob   int       // makes every variant's changed knob value unique
}

func newGenerator(seed uint64, graphs [2]string) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, 0x5e7e)), graphs: graphs}
}

func requestKey(req api.Request) string {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // api.Request always marshals
	}
	return string(b)
}

func (g *generator) emit(class string, req api.Request) read {
	r := read{Class: class, Req: req, Key: requestKey(req), Solve: solveKey(req)}
	g.issued = append(g.issued, r)
	return r
}

// solveKey names the computation req needs: slem and bounds share the
// SLEM solve of (graph, method, tol, seed); cdf and distmix need one
// solve per distinct output-determining knob set.
func solveKey(req api.Request) string {
	p := req.Params.WithDefaults()
	switch req.Op {
	case api.OpSLEM, api.OpBounds:
		return fmt.Sprintf("spectral|%s|%s|%v|%d", req.Graph, p.Method, p.SpectralTol, p.Seed)
	case api.OpCDF:
		return fmt.Sprintf("cdf|%s|%d|%d|%d", req.Graph, p.Seed, p.Sources, p.MaxWalk)
	default:
		return fmt.Sprintf("%s|%s|%s", req.Op, req.Graph, p.Canon())
	}
}

func (g *generator) freshSeed() uint64 { return g.rng.Uint64() >> 1 }

// round returns the next round of reads: four fresh requests (slem,
// bounds, cdf, distmix, alternating graphs by round), then variants
// and repeats in a seeded order, each drawing only on requests issued
// before it.
func (g *generator) round(r int) []read {
	a, b := g.graphs[r%2], g.graphs[(r+1)%2]
	out := make([]read, 0, readsPerRound)
	fresh := []api.Request{
		{Op: api.OpSLEM, Graph: a, Params: api.Params{Seed: g.freshSeed()}},
		{Op: api.OpBounds, Graph: b, Params: api.Params{Seed: g.freshSeed()}},
		{Op: api.OpCDF, Graph: a, Params: api.Params{Seed: g.freshSeed(), Sources: cdfSources, MaxWalk: cdfMaxWalk}},
		{Op: api.OpDistMix, Graph: b, Params: api.Params{Seed: g.freshSeed(), Sources: distSources,
			DistRounds: distRounds, DistWalks: distWalks}},
	}
	g.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	for _, req := range fresh {
		rd := g.emit(classFresh, req)
		if req.Op == api.OpSLEM || req.Op == api.OpBounds {
			gi := 0
			if req.Graph == g.graphs[1] {
				gi = 1
			}
			g.bases[gi] = append(g.bases[gi], rd)
		}
		out = append(out, rd)
	}
	rest := make([]string, 0, variantsPerRound+repeatsPerRound)
	for i := 0; i < variantsPerRound; i++ {
		rest = append(rest, classVariant)
	}
	for i := 0; i < repeatsPerRound; i++ {
		rest = append(rest, classRepeat)
	}
	g.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	variants := 0
	for _, class := range rest {
		if class == classVariant {
			// Half the variants on each graph keeps every round's cost
			// alike.
			out = append(out, g.variant(variants%2))
			variants++
			continue
		}
		prev := g.issued[g.rng.IntN(len(g.issued))]
		out = append(out, g.emit(classRepeat, prev.Req))
	}
	return out
}

// variant copies an earlier fresh slem or bounds request on graph gi
// and changes one knob its SLEM solve does not read, to a value no
// earlier request used.
func (g *generator) variant(gi int) read {
	base := g.bases[gi][g.rng.IntN(len(g.bases[gi]))].Req
	req := base
	p := base.Params
	g.knob++
	u := g.knob % 9000
	knobs := 3 // eps, sources, max_walk
	if req.Op == api.OpBounds {
		knobs = 4 // and eps_list
	}
	switch g.rng.IntN(knobs) {
	case 0:
		p.Eps = 0.02 + float64(u)*1e-6
	case 1:
		p.Sources = variantKnobBase + g.knob
	case 2:
		p.MaxWalk = variantKnobBase + g.knob
	case 3:
		p.EpsList = []float64{0.25, 0.1, 0.01 + float64(u)*1e-6}
	}
	req.Params = p
	return g.emit(classVariant, req)
}
