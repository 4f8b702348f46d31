package sybil

import (
	"errors"
	"fmt"
	"math"

	"mixtime/internal/graph"
	"mixtime/internal/walk"
)

// GuardConfig parameterizes the SybilGuard-style baseline.
type GuardConfig struct {
	// W is the route length. If 0 it defaults to the SybilGuard
	// prescription Θ(√(n·log n)).
	W int
	// Seed makes the run deterministic.
	Seed uint64
}

// GuardResult reports a SybilGuard verification sweep.
type GuardResult struct {
	Verifier    graph.NodeID
	Suspects    []graph.NodeID
	Accepted    []bool
	NumAccepted int
	W           int
}

// AcceptRate returns the fraction of suspects accepted.
func (r *GuardResult) AcceptRate() float64 {
	if len(r.Suspects) == 0 {
		return 0
	}
	return float64(r.NumAccepted) / float64(len(r.Suspects))
}

// GuardWalkLength returns SybilGuard's prescribed route length
// ⌈√(n·ln n)⌉.
func GuardWalkLength(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(n) * math.Log(float64(n)))))
}

// guardRouter validates a SybilGuard run — the graph, the node ids and
// the route length, defaulting cfg in place — and builds its single
// route instance.
func guardRouter(g *graph.Graph, verifier graph.NodeID, suspects []graph.NodeID, cfg *GuardConfig) (*walk.Instance, error) {
	if g.NumNodes() < 2 || g.MinDegree() < 1 {
		return nil, errors.New("sybil: graph unsuitable for routing")
	}
	if err := checkNodes(g, verifier, suspects); err != nil {
		return nil, err
	}
	if cfg.W == 0 {
		cfg.W = GuardWalkLength(g.NumNodes())
	}
	if cfg.W < 1 {
		return nil, errors.New("sybil: route length must be ≥ 1")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	x, err := walk.NewEdges(g)
	if err != nil {
		return nil, fmt.Errorf("sybil: %w", err)
	}
	return x.NewInstance(cfg.Seed), nil
}

// SybilGuard runs the single-route baseline: every node performs one
// random route of length w; the verifier accepts a suspect if their
// routes intersect at a vertex. SybilGuardFull implements the
// protocol as published (one route per edge); this variant preserves
// the dependence on mixing that the paper examines, with pessimistic
// constants.
func SybilGuard(g *graph.Graph, verifier graph.NodeID, suspects []graph.NodeID, cfg GuardConfig) (*GuardResult, error) {
	router, err := guardRouter(g, verifier, suspects, &cfg)
	if err != nil {
		return nil, err
	}

	vSlot := firstSlot(cfg.Seed^0xa5a5a5a5, 0, verifier, g.Degree(verifier))
	vTraj := walk.RouteTrace(router, verifier, vSlot, cfg.W)
	onV := make(map[graph.NodeID]bool, len(vTraj))
	for _, v := range vTraj {
		onV[v] = true
	}

	res := &GuardResult{
		Verifier: verifier,
		Suspects: suspects,
		Accepted: make([]bool, len(suspects)),
		W:        cfg.W,
	}
	for i, s := range suspects {
		slot := firstSlot(cfg.Seed, 0, s, g.Degree(s))
		traj := walk.RouteTrace(router, s, slot, cfg.W)
		for _, v := range traj {
			if onV[v] {
				res.Accepted[i] = true
				res.NumAccepted++
				break
			}
		}
	}
	return res, nil
}

// SybilGuardFull runs SybilGuard as published: the verifier performs
// one random route along each of its d edges, every suspect does the
// same along each of its own edges, and the suspect is accepted if
// every verifier route intersects at least one suspect route at a
// vertex (SybilGuard's "all my routes must cross the suspect"
// condition, which its analysis needs for the √n bound).
func SybilGuardFull(g *graph.Graph, verifier graph.NodeID, suspects []graph.NodeID, cfg GuardConfig) (*GuardResult, error) {
	router, err := guardRouter(g, verifier, suspects, &cfg)
	if err != nil {
		return nil, err
	}

	// One vertex set per verifier route (per edge slot).
	dV := g.Degree(verifier)
	vRoutes := make([]map[graph.NodeID]bool, dV)
	for slot := 0; slot < dV; slot++ {
		traj := walk.RouteTrace(router, verifier, slot, cfg.W)
		set := make(map[graph.NodeID]bool, len(traj))
		for _, v := range traj {
			set[v] = true
		}
		vRoutes[slot] = set
	}

	res := &GuardResult{
		Verifier: verifier,
		Suspects: suspects,
		Accepted: make([]bool, len(suspects)),
		W:        cfg.W,
	}
	for i, s := range suspects {
		// Union of the suspect's route vertices.
		sVerts := map[graph.NodeID]bool{}
		for slot := 0; slot < g.Degree(s); slot++ {
			for _, v := range walk.RouteTrace(router, s, slot, cfg.W) {
				sVerts[v] = true
			}
		}
		all := true
		for _, vr := range vRoutes {
			hit := false
			for v := range sVerts {
				if vr[v] {
					hit = true
					break
				}
			}
			if !hit {
				all = false
				break
			}
		}
		if all {
			res.Accepted[i] = true
			res.NumAccepted++
		}
	}
	return res, nil
}
