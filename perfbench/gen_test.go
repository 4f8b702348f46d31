package main

import (
	"reflect"
	"testing"

	"mixtime/internal/api"
)

// variantOf reports whether v differs from base only in the knobs a
// SLEM solve does not read.
func variantOf(v, base api.Request) bool {
	if v.Op != base.Op || v.Graph != base.Graph {
		return false
	}
	a, b := v.Params, base.Params
	a.Eps, a.Sources, a.MaxWalk, a.EpsList = 0, 0, 0, nil
	b.Eps, b.Sources, b.MaxWalk, b.EpsList = 0, 0, 0, nil
	return reflect.DeepEqual(a, b)
}

func TestGeneratorClasses(t *testing.T) {
	g := newGenerator(7, serveGraphs)
	answered := map[string]bool{}
	freshSeeds := map[uint64]bool{}
	var issued []read
	for r := 0; r < 40; r++ {
		reads := g.round(r)
		count := map[string]int{}
		for _, rd := range reads {
			count[rd.Class]++
			switch rd.Class {
			case classRepeat:
				if !answered[rd.Key] {
					t.Fatalf("round %d: repeat of a request never issued: %s", r, rd.Key)
				}
			case classVariant:
				if answered[rd.Key] {
					t.Fatalf("round %d: variant repeats an issued request: %s", r, rd.Key)
				}
				if rd.Req.Op != api.OpSLEM && rd.Req.Op != api.OpBounds {
					t.Fatalf("round %d: variant of op %s", r, rd.Req.Op)
				}
				found := false
				for _, prev := range issued {
					if prev.Class == classFresh && prev.Solve == rd.Solve && variantOf(rd.Req, prev.Req) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("round %d: variant shares no SLEM solve with an earlier fresh request: %s", r, rd.Key)
				}
			case classFresh:
				if answered[rd.Key] || freshSeeds[rd.Req.Params.Seed] {
					t.Fatalf("round %d: fresh request reuses a seed: %s", r, rd.Key)
				}
				freshSeeds[rd.Req.Params.Seed] = true
			default:
				t.Fatalf("unknown class %q", rd.Class)
			}
			answered[rd.Key] = true
			issued = append(issued, rd)
		}
		want := map[string]int{classFresh: 4, classVariant: variantsPerRound, classRepeat: repeatsPerRound}
		if !reflect.DeepEqual(count, want) {
			t.Fatalf("round %d: class mix %v, want %v", r, count, want)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := newGenerator(3, serveGraphs), newGenerator(3, serveGraphs), newGenerator(4, serveGraphs)
	for r := 0; r < 5; r++ {
		ra, rb, rc := a.round(r), b.round(r), c.round(r)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d differs between two generators with one seed", r)
		}
		if reflect.DeepEqual(ra, rc) {
			t.Fatalf("round %d equal under different seeds", r)
		}
	}
}
