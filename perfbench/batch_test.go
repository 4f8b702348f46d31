package main

import (
	"encoding/json"
	"testing"

	"mixtime/internal/experiments"
)

func TestPassSeedCycles(t *testing.T) {
	seen := map[uint64]bool{}
	for k := 0; k < seedCycle; k++ {
		s := passSeed(42, k)
		if seen[s] {
			t.Fatalf("pass %d repeats a seed within the cycle", k)
		}
		seen[s] = true
		if passSeed(42, k+seedCycle) != s {
			t.Fatalf("pass %d does not come round again after %d passes", k, seedCycle)
		}
	}
	if passSeed(42, 0) != 42 {
		t.Fatal("pass 0 must run at the workload seed itself")
	}
}

func TestD1ParityCatchesDrift(t *testing.T) {
	rows := []experiments.DistMixRow{
		{Dataset: "a", TauExact: 10, TauEst: 9, Messages: 1000},
		{Dataset: "b", TauExact: 20, TauEst: 22, Messages: 2000},
	}
	doc, err := json.Marshal(map[string]any{"id": "D1", "rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1Parity(doc, rows); err != nil {
		t.Fatalf("identical rows: %v", err)
	}
	for _, mutate := range []func(*experiments.DistMixRow){
		func(r *experiments.DistMixRow) { r.TauExact++ },
		func(r *experiments.DistMixRow) { r.TauEst-- },
		func(r *experiments.DistMixRow) { r.Messages += 8 },
	} {
		drift := append([]experiments.DistMixRow(nil), rows...)
		mutate(&drift[1])
		if err := d1Parity(doc, drift); err == nil {
			t.Errorf("drift %+v not caught", drift[1])
		}
	}
	if err := d1Parity(doc, rows[:1]); err == nil {
		t.Error("missing row not caught")
	}
}

func TestDigestStoreReproducesAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := openDigestStore(dir, "code1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.check("k", "aa"); !ok {
		t.Fatal("first digest rejected")
	}
	if prev, ok := s.check("k", "bb"); ok || prev != "aa" {
		t.Fatalf("changed digest accepted (prev %q)", prev)
	}
	if err := s.save(); err != nil {
		t.Fatal(err)
	}
	s2, err := openDigestStore(dir, "code1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.check("k", "aa"); !ok {
		t.Error("next run rejected the recorded digest")
	}
	if _, ok := s2.check("k", "cc"); ok {
		t.Error("next run accepted a different digest")
	}
}

func TestDigestStoreKeysOnCode(t *testing.T) {
	dir := t.TempDir()
	s, err := openDigestStore(dir, "before")
	if err != nil {
		t.Fatal(err)
	}
	s.check("k", "aa")
	if err := s.save(); err != nil {
		t.Fatal(err)
	}
	// A change that legitimately alters the artifact is not held to
	// the digests of the code before it, in either order of runs.
	after, err := openDigestStore(dir, "after")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := after.check("k", "bb"); !ok {
		t.Error("a run of other code was held to the earlier code's digest")
	}
	if err := after.save(); err != nil {
		t.Fatal(err)
	}
	again, err := openDigestStore(dir, "before")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.check("k", "aa"); !ok {
		t.Error("the earlier code lost its own digest")
	}
	if _, ok := again.check("k", "bb"); ok {
		t.Error("the earlier code accepted the later code's digest")
	}
}

func TestCheckPassHoldsDefaultSeedToPins(t *testing.T) {
	store, err := openDigestStore(t.TempDir(), "code")
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	checkPass(rep, store, d1Workload, 1, 3, passResult{digest: d1Workload.pins[3]})
	if rep.failed != 0 {
		t.Fatalf("pinned digest rejected: %v", rep.mismatches)
	}
	checkPass(rep, store, d1Workload, 1, 4, passResult{digest: "0000"})
	if rep.failed != 1 {
		t.Fatalf("digest off its pin accepted (failed %d)", rep.failed)
	}
	// Other seeds have no pin; they must only reproduce themselves.
	checkPass(rep, store, d1Workload, 2, 0, passResult{digest: "0000"})
	checkPass(rep, store, d1Workload, 2, seedCycle, passResult{digest: "1111"})
	if rep.failed != 2 {
		t.Fatalf("a seed that did not reproduce itself was accepted (failed %d)", rep.failed)
	}
}
