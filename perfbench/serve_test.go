package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mixtime/internal/api"
)

// fakeDaemon answers every query with the same SLEM payload, setting
// cache_hit by the hit function.
func fakeDaemon(t *testing.T, hit func(n int64) bool) *httptest.Server {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		i := n.Add(1)
		json.NewEncoder(w).Encode(api.Response{SchemaVersion: api.SchemaVersion, Op: req.Op, Graph: req.Graph,
			Fingerprint: "fp", CacheHit: hit(i), ElapsedNS: i * 1000, SLEM: &api.SLEMResult{Mu: 0.5}})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// Class labels come from the generator: a daemon that claims every
// answer is a cache hit, or none is, changes no label, and a repeat
// answered with a different cache_hit flag is still byte-equal.
func TestClassesIgnoreCacheHit(t *testing.T) {
	for name, hit := range map[string]func(int64) bool{
		"all-hits":    func(int64) bool { return true },
		"no-hits":     func(int64) bool { return false },
		"alternating": func(i int64) bool { return i%2 == 0 },
	} {
		srv := fakeDaemon(t, hit)
		c := newAPIClient(srv.URL)
		gen := newGenerator(11, serveGraphs)
		tf := &traffic{first: map[string][]byte{}}
		rep := &report{}
		var want []string
		for r := 0; r < 3; r++ {
			for _, rd := range gen.round(r) {
				want = append(want, rd.Class)
				tf.doRead(context.Background(), c, rd, false, rep)
			}
		}
		if rep.failed != 0 {
			t.Fatalf("%s: %d failures: %v", name, rep.failed, rep.mismatches)
		}
		for i, rec := range tf.reads {
			if rec.Class != want[i] {
				t.Fatalf("%s: read %d labelled %s, generator said %s", name, i, rec.Class, want[i])
			}
		}
	}
}

// 429, 503 and timeouts are failures: counted, and +Inf latency.
func TestRefusalsCountAsFailures(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.Response{Error: "service: overloaded"})
		case 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.Response{Error: "service: draining"})
		default:
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		}
	}))
	defer srv.Close()
	c := newAPIClient(srv.URL)
	tf := &traffic{first: map[string][]byte{}}
	rep := &report{}
	rd := newGenerator(1, serveGraphs).round(0)[0]
	for i := 0; i < 3; i++ {
		ctx := context.Background()
		if i == 2 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
		}
		tf.doRead(ctx, c, rd, false, rep)
	}
	if rep.attempted != 3 || rep.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 3 and 3 (%v)", rep.attempted, rep.failed, rep.mismatches)
	}
	for i, want := range []string{"HTTP 429", "HTTP 503", "timed out"} {
		if err := tf.reads[i].Err; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
			t.Errorf("read %d: err %v, want %s", i, err, want)
		}
	}
	// Enough failures to fill a class: its median is beyond any limit.
	for len(tf.reads) < 20 {
		tf.reads = append(tf.reads, tf.reads[0])
	}
	latencyMetrics(rep, tf)
	for _, m := range rep.metrics {
		if m.Name == rd.Class+"_p50_ms" {
			if !math.IsInf(m.Value, 1) {
				t.Errorf("%s = %v, want +Inf", m.Name, m.Value)
			}
			return
		}
	}
	t.Errorf("no %s_p50_ms reported", rd.Class)
}
