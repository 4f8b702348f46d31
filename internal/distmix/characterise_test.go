package distmix

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mixtime/internal/graph"
)

// TestEstimateCharacterisation pins complete Results — every estimate
// field and the whole communication bill — as literals. The walker
// hop stream (mix64 over seed, walker id and round) and the message
// accounting are the estimator's contract with D1/D2 and the service
// fingerprints, so any change to how the superstep is executed must
// leave these numbers exactly where they are. The estimate part is
// shared by every shard count; only Shards and Stats move with it.
func TestEstimateCharacterisation(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		opt   Options
		want  Result // Shards and Stats filled per shard count
		stats map[int]Stats
	}{
		{
			name: "ring",
			g:    ring(11),
			opt:  Options{WalksPerNode: 48, MaxRounds: 200, Eps: 0.2, SourceList: []graph.NodeID{0, 5}, Seed: 3},
			want: Result{
				Eps: 0.2, WalksPerNode: 48, Walks: 528, Lazy: false,
				Sources: []SourceEstimate{
					{Source: 0, Tau: 25, Mixed: true, LocalTau: 39, LocalMixed: true, Rounds: 40},
					{Source: 5, Tau: 21, Mixed: true, LocalTau: 34, LocalMixed: true, Rounds: 35},
				},
				Tau: 25, Complete: true, LocalTau: 39, LocalComplete: true,
				NoiseFloor: 0.054806526391735666,
			},
			stats: map[int]Stats{
				1: {Rounds: 75, Messages: 39600, OffShardMessages: 0, OnShardBytes: 316800, OffShardBytes: 0, Halted: true},
				3: {Rounds: 75, Messages: 39600, OffShardMessages: 10991, OnShardBytes: 228872, OffShardBytes: 87928, Halted: true},
				8: {Rounds: 75, Messages: 39600, OffShardMessages: 29105, OnShardBytes: 83960, OffShardBytes: 232840, Halted: true},
			},
		},
		{
			name: "random",
			g:    connectedRandom(60, 90, 4),
			opt:  Options{WalksPerNode: 24, MaxRounds: 200, Eps: 0.15, Sources: 3, Seed: 8},
			want: Result{
				Eps: 0.15, WalksPerNode: 24, Walks: 1440, Lazy: false,
				Sources: []SourceEstimate{
					{Source: 20, Tau: 6, Mixed: true, LocalTau: 8, LocalMixed: true, Rounds: 9},
					{Source: 11, Tau: 6, Mixed: true, LocalTau: 8, LocalMixed: true, Rounds: 9},
					{Source: 19, Tau: 5, Mixed: true, LocalTau: 7, LocalMixed: true, Rounds: 8},
				},
				Tau: 6, Complete: true, LocalTau: 8, LocalComplete: true,
				NoiseFloor: 0.07893141915268109,
			},
			stats: map[int]Stats{
				1: {Rounds: 26, Messages: 37440, OffShardMessages: 0, OnShardBytes: 299520, OffShardBytes: 0, Halted: true},
				3: {Rounds: 26, Messages: 37440, OffShardMessages: 23691, OnShardBytes: 109992, OffShardBytes: 189528, Halted: true},
				8: {Rounds: 26, Messages: 37440, OffShardMessages: 32700, OnShardBytes: 37920, OffShardBytes: 261600, Halted: true},
			},
		},
		{
			// A tree is bipartite, so the estimator switches to the lazy chain.
			name: "bipartite",
			g:    connectedRandom(30, 0, 6),
			opt:  Options{WalksPerNode: 40, MaxRounds: 400, Eps: 0.25, SourceList: []graph.NodeID{0, 17}, Seed: 5},
			want: Result{
				Eps: 0.25, WalksPerNode: 40, Walks: 1200, Lazy: true,
				Sources: []SourceEstimate{
					{Source: 0, Tau: 22, Mixed: true, LocalTau: 50, LocalMixed: true, Rounds: 51},
					{Source: 17, Tau: 60, Mixed: true, LocalTau: 84, LocalMixed: true, Rounds: 85},
				},
				Tau: 60, Complete: true, LocalTau: 84, LocalComplete: true,
				NoiseFloor: 0.05901738629470781,
			},
			stats: map[int]Stats{
				1: {Rounds: 136, Messages: 163200, OffShardMessages: 0, OnShardBytes: 1305600, OffShardBytes: 0, Halted: true},
				3: {Rounds: 136, Messages: 163200, OffShardMessages: 50098, OnShardBytes: 904816, OffShardBytes: 400784, Halted: true},
				8: {Rounds: 136, Messages: 163200, OffShardMessages: 69349, OnShardBytes: 750808, OffShardBytes: 554792, Halted: true},
			},
		},
		{
			// ε far below the noise floor: every source runs to the round
			// cap (MaxRounds+1 supersteps) and reports it as a lower bound.
			name: "capped",
			g:    connectedRandom(60, 90, 4),
			opt:  Options{WalksPerNode: 8, MaxRounds: 6, Eps: 0.01, Sources: 2, Seed: 2},
			want: Result{
				Eps: 0.01, WalksPerNode: 8, Walks: 480, Lazy: false,
				Sources: []SourceEstimate{
					{Source: 34, Tau: 6, Mixed: false, LocalTau: 6, LocalMixed: false, Rounds: 7},
					{Source: 54, Tau: 6, Mixed: false, LocalTau: 6, LocalMixed: false, Rounds: 7},
				},
				Tau: 6, Complete: false, LocalTau: 6, LocalComplete: false,
				NoiseFloor: 0.13667309015291917,
			},
			stats: map[int]Stats{
				1: {Rounds: 14, Messages: 6720, OffShardMessages: 0, OnShardBytes: 53760, OffShardBytes: 0, Halted: false},
				3: {Rounds: 14, Messages: 6720, OffShardMessages: 4235, OnShardBytes: 19880, OffShardBytes: 33880, Halted: false},
				8: {Rounds: 14, Messages: 6720, OffShardMessages: 5734, OnShardBytes: 7888, OffShardBytes: 45872, Halted: false},
			},
		},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				opt := tc.opt
				opt.Shards = shards
				got, err := EstimateMixingTime(context.Background(), tc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := tc.want
				want.Shards = shards
				want.Stats = tc.stats[shards]
				if !reflect.DeepEqual(*got, want) {
					t.Fatalf("result moved:\n got %+v\nwant %+v", *got, want)
				}
			})
		}
	}
}
