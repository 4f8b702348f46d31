package experiments

import (
	"context"
	"reflect"
	"testing"

	"mixtime/internal/api"
)

// pinConfig is the reduced configuration the benchmark's figs workload
// runs.
func pinConfig(seed uint64) Config {
	return Config{Scale: 0.00025, Sources: 20, MaxWalk: 200,
		SpectralTol: 1e-4, BlockSize: api.DefaultBlockSize, Seed: seed}
}

// TestConductancePinned pins the complete X2 rows (λ₂, the Cheeger
// interval and the sweep cut) at two seeds of the benchmark's reduced
// configuration, so a change to the power solver's λ₂ phase or to the
// sweep that moves a single bit fails here.
func TestConductancePinned(t *testing.T) {
	want := map[uint64][]ConductanceRow{
		1: {
			{Dataset: "wiki-vote", Lambda2: 0.9076694509029721, CheegerLo: 0.046165274548513935, CheegerHi: 0.42972211741316707, SweepPhi: 0.05128205128205128, SweepNodes: 100},
			{Dataset: "slashdot-2", Lambda2: 0.9824185175236169, CheegerLo: 0.008790741238191568, CheegerHi: 0.1875179056857405, SweepPhi: 0.010706638115631691, SweepNodes: 400},
			{Dataset: "slashdot-1", Lambda2: 0.9801586126362432, CheegerLo: 0.009920693681878423, CheegerHi: 0.19920535817972793, SweepPhi: 0.012453300124533, SweepNodes: 400},
			{Dataset: "facebook", Lambda2: 0.9882522645207852, CheegerLo: 0.005873867739607408, CheegerHi: 0.15328232435094932, SweepPhi: 0.007575757575757576, SweepNodes: 100},
			{Dataset: "physics-1", Lambda2: 0.9971219308495416, CheegerLo: 0.0014390345752292033, CheegerHi: 0.07586921840191062, SweepPhi: 0.005714285714285714, SweepNodes: 112},
			{Dataset: "physics-2", Lambda2: 0.9910147603251676, CheegerLo: 0.004492619837416223, CheegerHi: 0.13405401653686058, SweepPhi: 0.007125890736342043, SweepNodes: 84},
			{Dataset: "physics-3", Lambda2: 0.9908156072930216, CheegerLo: 0.004592196353489175, CheegerHi: 0.13553149233280323, SweepPhi: 0.020833333333333332, SweepNodes: 180},
			{Dataset: "enron", Lambda2: 0.9903432078136503, CheegerLo: 0.004828396093174869, CheegerHi: 0.13897332252162456, SweepPhi: 0.006436041834271922, SweepNodes: 250},
			{Dataset: "epinion", Lambda2: 0.9949353859885255, CheegerLo: 0.0025323070057372554, CheegerHi: 0.10064406600962136, SweepPhi: 0.003355704697986577, SweepNodes: 300},
		},
		2: {
			{Dataset: "wiki-vote", Lambda2: 0.9064708402807036, CheegerLo: 0.046764579859648214, CheegerHi: 0.4325023924079413, SweepPhi: 0.05128205128205128, SweepNodes: 100},
			{Dataset: "slashdot-2", Lambda2: 0.9820686051122898, CheegerLo: 0.008965697443855114, CheegerHi: 0.18937473373029587, SweepPhi: 0.010706638115631691, SweepNodes: 400},
			{Dataset: "slashdot-1", Lambda2: 0.9801777082589098, CheegerLo: 0.00991114587054509, CheegerHi: 0.19910947612351443, SweepPhi: 0.012453300124533, SweepNodes: 400},
			{Dataset: "facebook", Lambda2: 0.9908072236927896, CheegerLo: 0.004596388153605191, CheegerHi: 0.13559333543511926, SweepPhi: 0.008547008547008548, SweepNodes: 150},
			{Dataset: "physics-1", Lambda2: 0.9922388118767391, CheegerLo: 0.003880594061630438, CheegerHi: 0.12458882873886307, SweepPhi: 0.014729950900163666, SweepNodes: 98},
			{Dataset: "physics-2", Lambda2: 0.9892766942852991, CheegerLo: 0.005361652857350463, CheegerHi: 0.14644661631257258, SweepPhi: 0.011209439528023599, SweepNodes: 105},
			{Dataset: "physics-3", Lambda2: 0.9894634971165184, CheegerLo: 0.005268251441740812, CheegerHi: 0.14516544274366144, SweepPhi: 0.019455252918287938, SweepNodes: 102},
			{Dataset: "enron", Lambda2: 0.9901478822435912, CheegerLo: 0.004926058878204409, CheegerHi: 0.1403717760549379, SweepPhi: 0.006436041834271922, SweepNodes: 250},
			{Dataset: "epinion", Lambda2: 0.9949234133242135, CheegerLo: 0.002538293337893238, CheegerHi: 0.10076295624669293, SweepPhi: 0.003355704697986577, SweepNodes: 300},
		},
	}
	for _, seed := range []uint64{1, 2} {
		rows, err := ConductanceContext(context.Background(), pinConfig(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want[seed]) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(rows), len(want[seed]))
		}
		for i, r := range rows {
			if w := want[seed][i]; !reflect.DeepEqual(r, w) {
				t.Errorf("seed %d row %d:\n got %#v\nwant %#v", seed, i, r, w)
			}
		}
	}
}

// TestWhanauPinned pins the complete X3 rows (mean and max tail-edge
// TV, mean separation at every probe length) at two seeds of the
// benchmark's reduced configuration, so a change to the propagation
// path or to the per-source summaries that moves a single bit fails
// here.
func TestWhanauPinned(t *testing.T) {
	want := map[uint64][]WhanauRow{
		1: {
			{Dataset: "facebook", W: 10, MeanEdgeTV: 0.6608685716276668, MaxEdgeTV: 0.6838172089710571, MeanSeparation: 0.9439391378750752},
			{Dataset: "facebook", W: 20, MeanEdgeTV: 0.5744529431501851, MaxEdgeTV: 0.603302249452457, MeanSeparation: 0.8429729578304375},
			{Dataset: "facebook", W: 40, MeanEdgeTV: 0.4349252878857617, MaxEdgeTV: 0.4702994999461552, MeanSeparation: 0.6719117605754257},
			{Dataset: "facebook", W: 80, MeanEdgeTV: 0.2512347090195168, MaxEdgeTV: 0.2868792312798171, MeanSeparation: 0.4267937886461537},
			{Dataset: "facebook", W: 160, MeanEdgeTV: 0.08616933057068073, MaxEdgeTV: 0.10701920075812017, MeanSeparation: 0.17099924900551808},
			{Dataset: "facebook", W: 320, MeanEdgeTV: 0.011464344016026223, MaxEdgeTV: 0.015171134568012015, MeanSeparation: 0.026916558040113885},
			{Dataset: "physics-1", W: 10, MeanEdgeTV: 0.8201624959944599, MaxEdgeTV: 0.8741064905808745, MeanSeparation: 1},
			{Dataset: "physics-1", W: 20, MeanEdgeTV: 0.7315458419649785, MaxEdgeTV: 0.8170715716492247, MeanSeparation: 0.9999929136575009},
			{Dataset: "physics-1", W: 40, MeanEdgeTV: 0.6234435510501253, MaxEdgeTV: 0.7230919096907792, MeanSeparation: 0.9993402352813178},
			{Dataset: "physics-1", W: 80, MeanEdgeTV: 0.495515218848159, MaxEdgeTV: 0.5865679944922635, MeanSeparation: 0.9862737730157022},
			{Dataset: "physics-1", W: 160, MeanEdgeTV: 0.36273033388513154, MaxEdgeTV: 0.44386990736677145, MeanSeparation: 0.8881101495974401},
			{Dataset: "physics-1", W: 320, MeanEdgeTV: 0.22234698045903337, MaxEdgeTV: 0.2772120343316079, MeanSeparation: 0.6014286136689351},
			{Dataset: "livejournal-A", W: 10, MeanEdgeTV: 8.409807927327645e-06, MaxEdgeTV: 1.1156400492412108e-05, MeanSeparation: 5.893273474453231e-05},
			{Dataset: "livejournal-A", W: 20, MeanEdgeTV: 1.0094948073541104e-11, MaxEdgeTV: 1.7432217029876877e-11, MeanSeparation: 7.450904337957809e-11},
			{Dataset: "livejournal-A", W: 40, MeanEdgeTV: 1.8108039752991884e-16, MaxEdgeTV: 1.8121761686737403e-16, MeanSeparation: 9.992007221626409e-16},
			{Dataset: "livejournal-A", W: 80, MeanEdgeTV: 1.8108039752991884e-16, MaxEdgeTV: 1.8121761686737403e-16, MeanSeparation: 9.992007221626409e-16},
			{Dataset: "livejournal-A", W: 160, MeanEdgeTV: 1.8108039752991884e-16, MaxEdgeTV: 1.8121761686737403e-16, MeanSeparation: 9.992007221626409e-16},
			{Dataset: "livejournal-A", W: 320, MeanEdgeTV: 1.8108039752991884e-16, MaxEdgeTV: 1.8121761686737403e-16, MeanSeparation: 9.992007221626409e-16},
		},
		2: {
			{Dataset: "facebook", W: 10, MeanEdgeTV: 0.6668556670188528, MaxEdgeTV: 0.6959178521069708, MeanSeparation: 0.9587513576318596},
			{Dataset: "facebook", W: 20, MeanEdgeTV: 0.5828165452458645, MaxEdgeTV: 0.6293245631224066, MeanSeparation: 0.8877131040228761},
			{Dataset: "facebook", W: 40, MeanEdgeTV: 0.4469546830725749, MaxEdgeTV: 0.5154276746270955, MeanSeparation: 0.7583582388402541},
			{Dataset: "facebook", W: 80, MeanEdgeTV: 0.26712366249413366, MaxEdgeTV: 0.34758327062418404, MeanSeparation: 0.546381557127763},
			{Dataset: "facebook", W: 160, MeanEdgeTV: 0.10215901014534326, MaxEdgeTV: 0.16062432190705153, MeanSeparation: 0.2743368462936144},
			{Dataset: "facebook", W: 320, MeanEdgeTV: 0.0198694665060868, MaxEdgeTV: 0.03556724053951482, MeanSeparation: 0.06507033795949088},
			{Dataset: "physics-1", W: 10, MeanEdgeTV: 0.8036695589097518, MaxEdgeTV: 0.9114892407385742, MeanSeparation: 0.9999963364827769},
			{Dataset: "physics-1", W: 20, MeanEdgeTV: 0.6927383852156029, MaxEdgeTV: 0.8459954973938332, MeanSeparation: 0.9990706622417337},
			{Dataset: "physics-1", W: 40, MeanEdgeTV: 0.5361096961850824, MaxEdgeTV: 0.7340831997740495, MeanSeparation: 0.9811249974830876},
			{Dataset: "physics-1", W: 80, MeanEdgeTV: 0.35247492747356096, MaxEdgeTV: 0.5427573838233889, MeanSeparation: 0.8611357585871128},
			{Dataset: "physics-1", W: 160, MeanEdgeTV: 0.1649959446624002, MaxEdgeTV: 0.2976289833561575, MeanSeparation: 0.5492977683485858},
			{Dataset: "physics-1", W: 320, MeanEdgeTV: 0.04111902972135831, MaxEdgeTV: 0.08996626279217845, MeanSeparation: 0.17692158099279703},
			{Dataset: "livejournal-A", W: 10, MeanEdgeTV: 7.594857261649573e-06, MaxEdgeTV: 9.248485005368089e-06, MeanSeparation: 4.942955147995698e-05},
			{Dataset: "livejournal-A", W: 20, MeanEdgeTV: 7.663029932825083e-12, MaxEdgeTV: 1.0920893499282358e-11, MeanSeparation: 5.562639793232904e-11},
			{Dataset: "livejournal-A", W: 40, MeanEdgeTV: 1.363323753748088e-15, MaxEdgeTV: 1.6997579559141496e-15, MeanSeparation: 2.248201624865942e-15},
			{Dataset: "livejournal-A", W: 80, MeanEdgeTV: 1.3647184781990368e-15, MaxEdgeTV: 1.6997579559141496e-15, MeanSeparation: 2.2370993946196903e-15},
			{Dataset: "livejournal-A", W: 160, MeanEdgeTV: 1.3647184781990368e-15, MaxEdgeTV: 1.6997579559141496e-15, MeanSeparation: 2.2370993946196903e-15},
			{Dataset: "livejournal-A", W: 320, MeanEdgeTV: 1.3647184781990368e-15, MaxEdgeTV: 1.6997579559141496e-15, MeanSeparation: 2.2370993946196903e-15},
		},
	}
	for _, seed := range []uint64{1, 2} {
		rows, err := WhanauContext(context.Background(), pinConfig(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want[seed]) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(rows), len(want[seed]))
		}
		for i, r := range rows {
			if w := want[seed][i]; !reflect.DeepEqual(r, w) {
				t.Errorf("seed %d row %d:\n got %#v\nwant %#v", seed, i, r, w)
			}
		}
	}
}
