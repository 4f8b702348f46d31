package experiments

import (
	"reflect"
	"testing"

	"mixtime/internal/api"
)

// TestEvolveAttackPinned pins the complete E2 rows (sizes, attack
// edges, µ, warm-start flags, λ₂-phase iteration counts and bounds) at
// two seeds of the reduced configuration the benchmark runs, so any
// change to the power solver or the tracker's warm chain that moves a
// single bit of a trajectory fails here.
func TestEvolveAttackPinned(t *testing.T) {
	want := map[uint64][]EvolveAttackRow{
		1: {
			{Dataset: "physics-1", Epoch: 0, HonestNodes: 196, Nodes: 392, Edges: 1229, AttackEdges: 1, Mu: 0.9993843996538918, HonestMu: 0.997029153030665, Converged: true, WarmStarted: false, WarmIters: 3533, LowerT: 1306.4053261720244, UpperT: 13440.289605247204},
			{Dataset: "physics-1", Epoch: 1, HonestNodes: 196, Nodes: 392, Edges: 1230, AttackEdges: 2, Mu: 0.9987329990616662, HonestMu: 0.997029153030665, Converged: true, WarmStarted: true, WarmIters: 1695, LowerT: 634.3321083892616, UpperT: 6530.261093307063},
			{Dataset: "physics-1", Epoch: 2, HonestNodes: 196, Nodes: 392, Edges: 1232, AttackEdges: 4, Mu: 0.998049512537817, HonestMu: 0.997029153030665, Converged: true, WarmStarted: true, WarmIters: 2902, LowerT: 411.7685335354547, UpperT: 4241.938024828178},
			{Dataset: "physics-1", Epoch: 3, HonestNodes: 196, Nodes: 392, Edges: 1236, AttackEdges: 8, Mu: 0.9965003790340643, HonestMu: 0.997029153030665, Converged: true, WarmStarted: true, WarmIters: 2356, LowerT: 229.13988477371592, UpperT: 2364.212299937548},
			{Dataset: "physics-1", Epoch: 4, HonestNodes: 196, Nodes: 392, Edges: 1244, AttackEdges: 16, Mu: 0.9946640081960223, HonestMu: 0.997029153030665, Converged: true, WarmStarted: true, WarmIters: 1277, LowerT: 150.00491227619497, UpperT: 1550.5733960492198},
			{Dataset: "physics-1", Epoch: 5, HonestNodes: 196, Nodes: 392, Edges: 1260, AttackEdges: 32, Mu: 0.9917937632667417, HonestMu: 0.997029153030665, Converged: true, WarmStarted: true, WarmIters: 1600, LowerT: 97.25715549052933, UpperT: 1008.2388799792031},
			{Dataset: "physics-1", Epoch: 6, HonestNodes: 196, Nodes: 392, Edges: 1292, AttackEdges: 64, Mu: 0.9812582011845532, HonestMu: 0.997029153030665, Converged: true, WarmStarted: true, WarmIters: 2025, LowerT: 42.132405923909666, UpperT: 441.46493163533955},
			{Dataset: "wiki-vote", Epoch: 0, HonestNodes: 200, Nodes: 400, Edges: 5461, AttackEdges: 1, Mu: 0.9996616416700113, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: false, WarmIters: 135, LowerT: 2377.499241356585, UpperT: 24512.621398675186},
			{Dataset: "wiki-vote", Epoch: 1, HonestNodes: 200, Nodes: 400, Edges: 5462, AttackEdges: 2, Mu: 0.9993352601854595, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 39, LowerT: 1209.7726206503946, UpperT: 12477.136856673877},
			{Dataset: "wiki-vote", Epoch: 2, HonestNodes: 200, Nodes: 400, Edges: 5464, AttackEdges: 4, Mu: 0.9986545769675481, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 48, LowerT: 597.3112169294185, UpperT: 6164.640741274532},
			{Dataset: "wiki-vote", Epoch: 3, HonestNodes: 200, Nodes: 400, Edges: 5468, AttackEdges: 8, Mu: 0.9973314157458661, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 33, LowerT: 300.7480444502502, UpperT: 3108.0336426529793},
			{Dataset: "wiki-vote", Epoch: 4, HonestNodes: 200, Nodes: 400, Edges: 5476, AttackEdges: 16, Mu: 0.9946554013829014, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 54, LowerT: 149.76205207174627, UpperT: 1551.856413233259},
			{Dataset: "wiki-vote", Epoch: 5, HonestNodes: 200, Nodes: 400, Edges: 5492, AttackEdges: 32, Mu: 0.9892936842929387, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 66, LowerT: 74.35829493532215, UpperT: 774.6875645215425},
			{Dataset: "wiki-vote", Epoch: 6, HonestNodes: 200, Nodes: 400, Edges: 5524, AttackEdges: 64, Mu: 0.9789709098585737, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 88, LowerT: 37.4622222573637, UpperT: 394.40839258010277},
			{Dataset: "wiki-vote", Epoch: 7, HonestNodes: 200, Nodes: 400, Edges: 5588, AttackEdges: 128, Mu: 0.9583234311042257, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 101, LowerT: 18.503947220922175, UpperT: 199.00989596441997},
			{Dataset: "wiki-vote", Epoch: 8, HonestNodes: 200, Nodes: 400, Edges: 5716, AttackEdges: 256, Mu: 0.9195073124272808, HonestMu: 0.9076680324125415, Converged: true, WarmStarted: true, WarmIters: 95, LowerT: 9.192697958083965, UpperT: 103.04103254856493},
		},
		2: {
			{Dataset: "physics-1", Epoch: 0, HonestNodes: 196, Nodes: 392, Edges: 1229, AttackEdges: 1, Mu: 0.9994740125580543, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: false, WarmIters: 2355, LowerT: 1529.1157545067174, UpperT: 15730.122571328242},
			{Dataset: "physics-1", Epoch: 1, HonestNodes: 196, Nodes: 392, Edges: 1230, AttackEdges: 2, Mu: 0.9989297693469101, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: true, WarmIters: 600, LowerT: 751.1069870799951, UpperT: 7730.9007258361235},
			{Dataset: "physics-1", Epoch: 2, HonestNodes: 196, Nodes: 392, Edges: 1232, AttackEdges: 4, Mu: 0.9983954425447399, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: true, WarmIters: 648, LowerT: 500.71609201816943, UpperT: 5156.466604334364},
			{Dataset: "physics-1", Epoch: 3, HonestNodes: 196, Nodes: 392, Edges: 1236, AttackEdges: 8, Mu: 0.99605601476015, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: true, WarmIters: 980, LowerT: 203.2322911436647, UpperT: 2097.839223429567},
			{Dataset: "physics-1", Epoch: 4, HonestNodes: 196, Nodes: 392, Edges: 1244, AttackEdges: 16, Mu: 0.992937740482329, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: true, WarmIters: 1249, LowerT: 113.14166806106826, UpperT: 1171.5580420235008},
			{Dataset: "physics-1", Epoch: 5, HonestNodes: 196, Nodes: 392, Edges: 1260, AttackEdges: 32, Mu: 0.985647356800808, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: true, WarmIters: 3431, LowerT: 55.26292970255752, UpperT: 576.4685164925069},
			{Dataset: "physics-1", Epoch: 6, HonestNodes: 196, Nodes: 392, Edges: 1292, AttackEdges: 64, Mu: 0.9779632204349062, HonestMu: 0.9921319385176072, Converged: true, WarmStarted: true, WarmIters: 2721, LowerT: 35.71236621224034, UpperT: 375.45626430325945},
			{Dataset: "wiki-vote", Epoch: 0, HonestNodes: 200, Nodes: 400, Edges: 5461, AttackEdges: 1, Mu: 0.9996743014734439, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: false, WarmIters: 166, LowerT: 2469.9431985310157, UpperT: 25465.41959462745},
			{Dataset: "wiki-vote", Epoch: 1, HonestNodes: 200, Nodes: 400, Edges: 5462, AttackEdges: 2, Mu: 0.9993387872049062, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 39, LowerT: 1216.2300423007903, UpperT: 12543.69198788046},
			{Dataset: "wiki-vote", Epoch: 2, HonestNodes: 200, Nodes: 400, Edges: 5464, AttackEdges: 4, Mu: 0.9986660741561761, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 56, LowerT: 602.4664148500125, UpperT: 6217.774157764381},
			{Dataset: "wiki-vote", Epoch: 3, HonestNodes: 200, Nodes: 400, Edges: 5468, AttackEdges: 8, Mu: 0.9973390054472488, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 50, LowerT: 301.60813468343696, UpperT: 3116.8983910647135},
			{Dataset: "wiki-vote", Epoch: 4, HonestNodes: 200, Nodes: 400, Edges: 5476, AttackEdges: 16, Mu: 0.9946270044136243, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 57, LowerT: 148.966287418248, UpperT: 1543.6546534922186},
			{Dataset: "wiki-vote", Epoch: 5, HonestNodes: 200, Nodes: 400, Edges: 5492, AttackEdges: 32, Mu: 0.9893838130453794, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 87, LowerT: 74.99640998554494, UpperT: 781.2644667577272},
			{Dataset: "wiki-vote", Epoch: 6, HonestNodes: 200, Nodes: 400, Edges: 5524, AttackEdges: 64, Mu: 0.9790428355159955, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 92, LowerT: 37.59355562101636, UpperT: 395.7620147722001},
			{Dataset: "wiki-vote", Epoch: 7, HonestNodes: 200, Nodes: 400, Edges: 5588, AttackEdges: 128, Mu: 0.9584588805725311, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 111, LowerT: 18.566905287614325, UpperT: 199.65878999923217},
			{Dataset: "wiki-vote", Epoch: 8, HonestNodes: 200, Nodes: 400, Edges: 5716, AttackEdges: 256, Mu: 0.9210690766571505, HonestMu: 0.9064679984742482, Converged: true, WarmStarted: true, WarmIters: 157, LowerT: 9.39051153312641, UpperT: 105.07985069521432},
		},
	}
	for _, seed := range []uint64{1, 2} {
		rows, err := EvolveAttack(Config{Scale: 0.00025, Sources: 20, MaxWalk: 200,
			SpectralTol: 1e-4, BlockSize: api.DefaultBlockSize, Seed: seed})
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
