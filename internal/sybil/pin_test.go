package sybil

import (
	"strings"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

// slowGraph is a slow-mixing fixture: four BA communities joined by
// two bridges each, so short routes rarely leave their community.
func slowGraph() *graph.Graph {
	g := gen.CommunityBA(4, 50, 2, 2, rng(3))
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

// bits renders admission decisions as a 0/1 string.
func bits(acc []bool) string {
	var b strings.Builder
	for _, a := range acc {
		if a {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// pinnedVerify is one characterisation case: a fixture, a verifier,
// a configuration and the complete Result it must produce.
type pinnedVerify struct {
	name     string
	slow     bool
	verifier graph.NodeID
	cfg      Config
	// Expected Result fields.
	r, w, accepted, noInt, balance int
	bits                           string
}

var pinnedVerifyCases = []pinnedVerify{
	{name: "fast/w1", verifier: 0, cfg: Config{W: 1, Seed: 7},
		r: 126, w: 1, accepted: 0, noInt: 199, balance: 0,
		bits: "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{name: "fast/w2", verifier: 0, cfg: Config{W: 2, Seed: 7},
		r: 126, w: 2, accepted: 180, noInt: 19, balance: 0,
		bits: "1111111111111111111111111111111111111111111111101011111111111111111111111111111111111111111111111111111111111111111110111011111111111111111111111111001101101101110111110001110110111011111011111101101"},
	{name: "fast/w6", verifier: 0, cfg: Config{W: 6, Seed: 7},
		r: 126, w: 6, accepted: 199, noInt: 0, balance: 0,
		bits: "1111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111"},
	{name: "fast/w30", verifier: 0, cfg: Config{W: 30, Seed: 7},
		r: 126, w: 30, accepted: 199, noInt: 0, balance: 0,
		bits: "1111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111111"},
	{name: "fast/w6-r37", verifier: 3, cfg: Config{W: 6, R: 37, Seed: 13},
		r: 37, w: 6, accepted: 77, noInt: 122, balance: 0,
		bits: "0100010111110100101001111100010000001110101101000000001101000010010111000100000001100000111100111110001100000010101000111001000011110011001111010011000000000110010000000010011000000110000101100000010"},
	{name: "fast/w12-floor1", verifier: 0, cfg: Config{W: 12, R: 30, Seed: 5, BalanceFloor: 1, BalanceMult: 0.001},
		r: 30, w: 12, accepted: 29, noInt: 121, balance: 49,
		bits: "1001000010010000000000000010000100000001000000000000000010000000100000000000000110000000000000001111001000000010000000000000000011101010011000000000100000001001000000000000000000000001000000000100000"},
	{name: "fast/w6-lazy", verifier: 2, cfg: Config{W: 6, R: 50, Seed: 13, Lazy: true},
		r: 50, w: 6, accepted: 151, noInt: 48, balance: 0,
		bits: "1000110110110101101011111111011111110111011111111111101101110111010111101001111110111111001101111011011011011111110111111100101011100011111111101111101101111111111111010011111001111011111000111111111"},
	{name: "slow/w1", slow: true, verifier: 5, cfg: Config{W: 1, Seed: 3},
		r: 69, w: 1, accepted: 0, noInt: 149, balance: 0,
		bits: "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	{name: "slow/w6", slow: true, verifier: 5, cfg: Config{W: 6, Seed: 3},
		r: 69, w: 6, accepted: 68, noInt: 81, balance: 0,
		bits: "11111111111111111111111111111111111111111111111110110110010000000100110000101000001000010000000100100000000100000000000000000010100000000100000100000"},
	{name: "slow/w30", slow: true, verifier: 5, cfg: Config{W: 30, Seed: 3},
		r: 69, w: 30, accepted: 131, noInt: 18, balance: 0,
		bits: "11111111111111111111111111111111111111111111111111111000111011110100111101101111101011101011101110111110111111111111111101111111101111111111111111111"},
	{name: "slow/w10-r23-floor1", slow: true, verifier: 17, cfg: Config{W: 10, R: 23, Seed: 2, BalanceFloor: 1},
		r: 23, w: 10, accepted: 44, noInt: 102, balance: 3,
		bits: "11101111111111111011010111001111111001110011011110010000000010000000000000001000010000000000010000000000000000000000000000000000000000000100000000000"},
	{name: "slow/w30-lazy", slow: true, verifier: 5, cfg: Config{W: 30, R: 40, Seed: 3, Lazy: true},
		r: 40, w: 30, accepted: 96, noInt: 53, balance: 0,
		bits: "11111111111111111111111111111111111111111111111110111000011001000100110000000000100010001000100110111010111111111001111000100011100101001111000111110"},
}

// TestVerifyPinned pins complete Verify Results — counts and every
// admission decision — on a fast- and a slow-mixing fixture across
// route lengths, an explicit R, a starved balance budget and the
// PRF-lazy permutations.
func TestVerifyPinned(t *testing.T) {
	fast, slow := fastGraph(200), slowGraph()
	for _, c := range pinnedVerifyCases {
		g := fast
		if c.slow {
			g = slow
		}
		p, err := NewProtocol(g, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Verify(c.verifier, AllHonest(g, c.verifier))
		if res.R != c.r || res.W != c.w || res.NumAccepted != c.accepted ||
			res.NoIntersection != c.noInt || res.BalanceRejected != c.balance {
			t.Errorf("%s: R=%d W=%d accepted=%d noInt=%d balance=%d, want %d %d %d %d %d",
				c.name, res.R, res.W, res.NumAccepted, res.NoIntersection, res.BalanceRejected,
				c.r, c.w, c.accepted, c.noInt, c.balance)
		}
		if got := bits(res.Accepted); got != c.bits {
			t.Errorf("%s: decisions\n got %s\nwant %s", c.name, got, c.bits)
		}
	}
}
