package lrc

import (
	"bytes"
	"math/rand"
	"testing"
)

func mustPyramid(t testing.TB) *Code {
	t.Helper()
	c, err := NewPyramid(Xorbas) // (10, 4) RS with one parity split in two
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPyramidLayout(t *testing.T) {
	c := mustPyramid(t)
	// 10 data + 2 sub-parities + 3 surviving globals = 15 blocks (vs the
	// LRC's 16): pyramid trades 0.1 blocks of overhead for parity locality.
	if c.NStored() != 15 {
		t.Fatalf("stored %d want 15", c.NStored())
	}
	if got := c.StorageOverhead(); got != 0.5 {
		t.Fatalf("overhead %f want 0.5", got)
	}
	for i := 0; i < 10; i++ {
		if c.Kind(i) != Data {
			t.Fatalf("pos %d kind %v", i, c.Kind(i))
		}
	}
	for i := 10; i < 12; i++ {
		if c.Kind(i) != LocalParity {
			t.Fatalf("pos %d kind %v", i, c.Kind(i))
		}
	}
	for i := 12; i < 15; i++ {
		if c.Kind(i) != GlobalParity {
			t.Fatalf("pos %d kind %v", i, c.Kind(i))
		}
	}
}

// The defining contrast with the paper's LRC (§6): data blocks repair
// locally, global parities do not.
func TestPyramidLocalityContrast(t *testing.T) {
	pyr := mustPyramid(t)
	xor := NewXorbas()
	if pyr.DataLocality() != 5 {
		t.Fatalf("pyramid data locality %d want 5", pyr.DataLocality())
	}
	if pyr.FullyLocal() {
		t.Fatal("pyramid global parities should not be locally repairable")
	}
	if pyr.Locality() != 10 {
		t.Fatalf("pyramid overall locality %d want k=10", pyr.Locality())
	}
	if !xor.FullyLocal() || xor.Locality() != 5 {
		t.Fatal("the LRC must be fully local at r=5")
	}
	// Sub-parities themselves repair locally from their group.
	for _, i := range []int{10, 11} {
		reads, _, ok := pyr.Recipe(i)
		if !ok || len(reads) != 5 {
			t.Fatalf("sub-parity %d recipe %v ok=%v", i, reads, ok)
		}
	}
	// Globals have no recipe.
	for _, i := range []int{12, 13, 14} {
		if _, _, ok := pyr.Recipe(i); ok {
			t.Fatalf("global parity %d unexpectedly light-repairable", i)
		}
	}
}

// The split preserves the RS fault tolerance: exact distance 5 (any 4
// erasures recoverable), like both RS(10,4) and the LRC.
func TestPyramidDistance(t *testing.T) {
	c := mustPyramid(t)
	if d := c.MinDistance(); d != 5 {
		t.Fatalf("pyramid distance %d want 5", d)
	}
}

func TestPyramidEncodeRoundTrip(t *testing.T) {
	c := mustPyramid(t)
	r := rand.New(rand.NewSource(31))
	stripe, err := c.Encode(randData(r, 10, 64))
	if err != nil {
		t.Fatal(err)
	}
	// Σ sub-parities = the split RS parity P1.
	pre, _ := c.Precode().Encode(stripe[:10])
	p1 := make([]byte, 64)
	for i := range p1 {
		p1[i] = stripe[10][i] ^ stripe[11][i]
	}
	if !bytes.Equal(p1, pre[10]) {
		t.Fatal("sub-parities do not sum to the split parity")
	}
	// Single data-block failure: light repair, 5 reads.
	for lost := 0; lost < 10; lost++ {
		work := make([][]byte, 15)
		copy(work, stripe)
		work[lost] = nil
		got, light, err := c.ReconstructBlock(work, lost)
		if err != nil || !light {
			t.Fatalf("lost=%d light=%v err=%v", lost, light, err)
		}
		if !bytes.Equal(got, stripe[lost]) {
			t.Fatalf("lost=%d wrong payload", lost)
		}
	}
	// Global parity failure: heavy decode.
	work := make([][]byte, 15)
	copy(work, stripe)
	work[13] = nil
	got, light, err := c.ReconstructBlock(work, 13)
	if err != nil {
		t.Fatal(err)
	}
	if light {
		t.Fatal("global parity should need a heavy decode")
	}
	if !bytes.Equal(got, stripe[13]) {
		t.Fatal("heavy decode wrong")
	}
}

func TestPyramidAllFourErasures(t *testing.T) {
	c := mustPyramid(t)
	r := rand.New(rand.NewSource(32))
	stripe, _ := c.Encode(randData(r, 10, 16))
	var idx [4]int
	for idx[0] = 0; idx[0] < 15; idx[0]++ {
		for idx[1] = idx[0] + 1; idx[1] < 15; idx[1]++ {
			for idx[2] = idx[1] + 1; idx[2] < 15; idx[2]++ {
				for idx[3] = idx[2] + 1; idx[3] < 15; idx[3]++ {
					work := make([][]byte, 15)
					copy(work, stripe)
					for _, i := range idx {
						work[i] = nil
					}
					if _, _, err := c.Reconstruct(work); err != nil {
						t.Fatalf("pattern %v: %v", idx, err)
					}
					for _, i := range idx {
						if !bytes.Equal(work[i], stripe[i]) {
							t.Fatalf("pattern %v: block %d wrong", idx, i)
						}
					}
				}
			}
		}
	}
}

func TestPyramidValidation(t *testing.T) {
	if _, err := NewPyramid(Params{K: 10, GlobalParities: 1, GroupSize: 5}); err == nil {
		t.Fatal("single parity cannot be split and kept")
	}
	if _, err := NewPyramid(Params{K: 10, GlobalParities: 4, GroupSize: 5, StoreImplied: true}); err == nil {
		t.Fatal("StoreImplied should be rejected")
	}
	if _, err := NewPyramid(Params{K: 0, GlobalParities: 4, GroupSize: 5}); err == nil {
		t.Fatal("bad params accepted")
	}
}

// Expected repair reads: pyramid matches the LRC for single failures of
// data blocks but pays k-wide decodes when a global parity dies — its
// average sits between the LRC and RS.
func TestPyramidExpectedReads(t *testing.T) {
	pyr := mustPyramid(t)
	xor := NewXorbas()
	pAvg := pyr.RepairStats(1, true).AvgReads
	xAvg := xor.RepairStats(1, true).AvgReads
	if !(pAvg > xAvg) {
		t.Fatalf("pyramid avg %f should exceed the LRC's %f (global parities decode heavily)", pAvg, xAvg)
	}
	if pAvg >= 13 {
		t.Fatalf("pyramid avg %f should beat deployed RS (13)", pAvg)
	}
}
