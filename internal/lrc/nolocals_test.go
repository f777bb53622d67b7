package lrc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rs"
)

// forEachErasure calls fn with every subset of {0..n-1} of size 1..max,
// in lexicographic order. The slice is reused between calls.
func forEachErasure(n, max int, fn func(erased []int)) {
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) > 0 {
			fn(chosen)
		}
		if len(chosen) == max {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, make([]int, 0, max))
}

// TestNoLocalsIsRS104 is the equivalence that lets the program run its
// RS(10,4) baseline as the GroupSize-0 member of this package: against
// package rs's independent any-k-columns decoder, the no-locals code
// stores the same bytes, plans the reads an MDS code plans (every
// survivor when deployed, the first k survivors when minimal, never
// light) and decodes the same bytes for every pattern of ≤ 4 erasures.
func TestNoLocalsIsRS104(t *testing.T) {
	c := NewRS104()
	ref, err := rs.New256(10, 14)
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 14, 10

	if c.NStored() != n || c.NPre() != n || c.K() != k {
		t.Fatalf("geometry (%d stored, %d precode, k=%d), want (14, 14, 10)", c.NStored(), c.NPre(), c.K())
	}
	if d := c.MinDistance(); d != 5 {
		t.Errorf("MinDistance %d, want 5 (MDS: n-k+1)", d)
	}
	if r := c.Locality(); r != k {
		t.Errorf("Locality %d, want %d", r, k)
	}
	if g := c.Groups(); len(g) != 0 {
		t.Errorf("Groups %v, want none", g)
	}
	if c.FullyLocal() || c.StorageOverhead() != 0.4 {
		t.Errorf("FullyLocal %v overhead %v, want false 0.4", c.FullyLocal(), c.StorageOverhead())
	}
	for i := 0; i < n; i++ {
		if _, _, ok := c.Recipe(i); ok {
			t.Errorf("block %d has a light recipe", i)
		}
		if g := c.GroupOf(i); g != -1 {
			t.Errorf("block %d in group %d, want -1", i, g)
		}
	}
	if !reflect.DeepEqual(c.Generator(), ref.Generator()) {
		t.Fatal("generator differs from the Appendix D precode")
	}
	// The deployed read counts package rs's planner returned before it was
	// folded into this one: 14-e survivors, never light.
	for e, want := range []float64{13, 12, 11, 10} {
		if st := c.RepairStats(e+1, true); st.AvgReads != want || st.LightFraction != 0 {
			t.Errorf("RepairStats(%d, deployed) = %+v; want %v reads, 0 light", e+1, st, want)
		}
	}

	// Parity bytes on an odd length (vector body plus scalar tail).
	const size = 4103
	rng := rand.New(rand.NewSource(18))
	data := randData(rng, k, size)
	stripe, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(stripe[i], want[i]) {
			t.Fatalf("stored block %d differs from rs.Encode", i)
		}
	}

	exists := fullMask(n, true)
	got, refGot := make([][]byte, 4), make([][]byte, 4)
	for i := range got {
		got[i], refGot[i] = make([]byte, size), make([]byte, size)
	}
	patterns := 0
	forEachErasure(n, 4, func(erased []int) {
		patterns++
		avail := fullMask(n, true)
		work := append([][]byte(nil), stripe...)
		for _, i := range erased {
			avail[i], work[i] = false, nil
		}
		var survivors []int
		for i, a := range avail {
			if a {
				survivors = append(survivors, i)
			}
		}
		for _, lost := range erased {
			dep, err := c.PlanRepair(lost, exists, avail, true)
			if err != nil || dep.Light || !reflect.DeepEqual(dep.Reads, survivors) {
				t.Fatalf("erased %v, deployed plan for %d: %+v, %v; want heavy reads %v", erased, lost, dep, err, survivors)
			}
			min, err := c.PlanRepair(lost, exists, avail, false)
			if err != nil || min.Light || !reflect.DeepEqual(min.Reads, survivors[:k]) {
				t.Fatalf("erased %v, minimal plan for %d: %+v, %v; want heavy reads %v", erased, lost, min, err, survivors[:k])
			}
		}
		e := len(erased)
		filled, light, err := c.ReconstructManyInto(work, erased, got[:e])
		if err != nil {
			t.Fatalf("erased %v: %v", erased, err)
		}
		if err := ref.ReconstructColsInto(work, erased, refGot[:e]); err != nil {
			t.Fatalf("erased %v: rs reference: %v", erased, err)
		}
		for oi, i := range erased {
			if !filled[oi] || light[oi] {
				t.Fatalf("erased %v: block %d filled %v light %v, want a heavy rebuild", erased, i, filled[oi], light[oi])
			}
			if !bytes.Equal(got[oi], refGot[oi]) || !bytes.Equal(got[oi], stripe[i]) {
				t.Fatalf("erased %v: block %d differs from the rs decoder or the original", erased, i)
			}
		}
	})
	if patterns != 14+91+364+1001 {
		t.Fatalf("swept %d erasure patterns, want 1470", patterns)
	}
	// A fifth erasure is beyond both the planner and the decoder.
	avail := fullMask(n, true)
	work := append([][]byte(nil), stripe...)
	for i := 0; i < 5; i++ {
		avail[i], work[i] = false, nil
	}
	if _, err := c.PlanRepair(0, exists, avail, false); err == nil {
		t.Error("planned a repair from 9 survivors")
	}
	if _, _, err := c.ReconstructManyInto(work, []int{0}, got[:1]); err == nil {
		t.Error("decoded from 9 survivors")
	}

	// A zero-padded 3-block stripe has 3 data unknowns: its minimal
	// repair reads 3 blocks, not 10 (the Table 3 small-file effect).
	short, shortAvail := make([]bool, n), make([]bool, n)
	for i := range short {
		short[i] = c.Exists(i, 3)
		shortAvail[i] = short[i] && i != 1
	}
	if p, err := c.PlanRepair(1, short, shortAvail, false); err != nil || !reflect.DeepEqual(p.Reads, []int{0, 2, 10}) {
		t.Errorf("3-block stripe minimal plan %+v, %v; want reads [0 2 10]", p, err)
	}

	// Silent corruption: no group syndromes to triage with, so the trial
	// rebuild alone must pin any single flipped bit.
	for j := 0; j < n; j++ {
		bad := append([][]byte(nil), stripe...)
		bad[j] = append([]byte(nil), stripe[j]...)
		bad[j][j*7] ^= 0x10
		if ok, err := c.Verify(bad); err != nil || ok {
			t.Fatalf("Verify with block %d corrupted: %v, %v", j, ok, err)
		}
		if loc, err := c.LocateCorruption(bad); err != nil || !reflect.DeepEqual(loc, []int{j}) {
			t.Fatalf("LocateCorruption with block %d corrupted: %v, %v", j, loc, err)
		}
	}
	if loc, err := c.LocateCorruption(stripe); err != nil || loc != nil {
		t.Fatalf("LocateCorruption on a clean stripe: %v, %v", loc, err)
	}
}

// TestNoLocalsRepeatedPatterns: repeated heavy decodes of one
// availability pattern (the steady-state node-repair shape) and
// interleaved decodes of several stay correct, for both codes.
func TestNoLocalsRepeatedPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, c := range []*Code{NewRS104(), NewXorbas()} {
		// Two losses in one group force the heavy decoder on Xorbas too.
		patterns := [][]int{{2, 3}, {0, 1}, {2, 3}, {2, 3, 11}, {0, 1}}
		for round, lost := range patterns {
			stripe, err := c.Encode(randData(rng, c.K(), 48))
			if err != nil {
				t.Fatal(err)
			}
			work := append([][]byte(nil), stripe...)
			for _, i := range lost {
				work[i] = nil
			}
			payloads, _, err := c.ReconstructMany(work, lost)
			if err != nil {
				t.Fatal(err)
			}
			for oi, i := range lost {
				if !bytes.Equal(payloads[oi], stripe[i]) {
					t.Fatalf("n=%d round %d: decode of block %d wrong", c.NStored(), round, i)
				}
			}
		}
	}
}

// TestRSStripeIsXorbasPrefix is §3.1's backwards compatibility: the local
// parities are appended, so an RS(10,4) stripe is the first 14 blocks of
// the Xorbas stripe of the same data and an RS-coded file becomes an LRC
// one by adding blocks, rewriting none.
func TestRSStripeIsXorbasPrefix(t *testing.T) {
	data := randData(rand.New(rand.NewSource(10)), 10, 4103)
	rsStripe, err := NewRS104().Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	xorbas, err := NewXorbas().Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range rsStripe {
		if !bytes.Equal(b, xorbas[i]) {
			t.Fatalf("RS block %d is not Xorbas block %d", i, i)
		}
	}
}
