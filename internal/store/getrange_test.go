package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// getRange streams bytes [off, off+length) of name to w through
// GetWindow, with length < 0 meaning "to the end".
func getRange(s *Store, name string, off, length int64, w io.Writer) (ReadInfo, error) {
	return s.GetWindow(name, func(int64) (int64, int64, io.Writer) { return off, length, w })
}

// TestGetRangeCorrectness slides windows across an object spanning
// several stripes — block-aligned, block-straddling, stripe-straddling,
// empty, and end-clamped — and checks each against the reference slice.
func TestGetRangeCorrectness(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	stripe := bl * k
	rng := rand.New(rand.NewSource(42))
	want := randBytes(rng, 2*stripe+700) // two full stripes plus a ragged third
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	size := int64(len(want))

	cases := []struct{ off, length int64 }{
		{0, size},                      // whole object
		{0, 1},                         // first byte
		{size - 1, 1},                  // last byte
		{0, 0},                         // empty at start
		{size, 0},                      // empty at end
		{int64(bl), int64(bl)},         // exactly block 1
		{int64(bl) - 3, 7},             // straddles blocks 0 and 1
		{int64(stripe) - 5, 11},        // straddles stripes 0 and 1
		{int64(stripe), int64(stripe)}, // exactly stripe 1
		{int64(2*stripe) + 1, 698},     // inside the ragged tail
		{size - 700, 700},              // suffix
		{37, int64(stripe) + 91},       // misaligned, > one stripe
		{size - 10, 1 << 40},           // length clamps to the end
		{0, -1},                        // negative length = to the end
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if _, err := getRange(s, "obj", c.off, c.length, &buf); err != nil {
			t.Fatalf("getRange(%d, %d): %v", c.off, c.length, err)
		}
		end := c.off + c.length
		if c.length < 0 || end > size {
			end = size
		}
		if !bytes.Equal(buf.Bytes(), want[c.off:end]) {
			t.Fatalf("getRange(%d, %d): payload mismatch (%d bytes, want %d)",
				c.off, c.length, buf.Len(), end-c.off)
		}
	}
}

// TestGetRangeReadsOnlyCoveringBlocks is the point of getRange: a small
// range must not pay for a full-object read. A window inside a single
// block of a multi-stripe object reads exactly one block.
func TestGetRangeReadsOnlyCoveringBlocks(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	stripe := bl * k
	rng := rand.New(rand.NewSource(43))
	want := randBytes(rng, 4*stripe)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}

	// Entirely inside data block 3 of stripe 1.
	off := int64(stripe + 3*bl + 10)
	var buf bytes.Buffer
	info, err := getRange(s, "obj", off, 50, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want[off:off+50]) {
		t.Fatal("payload mismatch")
	}
	if info.BlocksRead != 1 {
		t.Fatalf("single-block range read %d blocks, want 1", info.BlocksRead)
	}
	// BytesRead counts on-disk block bytes (payload plus framing), so
	// bound it by one block with headroom — far below the 40-block object.
	if info.BytesRead > int64(2*bl) {
		t.Fatalf("single-block range read %d bytes, want about one %d-byte block", info.BytesRead, bl)
	}

	// A range over blocks 2..5 of one stripe reads exactly those four.
	off = int64(2 * bl)
	buf.Reset()
	info, err = getRange(s, "obj", off, int64(4*bl), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want[off:off+int64(4*bl)]) {
		t.Fatal("payload mismatch")
	}
	if info.BlocksRead != 4 {
		t.Fatalf("four-block range read %d blocks, want 4", info.BlocksRead)
	}

	// Never worse than the covering-block bound, even across stripes.
	off = int64(stripe - 1)
	length := int64(stripe + 2)
	buf.Reset()
	info, err = getRange(s, "obj", off, length, &buf)
	if err != nil {
		t.Fatal(err)
	}
	covering := int64(0)
	for st := 0; st < 4; st++ {
		base, end := int64(st*stripe), int64((st+1)*stripe)
		lo, hi := max64(off, base), min64(off+length, end)
		if lo < hi {
			covering += (hi-1)/int64(bl) - lo/int64(bl) + 1
		}
	}
	if int64(info.BlocksRead) > covering {
		t.Fatalf("range read %d blocks, covering bound is %d", info.BlocksRead, covering)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestGetRangeDegraded: a ranged read through dead nodes still returns
// the right bytes (reconstructing within the covering window).
func TestGetRangeDegraded(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	stripe := bl * k
	rng := rand.New(rand.NewSource(44))
	want := randBytes(rng, 3*stripe+99)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	s.KillNode(2)
	s.KillNode(7)
	for _, c := range []struct{ off, length int64 }{
		{0, int64(len(want))},
		{int64(stripe + 5), int64(2 * bl)},
		{int64(len(want)) - 50, 50},
	} {
		var buf bytes.Buffer
		info, err := getRange(s, "obj", c.off, c.length, &buf)
		if err != nil {
			t.Fatalf("degraded getRange(%d, %d): %v", c.off, c.length, err)
		}
		if !bytes.Equal(buf.Bytes(), want[c.off:c.off+c.length]) {
			t.Fatalf("degraded getRange(%d, %d): payload mismatch", c.off, c.length)
		}
		_ = info
	}
}

// TestGetRangeErrors: bad offsets are ErrBadRange (and ErrNotFound for
// missing objects), all matchable with errors.Is.
func TestGetRangeErrors(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	defer s.Close()
	if err := s.Put("obj", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := getRange(s, "obj", -1, 4, &buf); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative offset: got %v, want ErrBadRange", err)
	}
	if _, err := getRange(s, "obj", 12, 1, &buf); !errors.Is(err, ErrBadRange) {
		t.Fatalf("offset past end: got %v, want ErrBadRange", err)
	}
	if _, err := getRange(s, "obj", 11, 0, &buf); err != nil {
		t.Fatalf("empty range at exact end: %v", err)
	}
	if _, err := getRange(s, "missing", 0, 4, &buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: got %v, want ErrNotFound", err)
	}
	if _, err := getRange(s, "missing", 0, 4, &buf); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("missing object: got %v, want ErrObjectNotFound", err)
	}
}

// TestGetRangeZeroLengthObject: ranges against an empty object.
func TestGetRangeZeroLengthObject(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	defer s.Close()
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := getRange(s, "empty", 0, 10, &buf); err != nil {
		t.Fatalf("range on empty object: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty object returned %d bytes", buf.Len())
	}
	if _, err := getRange(s, "empty", 1, 1, &buf); !errors.Is(err, ErrBadRange) {
		t.Fatalf("offset past empty object: got %v, want ErrBadRange", err)
	}
}

// TestGetRangeMatchesGet cross-checks getRange(0, size) against Get for
// a spread of object sizes, including sub-block and exactly-aligned.
func TestGetRangeMatchesGet(t *testing.T) {
	const bl = 64
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, bl - 1, bl, bl + 1, bl * k, bl*k + 1, 3 * bl * k} {
		name := fmt.Sprintf("obj-%d", n)
		want := randBytes(rng, n)
		if err := s.Put(name, want); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := getRange(s, name, 0, int64(n), &buf); err != nil {
			t.Fatalf("getRange(%q): %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("getRange(%q): mismatch", name)
		}
	}
}

// TestGetRangeEmptyWindowNoBackendReads: the edge windows — explicit
// length 0 anywhere, and off == size (with or without a clamped
// length) — succeed with zero bytes written and zero backend reads.
// Regression: an empty window must never cost a covering-stripe fetch.
func TestGetRangeEmptyWindowNoBackendReads(t *testing.T) {
	rec := newIORecorder(NewMemBackend())
	s := newTestStore(t, Config{Backend: rec, BlockSize: 128})
	defer s.Close()
	k := s.Codec().K()
	want := randBytes(rand.New(rand.NewSource(77)), 128*k+40)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	size := int64(len(want))
	before := rec.reqs("Read", "ReadInto")
	for _, c := range []struct{ off, length int64 }{
		{0, 0},          // empty at start
		{17, 0},         // empty mid-object
		{size, 0},       // empty at end
		{size, -1},      // off == size, "to the end" clamps to nothing
		{size, 1 << 30}, // off == size, oversized length clamps to nothing
	} {
		var buf bytes.Buffer
		info, err := getRange(s, "obj", c.off, c.length, &buf)
		if err != nil {
			t.Fatalf("getRange(%d, %d): %v", c.off, c.length, err)
		}
		if buf.Len() != 0 || info.BytesWritten != 0 {
			t.Fatalf("getRange(%d, %d) wrote %d bytes, want 0", c.off, c.length, buf.Len())
		}
		if info.BlocksRead != 0 || info.BytesRead != 0 {
			t.Fatalf("getRange(%d, %d) cost %d blocks / %d bytes, want free", c.off, c.length, info.BlocksRead, info.BytesRead)
		}
	}
	if got := rec.reqs("Read", "ReadInto"); got != before {
		t.Fatalf("empty windows hit the backend: %d -> %d reads", before, got)
	}
	// One past the end stays an error, not an empty success.
	if _, err := getRange(s, "obj", size+1, 0, &bytes.Buffer{}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("getRange(size+1, 0) = %v, want ErrBadRange", err)
	}
}
