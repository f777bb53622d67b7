package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// crc32cBitwise is CRC-32C (Castagnoli, reflected polynomial 0x82F63B78)
// one bit at a time: a reference for the frame header that shares no
// table or code with hash/crc32.
func crc32cBitwise(p []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range p {
		crc ^= uint32(b)
		for k := 0; k < 8; k++ {
			crc = crc>>1 ^ 0x82f63b78&-(crc&1)
		}
	}
	return ^crc
}

// FuzzUnframeBlock throws arbitrary bytes at the block frame parser, the
// CRC check every block read from a node passes through. It must not
// panic; it accepts b exactly when b holds a 4-byte header equal to the
// CRC-32C of the rest, and then returns b[4:] itself, not a copy; it
// rejects everything else with ErrCorrupt. Framing the input with
// AppendFrame and parsing it back always returns the input.
func FuzzUnframeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(FrameBlock(nil))
	f.Add(FrameBlock([]byte("payload")))
	flipped := FrameBlock(bytes.Repeat([]byte{0xA5}, 100))
	flipped[50] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		want := len(b) >= 4 && binary.LittleEndian.Uint32(b) == crc32cBitwise(b[4:])
		p, err := UnframeBlock(b)
		switch {
		case want && err != nil:
			t.Fatalf("valid %d-byte frame rejected: %v", len(b), err)
		case !want && err == nil:
			t.Fatalf("invalid %d-byte frame accepted", len(b))
		case err != nil && (!errors.Is(err, ErrCorrupt) || p != nil):
			t.Fatalf("rejection returned payload of %d bytes and error %v, want nil and ErrCorrupt", len(p), err)
		case err == nil:
			rest := b[4:]
			if len(p) != len(rest) || cap(p) != cap(rest) || unsafe.SliceData(p) != unsafe.SliceData(rest) {
				t.Fatalf("accepted payload does not alias b[4:]")
			}
		}

		framed := AppendFrame(nil, b)
		back, err := UnframeBlock(framed)
		if err != nil || !bytes.Equal(back, b) {
			t.Fatalf("AppendFrame of %d bytes does not round-trip: %v", len(b), err)
		}
	})
}

// keyByte reports whether c may appear in a block key: the charset the
// netblock server holds every wire-supplied key to.
func keyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '-' || c == '_'
}

// FuzzValidateName holds the object-name key contract. ValidateName
// accepts exactly the names of 1 to 1024 bytes in [A-Za-z0-9._/-] with no
// empty, "." or ".." segment, and a rejection wraps ErrBadKey. For every
// name it accepts, the block keys it yields — with the generation, stripe
// and position at their widest — pass the netblock key charset and, with
// DirBackend's temp-file prefix and its longest suffix ("-" and a
// 10-digit random number), fit a 255-byte file name; the generation
// read back from the key is the one it was built with (recovery resumes
// past it), however many ".g" and ".s" the name holds; and a relocation
// record naming such a block parses back to the same node and key.
func FuzzValidateName(f *testing.F) {
	for _, seed := range []string{
		"", "a", "obj", "t/bucket/obj.v1", "a//b", "./a", "a/..", "/a", "a/", "sp ace", "ü",
		"obj.g000123.s00000.b00", "a.g1/b.s2.g", "x.s", "x.g",
		strings.Repeat("x", maxNameLen), strings.Repeat("x", maxNameLen+1), strings.Repeat("ab/", 341) + "c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		want := len(name) >= 1 && len(name) <= maxNameLen
		for _, seg := range strings.Split(name, "/") {
			want = want && seg != "" && seg != "." && seg != ".."
			for i := 0; i < len(seg); i++ {
				want = want && keyByte(seg[i])
			}
		}
		err := ValidateName(name)
		switch {
		case want && err != nil:
			t.Fatalf("valid name %q rejected: %v", name, err)
		case !want && err == nil:
			t.Fatalf("invalid name %q accepted", name)
		case err != nil && !errors.Is(err, ErrBadKey):
			t.Fatalf("rejection of %q is %v, want ErrBadKey", name, err)
		case err != nil:
			return
		}
		for _, n := range []struct {
			gen         int64
			stripe, pos int
		}{{1, 0, 0}, {math.MaxInt64, math.MaxInt, math.MaxInt}} {
			key := blockKey(name, n.gen, n.stripe, n.pos)
			if key == "." || key == ".." {
				t.Fatalf("name %q: block key %q", name, key)
			}
			for i := 0; i < len(key); i++ {
				if !keyByte(key[i]) {
					t.Fatalf("name %q: block key %q holds byte %q", name, key, key[i])
				}
			}
			if got := keyGen(key); got != n.gen {
				t.Fatalf("name %q: block key %q reads back generation %d, want %d", name, key, got, n.gen)
			}
			if tmp := tmpPrefix + key + "-4294967295"; len(tmp) > 255 {
				t.Fatalf("name %q: temp file name is %d bytes, want <= 255", name, len(tmp))
			}
			for _, node := range []int{0, math.MaxInt} {
				b := blockRef{node: node, key: key}
				back, err := parseRelocKey(relocKey(b))
				if err != nil || back != b {
					t.Fatalf("relocation record %q parses to %+v, %v; want %+v", relocKey(b), back, err, b)
				}
			}
		}
	})
}
