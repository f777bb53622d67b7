package store

import (
	"bytes"
	"encoding/binary"
	"errors"
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
