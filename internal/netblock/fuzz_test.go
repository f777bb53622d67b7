package netblock

import (
	"bytes"
	"fmt"
	"testing"
)

// checkPinned fails the fuzz run when parsing in allocated more than
// readBody's pinned-memory contract allows for the bytes supplied.
func checkPinned(t *testing.T, in []byte, alloc int) {
	t.Helper()
	if !raceEnabled && alloc > pinBound(len(in)) {
		t.Fatalf("%d input bytes made the parser allocate %d, want <= %d", len(in), alloc, pinBound(len(in)))
	}
}

// FuzzReadRequest throws arbitrary bytes at the server's request parser:
// it must not panic, must not allocate past the pinned-memory contract
// however large a payload the header claims, and a frame that parses is
// exactly sized (cap == len), no longer than the input, and re-encodes
// to the bytes it was parsed from. The parsed request then goes through
// validateRequest, which must not panic either; an opDeleteMany it
// accepts holds keys that each pass the single-key rule and re-encode to
// the payload.
func FuzzReadRequest(f *testing.F) {
	payload := bytes.Repeat([]byte{0xA5}, 300)
	for _, op := range []byte{opWrite, opRead, opDelete, opPing} {
		key, data := "obj.g000001.s00000.b00", []byte(nil)
		switch op {
		case opWrite:
			data = payload
		case opPing:
			key = ""
		}
		f.Add(appendRequest(nil, op, 3, key, data))
	}
	// The retired chunked-transfer ops, framed as they were: a windowed
	// read ('C', 12-byte window spec) and a staged upload's begin, append
	// and commit ('B', 'A', 'M'). Each is an unknown op now.
	f.Add(appendRequest(nil, 'C', 3, "obj.g000001.s00000.b00", make([]byte, 12)))
	f.Add(appendRequest(nil, 'B', 3, "obj.g000001.s00000.b00", nil))
	f.Add(appendRequest(nil, 'A', 3, "obj.g000001.s00000.b00", payload))
	f.Add(appendRequest(nil, 'M', 3, "obj.g000001.s00000.b00", nil))
	f.Add(appendHeader(nil, opWrite, 0, "k", maxDataLen)) // hostile: claims 1 GiB, sends nothing
	// Key lists: a reclamation batch's worth, a 1 GiB claim, a length
	// prefix cut short, and one hostile key among good ones.
	batch := make([]string, 256)
	for i := range batch {
		batch[i] = fmt.Sprintf("obj%03d.g000001.s00000.b%02d", i/16, i%16)
	}
	f.Add(appendRequest(nil, opDeleteMany, 3, "", appendKeyList(nil, batch)))
	f.Add(appendHeader(nil, opDeleteMany, 0, "", maxDataLen))
	f.Add(appendRequest(nil, opDeleteMany, 0, "", append(appendKeyList(nil, batch[:2]), 5)))
	f.Add(appendRequest(nil, opDeleteMany, 0, "", appendKeyList(nil, []string{batch[0], "../../escape"})))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		var req request
		var err error
		checkPinned(t, in, allocBytes(func() { req, err = readRequest(r) }))
		if err != nil {
			return
		}
		used := len(in) - r.Len()
		if want := int(requestWireLen(req.key, req.data)); used != want {
			t.Fatalf("parser consumed %d bytes for a %d-byte frame", used, want)
		}
		if cap(req.data) != len(req.data) {
			t.Fatalf("payload len %d cap %d", len(req.data), cap(req.data))
		}
		if again := appendRequest(nil, req.op, req.node, req.key, req.data); !bytes.Equal(again, in[:used]) {
			t.Fatalf("frame re-encodes to different bytes:\n in  %x\n out %x", in[:used], again)
		}
		if validateRequest(&req) != nil || req.op != opDeleteMany {
			return
		}
		for _, k := range req.keys {
			if err := validateKey(k); err != nil {
				t.Fatalf("accepted key list holds a refused key: %v", err)
			}
		}
		if again := appendKeyList(nil, req.keys); !bytes.Equal(again, req.data) {
			t.Fatalf("key list re-encodes to different bytes:\n in  %x\n out %x", req.data, again)
		}
	})
}

// FuzzReadResponse is the same contract for the client's response
// parser, which faces a hostile or corrupted server — with and without a
// caller's buffer of fuzzed capacity (dstCap < 0: none). A payload that
// fits the buffer must land in it and allocate nothing of its own; one
// that does not must come back exactly as without a buffer, and a header
// claiming more than the buffer holds must stay inside the pinned-memory
// contract all the same.
func FuzzReadResponse(f *testing.F) {
	for _, status := range []byte{statusOK, statusNotFound, statusError, statusBadKey} {
		var frame bytes.Buffer
		writeResponse(&frame, status, []byte("block bytes, or an error message"))
		f.Add(frame.Bytes(), -1)
		f.Add(frame.Bytes(), 32) // the payload fits exactly
		f.Add(frame.Bytes(), 31) // one byte short
	}
	f.Add([]byte{statusOK, 0, 0, 0, 0}, -1)         // empty OK
	f.Add([]byte{statusOK, 0, 0, 0, 0}, 0)          // empty OK into an empty buffer
	f.Add([]byte{statusOK, 0, 0, 0, 0x40}, -1)      // hostile: claims 1 GiB, sends nothing
	f.Add([]byte{statusOK, 0, 0, 0, 0x40}, 1<<20+4) // the same against a block-sized buffer
	f.Fuzz(func(t *testing.T, in []byte, dstCap int) {
		var dst []byte
		if dstCap >= 0 {
			dst = make([]byte, dstCap%(2<<20))
		}
		r := bytes.NewReader(in)
		var status byte
		var data []byte
		var wire int64
		var err error
		announced := -1
		checkPinned(t, in, allocBytes(func() {
			status, data, wire, err = readResponse(r, func(size int) { announced = size }, dst)
		}))
		if err != nil {
			return
		}
		used := len(in) - r.Len()
		if used != respHeaderLen+len(data) || wire != int64(used) {
			t.Fatalf("parser consumed %d bytes, reported %d, for a %d-byte payload", used, wire, len(data))
		}
		if announced != len(data) {
			t.Fatalf("onSize announced %d bytes, payload has %d", announced, len(data))
		}
		fits := dst != nil && len(data) <= cap(dst)
		if len(data) > 0 && aliases(data, dst) != fits {
			t.Fatalf("%d-byte payload, %d-byte buffer: payload in the buffer = %v", len(data), cap(dst), !fits)
		}
		if !fits && cap(data) != len(data) {
			t.Fatalf("payload len %d cap %d", len(data), cap(data))
		}
		var again bytes.Buffer
		writeResponse(&again, status, data)
		if !bytes.Equal(again.Bytes(), in[:used]) {
			t.Fatalf("frame re-encodes to different bytes:\n in  %x\n out %x", in[:used], again.Bytes())
		}
	})
}
