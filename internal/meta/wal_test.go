package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestDecodeRecordHugeOpCount: an op count no record could hold is
// corruption, reported as such — not a slice sized from it, which
// panics (count past the addressable range) or allocates count ops.
func TestDecodeRecordHugeOpCount(t *testing.T) {
	for _, count := range []uint64{1 << 50, 1 << 20, 2} {
		payload := binary.AppendUvarint(nil, count)
		if _, err := decodeRecord(payload); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("op count %d with no ops: err = %v, want ErrCorruptLog", count, err)
		}
	}
}

// FuzzDecodeRecord: the WAL record decoder never panics on arbitrary
// payloads, and every op list it accepts re-encodes through encodeRecord
// to a record that decodes to the same ops.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<50))
	f.Add(encodeRecord([]txOp{
		{key: "o/obj", enc: []byte("manifest")},
		{del: true, key: "q/obj/0"},
		{key: "empty"},
	})[8:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, err := decodeRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("error %v is not ErrCorruptLog", err)
			}
			return
		}
		staged := make([]txOp, len(ops))
		for i, op := range ops {
			staged[i] = txOp{del: op.del, key: op.key, enc: op.val}
		}
		again, err := decodeRecord(encodeRecord(staged)[8:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if len(again) != len(ops) {
			t.Fatalf("re-encoded record has %d ops, want %d", len(again), len(ops))
		}
		for i := range ops {
			if again[i].del != ops[i].del || again[i].key != ops[i].key || !bytes.Equal(again[i].val, ops[i].val) {
				t.Fatalf("op %d: re-decoded %+v, want %+v", i, again[i], ops[i])
			}
		}
	})
}
