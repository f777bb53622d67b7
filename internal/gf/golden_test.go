package gf_test

import (
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/gf"
	"repro/internal/lrc"
	"repro/internal/pattern"
	"repro/internal/rs"
)

// patternStripe is ten data blocks cut from the head of the pattern
// stream: the fixed stripe the golden parities are taken over.
func patternStripe(t testing.TB, size int) [][]byte {
	t.Helper()
	r := pattern.NewReader(int64(10 * size))
	data := make([][]byte, 10)
	for i := range data {
		data[i] = make([]byte, size)
		if _, err := io.ReadFull(r, data[i]); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

// encoders builds both codecs anew: a Code fixes the body of its encode
// tables when it first encodes, so each body gets its own.
func encoders(t testing.TB) map[string]func(data, parity [][]byte) error {
	t.Helper()
	r, err := rs.New256(10, 14)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(data, parity [][]byte) error{
		"xorbas": lrc.NewXorbas().EncodeInto,
		"rs":     r.EncodeInto,
	}
}

// goldenParityCRCs are the CRC32C of every parity block of patternStripe,
// captured from the commit before the vector kernels existed (PR 13,
// 05cd2fd). They are the on-disk format: a kernel that moves one of them
// makes every stored stripe fail its scrub.
var goldenParityCRCs = map[int]map[string][]uint32{
	1 << 20: {
		"xorbas": {0x00cb9e84, 0xe57e53ed, 0xbbd14f0e, 0xddef1587, 0xc5566b88, 0x46ddfc68},
		"rs":     {0x00cb9e84, 0xe57e53ed, 0xbbd14f0e, 0xddef1587},
	},
	6403: { // 200 kernel steps and a three-byte tail
		"xorbas": {0x24205968, 0x24029047, 0x0dc72cbc, 0x905a11ae, 0x1656f943, 0x8be90d7e},
		"rs":     {0x24205968, 0x24029047, 0x0dc72cbc, 0x905a11ae},
	},
}

func TestGoldenParities(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, vector := range gf.Bodies() {
		gf.SetBody(t, vector)
		for size, golden := range goldenParityCRCs {
			data := patternStripe(t, size)
			for name, encode := range encoders(t) {
				parity := make([][]byte, len(golden[name]))
				for j := range parity {
					parity[j] = make([]byte, size)
				}
				if err := encode(data, parity); err != nil {
					t.Fatal(err)
				}
				for j, p := range parity {
					if got := crc32.Checksum(p, castagnoli); got != golden[name][j] {
						t.Errorf("vector=%v %s size %d parity %d: CRC32C %#08x, golden %#08x",
							vector, name, size, j, got, golden[name][j])
					}
				}
			}
		}
	}
}

// TestEncodeIntoDoesNotAllocate: a stripe encode into caller buffers
// allocates nothing, on either body.
func TestEncodeIntoDoesNotAllocate(t *testing.T) {
	const size = 64 << 10
	data := patternStripe(t, size)
	for _, vector := range gf.Bodies() {
		gf.SetBody(t, vector)
		for name, encode := range encoders(t) {
			parity := make([][]byte, 6)
			for j := range parity {
				parity[j] = make([]byte, size)
			}
			if name == "rs" {
				parity = parity[:4]
			}
			if err := encode(data, parity); err != nil { // builds the tables
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(10, func() { _ = encode(data, parity) }); n != 0 {
				t.Errorf("vector=%v %s: EncodeInto allocates %v times per stripe, want 0", vector, name, n)
			}
		}
	}
}
