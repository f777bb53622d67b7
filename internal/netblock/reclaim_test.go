package netblock

import (
	"testing"

	"repro/internal/store"
)

// TestReclaimRoundTripsPerOverwrite counts the requests that reach the
// block servers while a store over them overwrites one-stripe objects.
// Each overwrite writes its 16 blocks and retires the 16 of the version
// it replaces. Through DeleteMany the retired keys go one request per
// node per 16 overwrites, 17 round trips per overwrite; a backend without
// BatchDeleter is sent one Delete per key, 32 per overwrite — what every
// overwrite cost when it deleted on its own ack path.
func TestReclaimRoundTripsPerOverwrite(t *testing.T) {
	const nodes, overwrites = 16, 32
	for _, tc := range []struct {
		name    string
		batched bool
		want    float64
	}{
		{"DeleteMany", true, 17},
		{"one Delete per key", false, 32},
	} {
		cl := startCluster(t, nodes)
		var be store.Backend = cl.client
		if !tc.batched {
			be = struct{ store.Backend }{cl.client} // hides BatchDeleter
		}
		s, err := store.New(store.Config{Backend: be, Nodes: nodes, BlockSize: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		obj := make([]byte, s.Codec().K()<<10)
		names := []string{"o0", "o1", "o2", "o3"}
		for _, name := range names {
			if err := s.Put(name, obj); err != nil {
				t.Fatal(err)
			}
		}
		served := func() (n int64) {
			for i := 0; i < nodes; i++ {
				n += cl.server(i).requests.Load()
			}
			return n
		}
		before := served()
		for i := 0; i < overwrites; i++ {
			if err := s.Put(names[i%len(names)], obj); err != nil {
				t.Fatal(err)
			}
		}
		if got := float64(served()-before) / overwrites; got != tc.want {
			t.Errorf("%s: %.2f round trips per overwrite, want %v", tc.name, got, tc.want)
		}
		if n := s.Metrics().ReclaimPendingBlocks; n != 0 {
			t.Errorf("%s: %d blocks pending after %d overwrites, want two whole batches", tc.name, n, overwrites)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
