package lrc

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestEncodeParallelMatchesSerial(t *testing.T) {
	c := NewXorbas()
	r := rand.New(rand.NewSource(41))
	data := randData(r, 10, 4096)
	want, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8, 32} {
		got, err := c.EncodeParallel(data, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: shard %d differs", workers, i)
			}
		}
	}
}

func TestEncodeParallelValidation(t *testing.T) {
	c := NewXorbas()
	if _, err := c.EncodeParallel(make([][]byte, 3), 2); err == nil {
		t.Fatal("short data accepted")
	}
	bad := make([][]byte, 10)
	for i := range bad {
		bad[i] = make([]byte, 8)
	}
	bad[4] = nil
	if _, err := c.EncodeParallel(bad, 2); err == nil {
		t.Fatal("nil shard accepted")
	}
}

// Concurrent encoders on one shared Code must not race (run with -race).
func TestCodeConcurrentUse(t *testing.T) {
	c := NewXorbas()
	r := rand.New(rand.NewSource(42))
	data := randData(r, 10, 1024)
	want, _ := c.Encode(data)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			stripe, err := c.EncodeParallel(data, 4)
			if err != nil {
				done <- err
				return
			}
			work := make([][]byte, 16)
			copy(work, stripe)
			work[3] = nil
			if _, _, err := c.Reconstruct(work); err != nil {
				done <- err
				return
			}
			if !bytes.Equal(work[3], want[3]) {
				done <- errMismatch
				return
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errString("concurrent reconstruction mismatch")

type errString string

func (e errString) Error() string { return string(e) }

func BenchmarkEncodeParallel(b *testing.B) {
	c := NewXorbas()
	r := rand.New(rand.NewSource(1))
	data := randData(r, 10, 1<<20)
	b.SetBytes(10 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeParallel(data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeIntoParallelAllocatesPerGoroutineOnly: a worker hands its
// byte window down to the kernels instead of re-slicing 16 blocks, so the
// per-worker cost is the go statement's two closures (the function and
// its bound arguments) and nothing that grows with the block count.
func TestEncodeIntoParallelAllocatesPerGoroutineOnly(t *testing.T) {
	c := NewXorbas()
	r := rand.New(rand.NewSource(43))
	data := randData(r, 10, 64<<10)
	parity := randData(r, 6, 64<<10)
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := c.EncodeIntoParallel(data, parity, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := allocs(1); n != 0 {
		t.Errorf("one worker allocates %v times, want 0", n)
	}
	const workers = 8
	if n := allocs(workers); n > 2*workers+1 {
		t.Errorf("%d workers allocate %v times, want two per goroutine and the WaitGroup", workers, n)
	}
}
