package hdfs

import (
	"math/rand"
	"testing"

	"repro/internal/lrc"
)

// Randomized failure injection: a long sequence of kills, restarts,
// block corruptions and drains, with invariants checked after every
// quiescent point. The invariants are the filesystem's safety contract:
//
//  1. no stripe references a live block on a dead node;
//  2. every block is either available, or pending repair, or the stripe
//     genuinely lost more than d−1 blocks (accounted as unrecoverable);
//  3. counters are monotone and mutually consistent.
func TestStressRandomFailureInjection(t *testing.T) {
	for _, scheme := range []*lrc.Code{lrc.NewXorbas(), lrc.NewRS104()} {
		scheme := scheme
		t.Run(scheme.Name(), func(t *testing.T) {
			eng, cl := testCluster(t, 40)
			fs := testFS(t, cl, scheme)
			for i := 0; i < 30; i++ {
				if _, err := fs.AddFile("f", 10); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(77))
			prev := fs.Snapshot()
			down := map[int]bool{}
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // kill a live node (keep enough for placement)
					live := cl.LiveNodes()
					if len(live) > 20 {
						n := live[rng.Intn(len(live))]
						fs.KillNode(n)
						down[n] = true
					}
				case op < 7: // restart a down node (transient resolution)
					for n := range down {
						fs.RestartNode(n)
						delete(down, n)
						break
					}
				default: // corrupt/lose one random block
					stripes := fs.Stripes()
					s := stripes[rng.Intn(len(stripes))]
					fs.LoseBlock(s, rng.Intn(len(s.Node)))
				}
				// Let a random amount of simulated time pass.
				eng.RunUntil(eng.Now() + float64(10+rng.Intn(600)))
			}
			eng.Run() // full drain

			snap := fs.Snapshot()
			if snap.BlocksRepaired < prev.BlocksRepaired {
				t.Fatal("repair counter went backwards")
			}
			if snap.LightRepairs+snap.HeavyRepairs != snap.BlocksRepaired {
				t.Fatalf("light %d + heavy %d != repaired %d",
					snap.LightRepairs, snap.HeavyRepairs, snap.BlocksRepaired)
			}
			for si, s := range fs.Stripes() {
				lostCount := 0
				for pos, nd := range s.Node {
					if nd < 0 {
						continue
					}
					if !s.Lost[pos] && !cl.Alive(nd) {
						t.Fatalf("stripe %d pos %d: live block on dead node %d", si, pos, nd)
					}
					if s.Lost[pos] {
						lostCount++
					}
				}
				// After the drain, survivors of recoverable stripes are
				// fully repaired; stripes beyond tolerance keep losses and
				// the unrecoverable counter must have fired.
				if lostCount > 0 && snap.Unrecoverable == 0 {
					t.Fatalf("stripe %d still has %d lost blocks but nothing was marked unrecoverable", si, lostCount)
				}
			}
		})
	}
}

// Determinism under the stress sequence: identical seeds give identical
// final counters.
func TestStressDeterminism(t *testing.T) {
	run := func() Counters {
		eng, cl := testCluster(t, 30)
		fs := testFS(t, cl, lrc.NewXorbas())
		for i := 0; i < 15; i++ {
			if _, err := fs.AddFile("f", 10); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 20; step++ {
			live := cl.LiveNodes()
			if len(live) > 18 {
				fs.KillNode(live[rng.Intn(len(live))])
			}
			eng.RunUntil(eng.Now() + float64(50+rng.Intn(300)))
		}
		eng.Run()
		return fs.Snapshot()
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}
