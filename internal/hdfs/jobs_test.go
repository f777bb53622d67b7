package hdfs

import (
	"testing"

	"repro/internal/lrc"
)

func TestPickNodePreferences(t *testing.T) {
	eng, cl := testCluster(t, 4)
	jt := NewJobTracker(cl, 1)
	_ = eng
	// Preferred node with a free slot wins.
	if got := jt.pickNode(2); got != 2 {
		t.Fatalf("got %d want 2", got)
	}
	// Preferred busy: any free node.
	jt.used[2] = 1
	if got := jt.pickNode(2); got == 2 || got < 0 {
		t.Fatalf("busy preferred node returned %d", got)
	}
	// Dead preferred node: fall back to live ones.
	cl.Kill(1)
	if got := jt.pickNode(1); got == 1 || got < 0 {
		t.Fatalf("dead preferred node returned %d", got)
	}
	// Everything full: -1.
	for i := range jt.used {
		jt.used[i] = 1
	}
	if got := jt.pickNode(-1); got != -1 {
		t.Fatalf("saturated cluster returned %d", got)
	}
}

func TestActiveJobsAndAccounting(t *testing.T) {
	eng, cl := testCluster(t, 3)
	jt := NewJobTracker(cl, 2)
	if jt.ActiveJobs() != 0 {
		t.Fatal("fresh tracker has active jobs")
	}
	j := &Job{Name: "j"}
	for i := 0; i < 3; i++ {
		j.AddTask(&Task{PreferredNode: -1, Run: func(node int, finish func()) {
			eng.Schedule(5, finish)
		}})
	}
	jt.Submit(j)
	if jt.ActiveJobs() != 1 {
		t.Fatal("job not active after submit")
	}
	eng.Run()
	if jt.ActiveJobs() != 0 || !j.Done() {
		t.Fatal("job not finished")
	}
	if j.Completed() != 3 || j.Total() != 3 {
		t.Fatalf("accounting %d/%d", j.Completed(), j.Total())
	}
	if j.FinishedAt < j.SubmittedAt {
		t.Fatal("timestamps inverted")
	}
}

// A finish callback invoked twice must not corrupt slot accounting.
func TestDoubleFinishIgnored(t *testing.T) {
	eng, cl := testCluster(t, 2)
	jt := NewJobTracker(cl, 1)
	var fin func()
	j := &Job{Name: "j"}
	j.AddTask(&Task{PreferredNode: -1, Run: func(node int, finish func()) {
		fin = finish
		eng.Schedule(1, finish)
	}})
	jt.Submit(j)
	eng.Run()
	fin() // second call: ignored
	if j.Completed() != 1 {
		t.Fatalf("completed %d want 1", j.Completed())
	}
	for _, u := range jt.used {
		if u != 0 {
			t.Fatal("slot accounting corrupted by double finish")
		}
	}
}

// Tasks greatly outnumbering slots drain fully (wave scheduling).
func TestWaveScheduling(t *testing.T) {
	eng, cl := testCluster(t, 2) // 4 slots
	jt := NewJobTracker(cl, 2)
	j := &Job{Name: "waves"}
	ran := 0
	for i := 0; i < 50; i++ {
		j.AddTask(&Task{PreferredNode: -1, Run: func(node int, finish func()) {
			ran++
			eng.Schedule(1, finish)
		}})
	}
	jt.Submit(j)
	eng.Run()
	if ran != 50 || !j.Done() {
		t.Fatalf("ran %d done=%v", ran, j.Done())
	}
	// 50 tasks over 4 slots at 1 s each ≈ 13 waves.
	if eng.Now() < 12 || eng.Now() > 14 {
		t.Fatalf("drained at t=%f, want ≈13", eng.Now())
	}
}

// Zero-slot config falls back to the default.
func TestTrackerDefaults(t *testing.T) {
	_, cl := testCluster(t, 2)
	jt := NewJobTracker(cl, 0)
	if jt.slotsPerNode != 2 {
		t.Fatalf("default slots %d want 2", jt.slotsPerNode)
	}
}

// The repair window survives an empty fixer scan.
func TestFixerScanNoWork(t *testing.T) {
	eng, cl := testCluster(t, 10)
	fs := testFS(t, cl, lrc.NewXorbas())
	stripes, _ := fs.AddFile("f", 10)
	fs.LoseBlock(stripes[0], 3)
	// Block "recovers" (e.g. transient) before the scan.
	stripes[0].Lost[3] = false
	eng.Run()
	if fs.Snapshot().BlocksRepaired != 0 {
		t.Fatal("no repair should have run")
	}
}
