// Package chaos runs declarative fault schedules against a live block
// cluster — the harness behind the self-healing acceptance tests and
// the examples/selfheal demo. A Schedule is data ("kill node 3 at
// t=2s, +50ms latency on node 4 at t=1s, heal at t=6s"), a Target
// knows how to hurt a specific cluster, and the Runner walks the
// schedule on a Clock — the wall clock unless a test swaps in a manual
// one. Schedule is the store world's only time-varying fault script:
// store.FaultBackend holds a static per-node table, and a fault that
// changes over time is a Schedule whose steps call its SetFault.
// Keeping the scenario declarative means the same script can drive a
// loopback TCP fleet in a unit test, the selfheal demo, or (through
// another Target) a real deployment.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/store"
)

// Op is one kind of injected trouble.
type Op string

const (
	// OpKill hard-stops the node's process (SIGKILL: listener and all
	// in-flight connections die).
	OpKill Op = "kill"
	// OpRestart boots a fresh, empty process for the node — a crashed
	// machine rejoining with its RAM (and for a memory-backed node, its
	// blocks) gone.
	OpRestart Op = "restart"
	// OpFault installs the step's Fault profile on the node: latency for
	// a straggler, ErrRate 1 for a partition, CorruptRate for bit-rot.
	OpFault Op = "fault"
	// OpHeal clears the node's fault profile.
	OpHeal Op = "heal"
)

// Step is one scheduled action: at offset At from Run's start, do Op to
// Node.
type Step struct {
	At    time.Duration
	Node  int
	Op    Op
	Fault store.Fault // OpFault's profile; ignored otherwise
}

// Schedule is a fault script. Steps may be listed in any order; the
// runner sorts by offset (stable, so same-instant steps keep their
// listed order).
type Schedule []Step

// Target is a cluster the runner can hurt. Implementations must be
// safe for concurrent use with whatever traffic the test keeps running.
type Target interface {
	Kill(node int) error
	Restart(node int) error
	SetFault(node int, f store.Fault) error
}

// Clock is the time source a Runner waits on. The wall clock is the
// default; tests swap in a manual clock so a schedule fires at exact
// virtual offsets with no real waits.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// wallClock is the real Clock.
type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Runner executes one schedule against one target.
type Runner struct {
	target Target
	sched  Schedule
	clock  Clock
}

// NewRunner builds a runner on the wall clock; the schedule is copied
// and sorted.
func NewRunner(target Target, sched Schedule) *Runner {
	s := append(Schedule(nil), sched...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return &Runner{target: target, sched: s, clock: wallClock{}}
}

// Run walks the schedule on the runner's clock from now: each step fires
// at its offset (late steps fire immediately in order). Run returns when
// the schedule is exhausted or ctx is done — ctx is checked before every
// step, so a cancelled run fires nothing more, due or not — joining any
// step errors: a failed injection means the scenario didn't happen,
// which a chaos test must treat as its own failure, not as survival.
func (r *Runner) Run(ctx context.Context) error {
	start := r.clock.Now()
	var errs []error
	for _, st := range r.sched {
		if err := ctx.Err(); err != nil {
			return errors.Join(append(errs, err)...)
		}
		if wait := start.Add(st.At).Sub(r.clock.Now()); wait > 0 {
			select {
			case <-ctx.Done():
				return errors.Join(append(errs, ctx.Err())...)
			case <-r.clock.After(wait):
			}
		}
		var err error
		switch st.Op {
		case OpKill:
			err = r.target.Kill(st.Node)
		case OpRestart:
			err = r.target.Restart(st.Node)
		case OpFault:
			err = r.target.SetFault(st.Node, st.Fault)
		case OpHeal:
			err = r.target.SetFault(st.Node, store.Fault{})
		default:
			err = fmt.Errorf("chaos: unknown op %q", st.Op)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("chaos t=%s %s node %d: %w", st.At, st.Op, st.Node, err))
		}
	}
	return errors.Join(errs...)
}
