package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error FaultBackend returns for an injected failure;
// tests assert against it to tell chaos from genuine bugs.
var ErrInjected = errors.New("store: injected fault")

// Fault is one node's misbehavior profile. The zero value is a healthy
// node.
type Fault struct {
	// ErrRate is the probability in [0,1] that an operation on the node
	// fails with ErrInjected (flaky NIC, dying disk).
	ErrRate float64
	// Latency is added to every operation on the node before it runs —
	// the slow-node half of a degraded read scenario.
	Latency time.Duration
	// CorruptRate is the probability in [0,1] that a Read's payload
	// comes back with a flipped byte (bit-rot on the wire or platter).
	// The stored bytes are never touched: corruption is injected on a
	// copy, exactly like a bad wire.
	CorruptRate float64
}

// FaultBackend wraps a Backend with a static per-node fault table — the
// chaos harness behind the degraded-read and repair tests. A fault that
// changes over time is a chaos.Schedule whose Runner calls SetFault at
// each step; the table holds only what is in force now. It forwards
// WireStats to the inner backend when present, so a faulty netblock
// client keeps its wire counters. Safe for concurrent use.
type FaultBackend struct {
	inner Backend

	mu     sync.Mutex
	rng    *rand.Rand
	faults map[int]Fault
}

// NewFaultBackend wraps inner; seed makes the injected chaos
// reproducible.
func NewFaultBackend(inner Backend, seed int64) *FaultBackend {
	return &FaultBackend{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		faults: make(map[int]Fault),
	}
}

// SetFault installs node's misbehavior profile, replacing any previous
// one. A zero Fault heals the node.
func (f *FaultBackend) SetFault(node int, fl Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl == (Fault{}) {
		delete(f.faults, node)
		return
	}
	f.faults[node] = fl
}

// roll decides one operation's fate for node: the added latency, whether
// to fail, and whether to corrupt (reads only). One lock hold per op;
// the sleep happens outside the lock.
func (f *FaultBackend) roll(node int) (delay time.Duration, fail, corrupt bool) {
	f.mu.Lock()
	if fl, ok := f.faults[node]; ok {
		delay = fl.Latency
		fail = fl.ErrRate > 0 && f.rng.Float64() < fl.ErrRate
		corrupt = fl.CorruptRate > 0 && f.rng.Float64() < fl.CorruptRate
	}
	f.mu.Unlock()
	return delay, fail, corrupt
}

// apply sleeps the injected latency and returns the injected error, if
// any.
func apply(node int, delay time.Duration, fail bool) error {
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return fmt.Errorf("%w: node %d", ErrInjected, node)
	}
	return nil
}

// Write implements Backend.
func (f *FaultBackend) Write(node int, key string, data []byte) error {
	delay, fail, _ := f.roll(node)
	if err := apply(node, delay, fail); err != nil {
		return err
	}
	return f.inner.Write(node, key, data)
}

// Read implements Backend. Injected corruption flips one byte of a copy
// of the block — the inner backend's stored bytes (which Read may alias)
// stay pristine, so the same block can read clean on the next attempt,
// exactly like a transient wire fault.
func (f *FaultBackend) Read(node int, key string) ([]byte, error) {
	return f.ReadInto(node, key, nil)
}

// ReadInto implements IntoReader behind the same fault gate as Read, so
// a store over the harness runs the path it ships with: dst is passed to
// an inner backend that takes one (and Read is the dst == nil case), and
// an inner backend that does not is read through Read. Corruption flips a
// byte in place when the inner result is dst's memory — the caller's own
// buffer, where a bad wire would have put it — and on a copy otherwise,
// because what the inner backend returned may be its stored block.
func (f *FaultBackend) ReadInto(node int, key string, dst []byte) ([]byte, error) {
	delay, fail, corrupt := f.roll(node)
	if err := apply(node, delay, fail); err != nil {
		return nil, err
	}
	b, err := readInto(f.inner, node, key, dst)
	if err != nil || !corrupt || len(b) == 0 {
		return b, err
	}
	if cap(dst) == 0 || &b[0] != &dst[:1][0] {
		b = append([]byte(nil), b...)
	}
	f.mu.Lock()
	i := f.rng.Intn(len(b))
	f.mu.Unlock()
	b[i] ^= 0x55
	return b, nil
}

// Delete implements Backend.
func (f *FaultBackend) Delete(node int, key string) error {
	delay, fail, _ := f.roll(node)
	if err := apply(node, delay, fail); err != nil {
		return err
	}
	return f.inner.Delete(node, key)
}

// DeleteMany implements BatchDeleter behind the same gate as Delete, one
// roll for the whole call — so a store over the harness reclaims through
// the path it ships with — and forwards to an inner BatchDeleter, or
// deletes key by key when the inner backend has none.
func (f *FaultBackend) DeleteMany(node int, keys []string) error {
	delay, fail, _ := f.roll(node)
	if err := apply(node, delay, fail); err != nil {
		return err
	}
	return deleteMany(f.inner, node, keys)
}

// WireTraffic implements WireStats by delegation; a non-networked inner
// backend reports nil.
func (f *FaultBackend) WireTraffic() (sent, recv []int64) {
	if ws, ok := f.inner.(WireStats); ok {
		return ws.WireTraffic()
	}
	return nil, nil
}

// CheckNode implements HealthChecker: the injected fault applies (an
// ErrRate-1 node fails every probe, injected latency delays it), then
// the probe delegates to the inner backend's checker when it has one.
// A HealthMonitor over a FaultBackend therefore sees scripted deaths
// exactly as it would see real ones.
func (f *FaultBackend) CheckNode(node int) error {
	delay, fail, _ := f.roll(node)
	if err := apply(node, delay, fail); err != nil {
		return err
	}
	if hc, ok := f.inner.(HealthChecker); ok {
		return hc.CheckNode(node)
	}
	return nil
}

// NodeHealth implements HealthStats by delegation; a non-tracking inner
// backend reports nil.
func (f *FaultBackend) NodeHealth() []NodeHealthInfo {
	if hs, ok := f.inner.(HealthStats); ok {
		return hs.NodeHealth()
	}
	return nil
}

// AddNode implements NodeAdder by delegation, so elastic membership
// grows through the chaos harness: new nodes are born healthy (no fault
// entry) and pick up faults via SetFault like any other. An inner
// backend without per-node addressing declines with ErrUnsupported and
// the store skips registration.
func (f *FaultBackend) AddNode(addr string) (int, error) {
	if na, ok := f.inner.(NodeAdder); ok {
		return na.AddNode(addr)
	}
	return -1, fmt.Errorf("store: fault backend: add node: %w", errors.ErrUnsupported)
}
