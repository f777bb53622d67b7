package store

import (
	"sync"
	"time"
)

// Limiter is a token-bucket byte limiter. It paces the background
// datapaths — the paper bounds the BlockFixer's load so repair traffic
// never starves foreground reads, so one bucket paces every background
// block move and a second the scrubber's integrity walk — and serves as
// foreground QoS: the gateway gives each tenant one and rejects instead
// of queueing when the bucket is in debt. Charging happens *after* each
// backend read with the actual byte count (a debt model): a block larger
// than the burst is still admitted and the bucket simply goes negative,
// so the long-run average converges on the configured budget regardless
// of block size.
//
// A nil *Limiter is valid and means unlimited — the zero-config fast
// path costs one pointer test.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // token cap; also the max accumulated idle credit
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter for the given budget in bytes per second,
// nil when the budget is unlimited (≤ 0). The burst is kept small
// relative to the rate (1/16 s of budget, floored at one typical block
// frame) so a paced run's measured rate stays within a few percent of
// the configured one even over short windows.
func NewLimiter(bytesPerSec int64) *Limiter {
	if bytesPerSec <= 0 {
		return nil
	}
	burst := float64(bytesPerSec) / 16
	if burst < 128<<10 {
		burst = 128 << 10
	}
	return &Limiter{rate: float64(bytesPerSec), burst: burst, last: time.Now()}
}

// refillLocked credits tokens for the time since the last charge. Call
// with l.mu held.
func (l *Limiter) refillLocked(now time.Time) {
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
}

// Admit is the non-blocking admission check: when the bucket is out of
// debt, n bytes are charged (the bucket may go negative — a single large
// object is admitted whole) and ok is true; when the bucket is still
// paying off earlier debt, nothing is charged and wait reports how long
// until it breaks even. The gateway turns a false into 429 + Retry-After
// instead of queueing the client.
func (l *Limiter) Admit(n int64) (wait time.Duration, ok bool) {
	if l == nil || n < 0 {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked(time.Now())
	if l.tokens < 0 {
		return time.Duration(-l.tokens / l.rate * float64(time.Second)), false
	}
	l.tokens -= float64(n)
	return 0, true
}

// Charge debits n bytes without ever sleeping — post-hoc accounting for
// flows whose size is only known after the fact (a chunked HTTP upload).
// The debt shows up in the next Admit.
func (l *Limiter) Charge(n int64) {
	if l != nil && n > 0 {
		l.debit(n)
	}
}

// take charges n bytes against the bucket, sleeping off any debt — the
// blocking discipline the background datapaths use. Safe for concurrent
// use; concurrent workers share one budget.
func (l *Limiter) take(n int64) {
	if l != nil && n > 0 {
		time.Sleep(l.debit(n))
	}
}

// debit charges n bytes and returns how long until the bucket is out of
// the debt that leaves (0 when there is none).
func (l *Limiter) debit(n int64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked(time.Now())
	l.tokens -= float64(n)
	return time.Duration(max(-l.tokens, 0) / l.rate * float64(time.Second))
}
