package store

import "time"

// Hedged stripe reads: the tail-tolerance move from Dean & Barroso's
// "The Tail at Scale", with erasure reconstruction as the backup
// request. A stripe fetch fans out one read per data block; when the
// stragglers sit past a configured quantile of recent block-read
// latency, the store stops waiting and races the degraded path —
// reconstruct the outstanding positions from the blocks already in hand
// plus parity — against the stragglers. Whichever completes the stripe
// first wins; the loser's bytes are still accounted, never double-used.

// hedgeDelay returns how long a stripe fetch waits on stragglers before
// firing the reconstruction race, or 0 when hedging is disabled.
func (s *Store) hedgeDelay() time.Duration {
	q := s.cfg.HedgeQuantile
	if q <= 0 || q >= 1 {
		return 0
	}
	d := s.readLat.Quantile(q)
	if d < s.cfg.HedgeMinDelay {
		d = s.cfg.HedgeMinDelay
	}
	return d
}

// hedgeRead is one position's fetch outcome.
type hedgeRead struct {
	pos     int
	payload []byte
	acct    readAcct
	err     error
}

// fetchPositionsHedged is fetchPositions' hedging variant: every wanted
// position fetches concurrently; results arriving within the hedge
// delay land in scratch as usual, and if stragglers remain past the
// deadline the reconstruction race fires. The racing reconstruction
// works on its own stripe slice and avail copy (payloads already in
// hand — cache hits included — are shared read-only), so the straggler
// goroutines and the decode never touch the same memory. A losing path
// keeps running in the background until its reads resolve; its
// accounting merges into the store counters so no byte goes uncounted.
func (s *Store) fetchPositionsHedged(si *stripeInfo, scratch [][]byte, want []int, avail []bool, res *fetchResult, delay time.Duration) {
	n := s.cfg.Codec.NStored()
	results := make(chan hedgeRead, len(want)) // buffered: stragglers never block after abandonment
	for _, pos := range want {
		go func(pos int) {
			var r hedgeRead
			r.pos = pos
			// No lent frame (dst nil): a straggler abandoned to the race
			// is never joined, so it must not hold a buffer anyone takes
			// back.
			r.payload, r.err = s.readBlockPayload(si, pos, &r.acct, nil, nil)
			results <- r
		}(pos)
	}

	var missing []int
	outstanding := len(want)
	// land folds one position's answer into the stripe, wherever in the
	// race it arrives.
	land := func(r hedgeRead) {
		outstanding--
		res.acct.add(&r.acct)
		if r.err != nil {
			avail[r.pos] = false
			missing = append(missing, r.pos)
			return
		}
		scratch[r.pos] = r.payload
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	fired := false
collect:
	for outstanding > 0 {
		select {
		case r := <-results:
			land(r)
		case <-timer.C:
			fired = true
			break collect
		}
	}
	if !fired {
		// Everyone answered (or failed) in time: the plain degraded path.
		if len(missing) > 0 {
			res.acct.degraded = true
			if err := s.reconstructPositions(si, scratch, missing, avail, &res.acct, nil, nil); err != nil {
				res.err = err
			}
		}
		return
	}

	// Stragglers outstanding past the deadline: fire the hedge.
	s.m.hedgeFires.Add(1)
	straggling := make(map[int]bool, outstanding)
	for _, pos := range want {
		if scratch[pos] == nil && !contains(missing, pos) {
			straggling[pos] = true
		}
	}
	// The reconstruction race: targets are the stragglers plus whatever
	// already failed outright. It runs on copies — reconAvail marks the
	// stragglers dead so PlanReads routes around them, reconStripe
	// shares only the read-only payloads already in hand.
	targets := append([]int(nil), missing...)
	for pos := range straggling {
		targets = append(targets, pos)
	}
	reconStripe := make([][]byte, n)
	copy(reconStripe, scratch)
	reconAvail := append([]bool(nil), avail...)
	for pos := range straggling {
		reconAvail[pos] = false
	}
	type reconResult struct {
		stripe [][]byte
		acct   readAcct
		err    error
	}
	reconCh := make(chan reconResult, 1)
	go func() {
		var r reconResult
		r.stripe = reconStripe
		r.err = s.reconstructPositions(si, reconStripe, targets, reconAvail, &r.acct, nil, nil)
		reconCh <- r
	}()

	// Race the stragglers against the decode. Whichever completes the
	// stripe first wins; the loser drains in the background, merging its
	// accounting into the store-wide counters.
	res.acct.degraded = true
	for {
		select {
		case r := <-results:
			land(r)
			if outstanding > 0 {
				continue
			}
			// All stragglers resolved before the decode: discard the race
			// (it keeps running; its reads are merged when it finishes)
			// and repair any genuine failures in place.
			go func() {
				r := <-reconCh
				s.m.mergeRead(&r.acct)
			}()
			if len(missing) > 0 {
				if err := s.reconstructPositions(si, scratch, missing, avail, &res.acct, nil, nil); err != nil {
					res.err = err
				}
			}
			return
		case r := <-reconCh:
			if r.err != nil {
				// The decode lost its own sources; the stragglers are now
				// the only hope, so go back to waiting on them.
				res.acct.add(&r.acct)
				for outstanding > 0 {
					land(<-results)
				}
				if len(missing) > 0 {
					if err := s.reconstructPositions(si, scratch, missing, avail, &res.acct, nil, nil); err != nil {
						res.err = err
					}
				}
				return
			}
			// Reconstruction beat the stragglers: take its payloads for
			// every position still outstanding or failed, and abandon the
			// straggler reads (they drain into the buffered channel; a
			// background goroutine folds their cost into the counters).
			s.m.hedgeWins.Add(1)
			res.acct.add(&r.acct)
			for _, pos := range targets {
				if scratch[pos] == nil && r.stripe[pos] != nil {
					scratch[pos] = r.stripe[pos]
				}
			}
			if outstanding > 0 {
				go func(left int) {
					var a readAcct
					for i := 0; i < left; i++ {
						sr := <-results
						a.add(&sr.acct)
					}
					s.m.mergeRead(&a)
				}(outstanding)
			}
			return
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
