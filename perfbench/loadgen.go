package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of Poisson arrivals at rate
// per second over d, fixed by seed and conditioned on their count in
// each second: every whole second gets rate arrivals (rounded), drawn
// uniformly within it, and a trailing part second its share. Bursts
// within a second, which is where a fan-out's service time makes
// requests queue, stay random; the slow drift of a free-running
// process, which made the medians of two seeds differ more than two
// builds, is taken out.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for lo := time.Duration(0); lo < d; lo += time.Second {
		width := min(time.Second, d-lo)
		n := int(math.Round(rate * width.Seconds()))
		slot := make([]time.Duration, n)
		for i := range slot {
			slot[i] = lo + time.Duration(rng.Int63n(int64(width)))
		}
		sort.Slice(slot, func(i, j int) bool { return slot[i] < slot[j] })
		due = append(due, slot...)
	}
	return due
}

// loadResult is what a generator measured.
type loadResult struct {
	lat      []time.Duration // per operation: due time to completion
	late     []time.Duration // per operation: send time minus due time
	errs     []error         // per operation
	inflight int             // most operations in flight at once
	elapsed  time.Duration   // start to the last completion
}

// openLoop starts op(i, at) at at = start+due[i] whether or not earlier
// operations have finished, each on its own goroutine, and waits for
// all of them. Latency runs from the due time, not the send time, so
// a stall that delays later operations shows in their latency instead
// of silently lowering the offered load (no coordinated omission).
func openLoop(due []time.Duration, op func(i int, at time.Time) error) loadResult {
	res := loadResult{
		lat:  make([]time.Duration, len(due)),
		late: make([]time.Duration, len(due)),
		errs: make([]error, len(due)),
	}
	var mu sync.Mutex
	inflight := 0
	var last time.Time
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range due {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		res.late[i] = time.Since(at)
		mu.Lock()
		inflight++
		res.inflight = max(res.inflight, inflight)
		mu.Unlock()
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			err := op(i, at)
			done := time.Now()
			mu.Lock()
			inflight--
			res.lat[i], res.errs[i] = done.Sub(at), err
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}(i, at)
	}
	wg.Wait()
	res.elapsed = last.Sub(start)
	if len(due) == 0 {
		res.elapsed = time.Since(start)
	}
	return res
}

// closedLoop runs callers goroutines that each run op(caller, k) back
// to back until d has passed, at least once each; an operation started
// before the deadline runs to completion. An operation reports its own
// latency (so it can keep its output check out of it); lateness is the
// gap between one operation's completion and the start of the next.
func closedLoop(callers int, d time.Duration, op func(caller, k int) (time.Duration, error)) loadResult {
	var res loadResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	var last time.Time
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				sent := time.Now()
				lat, err := op(c, k)
				done := time.Now()
				mu.Lock()
				res.lat = append(res.lat, lat)
				res.late = append(res.late, sent.Sub(prev))
				res.errs = append(res.errs, err)
				if done.After(last) {
					last = done
				}
				mu.Unlock()
				prev = done
			}
		}(c)
	}
	wg.Wait()
	res.inflight = callers
	res.elapsed = last.Sub(start)
	return res
}
