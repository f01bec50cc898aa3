package main

import (
	"sync"
	"testing"
	"time"
)

// A server that stalls on its first request and serves one request at
// a time: every request due during the stall queues behind it, and the
// open loop must charge that wait to those requests.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 200 * time.Millisecond
		service  = time.Millisecond
	)
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	var server sync.Mutex
	res := openLoop(due, func(i int, _ time.Time) error {
		server.Lock()
		defer server.Unlock()
		if i == 0 {
			time.Sleep(stall)
		} else {
			time.Sleep(service)
		}
		return nil
	})
	for i := 1; i < len(due); i++ {
		// Request i cannot finish before the stall ends, so its latency
		// from its due time is at least the rest of the stall; timed
		// from when the server took it up it would read ~1 ms.
		if want := stall - due[i]; res.lat[i] < want {
			t.Errorf("request %d: latency %v, want >= %v (the stall it waited behind)", i, res.lat[i], want)
		}
		// The generator itself never waited for the server.
		if res.late[i] > interval {
			t.Errorf("request %d sent %v late; the generator blocked on the stalled server", i, res.late[i])
		}
	}
	if res.inflight < len(due)-1 {
		t.Errorf("inflight max %d, want >= %d requests queued behind the stall", res.inflight, len(due)-1)
	}
	if res.elapsed < stall {
		t.Errorf("elapsed %v shorter than the stall", res.elapsed)
	}
}

func TestPoissonScheduleIsFixedBySeed(t *testing.T) {
	a := poissonSchedule(7, 50, 2*time.Second)
	b := poissonSchedule(7, 50, 2*time.Second)
	c := poissonSchedule(8, 50, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Errorf("seeds 7 and 8 gave the same schedule")
	}
	if len(a) != 100 || len(c) != 100 {
		t.Errorf("%d and %d arrivals in 2 s at 50/s, want 100", len(a), len(c))
	}
}

func TestClosedLoopRunsEachCallerAtLeastOnce(t *testing.T) {
	res := closedLoop(2, 0, func(c, k int) (time.Duration, error) { return time.Millisecond, nil })
	if len(res.lat) != 2 || res.inflight != 2 {
		t.Fatalf("got %d operations, inflight %d; want one per caller", len(res.lat), res.inflight)
	}
}
