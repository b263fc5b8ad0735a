package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must inflate the latency of the requests
// due during the stall, timed from their due time, and the wait must
// show as queueing; timed from the send it would hide.
func TestOpenLoopStallInflatesLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	reqs := make([]request, 10)
	send, closeIdle := httpSender(ts.URL, reqs, 1, nil)
	defer closeIdle()

	due := make([]time.Duration, len(reqs))
	for i := range due {
		due[i] = time.Duration(i) * 20 * time.Millisecond
	}
	results, _ := openLoop(context.Background(), send, 0, due, 1)
	for i, r := range results {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, r.status, r.err)
		}
	}
	// Request i is due at 20i ms but cannot be sent before the stall
	// ends at ~300 ms, so its latency is at least 300-20i ms.
	for i := 1; i < 10; i++ {
		r := results[i]
		floor := stall - due[i] - 20*time.Millisecond
		if r.latency() < floor {
			t.Errorf("request %d: latency %v, want at least %v", i, r.latency(), floor)
		}
		if r.queue() < floor {
			t.Errorf("request %d: queue %v, want at least %v", i, r.queue(), floor)
		}
		if service := r.done - r.sent; service > 100*time.Millisecond {
			t.Errorf("request %d: service time %v; the stall should show as queueing, not service", i, service)
		}
	}
	var queued []float64
	for _, r := range results {
		queued = append(queued, msOf(r.queue()))
	}
	if q := median(queued); q < 100 {
		t.Errorf("median queue %.1fms, want the stall visible (>100ms)", q)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	check := func(n, p int, want float64, wantOK bool) {
		t.Helper()
		got, ok := percentile(seq(n), p)
		if ok != wantOK || (ok && got != want) {
			t.Errorf("percentile(1..%d, p%d) = %v, %v; want %v, %v", n, p, got, ok, want, wantOK)
		}
	}
	check(1000, 99, 990, true)
	check(999, 99, 0, false) // latency_p99_ms is refused below 1000 samples
	check(2000, 99, 1980, true)
	check(100, 90, 90, true)
	check(99, 90, 0, false)
	check(20, 50, 10, true)
	check(19, 50, 0, false)
	check(21, 50, 11, true)
	check(0, 50, 0, false)

	if got := median([]float64{5, 1, 3, 2, 4}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", got)
	}
}

func TestScheduleSeeded(t *testing.T) {
	a, b := schedule(50, 10, 7, 0), schedule(50, 10, 7, 0)
	c := schedule(50, 10, 8, 0)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("arrival %d at %v is not after %v", i, a[i], a[i-1])
		}
	}
	if !same || !differ {
		t.Errorf("same seed gives the same schedule: %v; another seed differs: %v", same, differ)
	}
}
