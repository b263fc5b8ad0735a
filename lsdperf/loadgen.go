package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/learn"
)

// result is the outcome of one sent request. Times are offsets from
// the start of the request's phase.
type result struct {
	idx int
	// due is when the open-loop schedule wanted the request sent; in
	// the closed loop it equals sent.
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

// latency is the request's latency timed from its due time, so a
// stall that delays later sends counts against them.
func (r result) latency() time.Duration { return r.done - r.due }

// queue is how long the request waited for a free connection.
func (r result) queue() time.Duration { return r.sent - r.due }

// sendFunc sends request idx and returns the status and response body.
type sendFunc func(ctx context.Context, idx int) (int, []byte, error)

// httpSender posts prebuilt bodies to url over a client that holds at
// most conns connections.
func httpSender(url string, reqs []request, conns int, headers func(*http.Request, int)) (sendFunc, func()) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	client := &http.Client{Transport: tr}
	send := func(ctx context.Context, idx int) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(reqs[idx].body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if headers != nil {
			headers(req, idx)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	return send, tr.CloseIdleConnections
}

// jitter is the share of each arrival period in which the arrival
// falls.
const jitter = 0.2

// schedule returns the n arrival times of one round at the given rate,
// seeded from the benchmark seed and the round: the i-th falls at a
// uniformly jittered point in the first fifth of the i-th period.
// Arrivals never bunch closer than four fifths of a period, so at a
// rate the server sustains the latency measures service rather than
// chance bunching, which would make the median swing between single
// and overlapped requests from run to run; a server that slows past
// the period still builds a queue.
func schedule(n int, rate float64, seed, round int64) []time.Duration {
	rng := rand.New(rand.NewSource(learn.DeriveSeed(seed, 2, round)))
	due := make([]time.Duration, n)
	for i := range due {
		t := (float64(i) + jitter*rng.Float64()) / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop sends request first+i at due[i] regardless of how earlier
// requests fare, over at most conns concurrent senders: a request
// whose due time finds every sender busy waits for one. It returns
// the results in schedule order and the worst lateness of the
// dispatch timer itself.
func openLoop(ctx context.Context, send sendFunc, first int, due []time.Duration, conns int) ([]result, time.Duration) {
	results := make([]result, len(due))
	// Buffered to the schedule length so the dispatcher never blocks:
	// the backlog of requests waiting for a sender lives here.
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := result{idx: first + i, due: due[i], sent: time.Since(start)}
				r.status, r.body, r.err = send(ctx, first+i)
				r.done = time.Since(start)
				results[i] = r
			}
		}()
	}
	var late time.Duration
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if l := time.Since(start) - d; l > late {
			late = l
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results, late
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, taking indices first, first+1, … up to
// limit, until the phase has lasted d. It returns the results in send
// order and how long the phase took, up to its last completion.
func closedLoop(ctx context.Context, send sendFunc, first, limit, clients int, d time.Duration) ([]result, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var results []result // guarded by mu
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				idx := int(next.Add(1) - 1)
				if idx >= limit {
					return
				}
				r := result{idx: idx, sent: time.Since(start)}
				r.due = r.sent
				r.status, r.body, r.err = send(ctx, idx)
				r.done = time.Since(start)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(results, func(i, j int) bool { return results[i].idx < results[j].idx })
	return results, elapsed
}

// throughput is the closed loop's successful completions per second
// over the time its phases took. The server keeps its one P busy
// throughout a phase, so this is the inverse of the mean CPU cost of a
// request, pairing effects included.
func throughput(rs []result, elapsed time.Duration, ok func(result) bool) float64 {
	n := 0
	for _, r := range rs {
		if ok(r) {
			n++
		}
	}
	return float64(n) / elapsed.Seconds()
}

// percentile is the nearest-rank p-th percentile of sorted. A
// percentile needs at least ten samples beyond it, so ok is false when
// fewer than ten samples rank above it: p99 needs 1000 samples, p90
// 100 and the median 20.
func percentile(sorted []float64, p int) (v float64, ok bool) {
	n := len(sorted)
	rank := (p*n + 99) / 100
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	return sorted[rank-1], true
}

// median is the nearest-rank median of values, which it sorts; it
// does not apply percentile's sample-count rule and is used for
// per-request layer figures.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	return values[(len(values)+1)/2-1]
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the sorted latencies, in ms, of the successful
// results; failed requests carry no latency.
func latencies(rs []result, ok func(result) bool) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if ok(r) {
			out = append(out, msOf(r.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// describe summarizes a latency sample for the human-readable report:
// every standard percentile the sample supports, with the count.
func describe(sorted []float64) string {
	s := fmt.Sprintf("n=%d", len(sorted))
	for _, p := range []int{50, 90, 99} {
		if v, ok := percentile(sorted, p); ok {
			s += fmt.Sprintf(" p%d=%.2fms", p, v)
		}
	}
	return s
}
