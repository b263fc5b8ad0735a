// Command lsdperf is the serving benchmark: a single-process load
// generator that sends seeded, generated match requests to an
// in-process serve.NewServer handler behind a loopback listener,
// checks every response, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced replay) as the last line
// of its output. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/serve"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// rounds is how many times a run alternates the open-loop and the
// closed-loop phase.
const rounds = 5

// runTimeout bounds a whole run, so a wedged request fails the run
// instead of hanging it.
const runTimeout = 170 * time.Second

// learnerNames are the base learners of core.DefaultConfig, whose
// spans the traced run reports.
var learnerNames = []string{"NameMatcher", "ContentMatcher", "NaiveBayes", "XMLLearner"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lsdperf:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: cold-small, rematch or wide-schema")
	seed := flag.Int64("seed", 1, "seed of the generated requests and arrival schedule")
	seconds := flag.Int("seconds", 30, "length of the measured phases in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	// The server, the load generator and the Go runtime share one P.
	// On a machine of a few shared vCPUs, one of them is at times taken
	// away for a second or more; work spread over two Ps then runs at
	// half speed, and the timings measure that instead of the program.
	// One P needs only one vCPU, so the timings read the work done.
	runtime.GOMAXPROCS(1)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	spans := ""
	if *trace == 1 {
		spans = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	out, err := measure(ctx, w, *seed, float64(*seconds), spans)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outcome is the result line of a run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up, serves it, checks every response and
// reduces the run to the end-to-end metrics. With a spans path it is
// the traced run instead: it replays every request, writes the spans
// there and reduces the run to the per-layer metrics.
func measure(ctx context.Context, w workload, seed int64, seconds float64, spans string) (*outcome, error) {
	traced := spans != ""
	b := &bench{w: w, seed: seed, seconds: seconds, traced: traced, conns: runtime.NumCPU()}
	if err := b.setup(ctx); err != nil {
		return nil, err
	}
	defer b.env.close()
	if err := b.serve(ctx); err != nil {
		return nil, err
	}
	b.check()
	b.report()
	out := &outcome{Attempted: len(b.results)}
	if traced {
		if err := b.replay(ctx, spans); err != nil {
			return nil, err
		}
		out.Metrics = b.layerMetrics()
	} else {
		var err error
		if out.Metrics, err = b.endToEnd(); err != nil {
			return nil, err
		}
	}
	out.Correct, out.Failed = b.failed == 0, b.failed
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one set-up deployment: the published models, the server
// answering for them, and the prebuilt requests.
type env struct {
	reg       *serve.Registry
	models    map[string]*serve.Model
	artifacts map[string][]byte
	warm      []request
	reqs      []request
	url       string
	srv       *http.Server
	served    chan error
	// handlerNs records serve.handler_ms per request index (traced
	// runs only), written by the wrapping middleware.
	handlerNs []atomic.Int64
}

// setupCost is what one set-up spent, for the per-layer report.
type setupCost struct {
	total, train, encode, decode time.Duration
	bytes                        int
}

type bench struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool

	env   *env
	costs []setupCost

	// conns is the generator's connection count and the closed loop's
	// client count: one per CPU.
	conns   int
	open    int
	results []result // open-loop results, then closed-loop
	// closedTime is how long the closed-loop phases took together.
	closedTime time.Duration
	late       time.Duration
	mem        struct{ allocs, bytes, gcs uint64 }

	// Per result, filled by check. Results are kept in request-index
	// order and the indices are contiguous from 0, so a result's
	// position is its request index.
	ok       []bool
	mapping  []map[string]string
	accuracy []float64
	failed   int

	// layers holds the traced run's per-request layer figures for the
	// open-loop requests, by metric name.
	layers map[string][]float64
}

// setup deploys setupReps times and keeps the last deployment. Each
// set-up starts from the same heap: the previous deployment is dropped
// and collected first, so no set-up pays for another's garbage.
func (b *bench) setup(ctx context.Context) error {
	b.open = b.w.openCount(b.seconds)
	if b.open < 20 {
		return fmt.Errorf("%s: %d open-loop requests cannot support a median; raise --seconds", b.w.name, b.open)
	}
	for rep := 0; rep < setupReps; rep++ {
		if b.env != nil {
			b.env.close()
			b.env = nil
		}
		runtime.GC()
		e, cost, err := deploy(ctx, b.w, b.seed, b.seconds, b.traced)
		if err != nil {
			return err
		}
		b.env, b.costs = e, append(b.costs, cost)
	}
	runtime.GC()
	return nil
}

// deploy trains every model of the workload, publishes each through
// the artifact encode→decode→registry round-trip, builds the request
// bodies, starts the server and sends the warm-up requests.
func deploy(ctx context.Context, w workload, seed int64, seconds float64, traced bool) (*env, setupCost, error) {
	var cost setupCost
	start := time.Now()
	e := &env{reg: serve.NewRegistry(), models: map[string]*serve.Model{}, artifacts: map[string][]byte{}}
	for _, d := range w.domains {
		t := time.Now()
		sys, err := trainDomain(d)
		if err != nil {
			return nil, cost, err
		}
		cost.train += time.Since(t)
		t = time.Now()
		data, err := artifact.EncodeSystem(modelName(d), sys)
		if err != nil {
			return nil, cost, err
		}
		cost.encode += time.Since(t)
		t = time.Now()
		dec, err := artifact.Decode(data)
		if err != nil {
			return nil, cost, err
		}
		cost.decode += time.Since(t)
		cost.bytes += len(data)
		m, err := serve.ModelFromDecoded(dec, 1)
		if err != nil {
			return nil, cost, err
		}
		e.reg.Set(m)
		e.models[m.Name] = m
		e.artifacts[m.Name] = data
	}
	var err error
	if e.warm, e.reqs, err = buildRequests(w, seed, seconds); err != nil {
		return nil, cost, err
	}
	if err := e.start(traced); err != nil {
		return nil, cost, err
	}
	send, closeIdle := httpSender(e.url, e.warm, 1, nil)
	defer closeIdle()
	for i := range e.warm {
		status, body, err := send(ctx, i)
		if err != nil || status != http.StatusOK {
			e.close()
			return nil, cost, fmt.Errorf("warm-up request %d: status %d, %v: %s", i, status, err, body)
		}
	}
	cost.total = time.Since(start)
	return e, cost, nil
}

// reqHeader carries the request index to the tracing middleware.
const reqHeader = "X-Lsdperf-Req"

// start serves the registry on a loopback listener; traced runs wrap
// the handler in a middleware timing each request.
func (e *env) start(traced bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := serve.NewServer(e.reg, serve.Options{}).Handler()
	if traced {
		e.handlerNs = make([]atomic.Int64, len(e.reqs))
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := time.Now()
			inner.ServeHTTP(w, r)
			if i, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil && i >= 0 && i < len(e.handlerNs) {
				e.handlerNs[i].Store(int64(time.Since(t)))
			}
		})
	}
	e.url = "http://" + ln.Addr().String() + "/v1/match"
	e.srv = &http.Server{Handler: h}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	return nil
}

// close shuts the server down and waits until it has stopped; it is
// safe to call twice.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lsdperf: shutdown:", err)
		e.srv.Close()
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "lsdperf: serve:", err)
	}
	e.srv = nil
}

// serve runs the open-loop and the closed-loop phase, alternating.
func (b *bench) serve(ctx context.Context) error {
	conns := b.conns
	var headers func(*http.Request, int)
	if b.traced {
		headers = func(r *http.Request, i int) { r.Header.Set(reqHeader, strconv.Itoa(i)) }
	}
	send, closeIdle := httpSender(b.env.url, b.env.reqs, conns, headers)
	defer closeIdle()

	// The phases alternate over several rounds, so both sample the
	// whole run: on a shared machine the CPU the process gets drifts
	// over tens of seconds, and a phase confined to one stretch of the
	// run would carry that drift alone.
	var open, closed []result
	closedDur := time.Duration(b.w.closedSeconds(b.seconds) / rounds * float64(time.Second))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		lo, hi := r*b.open/rounds, (r+1)*b.open/rounds
		due := schedule(hi-lo, b.w.rate, b.seed, int64(r))
		res, late := openLoop(ctx, send, lo, due, conns)
		open = append(open, res...)
		b.late = max(b.late, late)
		res, elapsed := closedLoop(ctx, send, b.open+len(closed), len(b.env.reqs), conns, closedDur)
		closed = append(closed, res...)
		b.closedTime += elapsed
	}
	if len(closed) > 0 && closed[len(closed)-1].idx == len(b.env.reqs)-1 {
		fmt.Fprintf(os.Stderr, "lsdperf: the closed loop used all %d prebuilt requests and ended early\n", len(b.env.reqs)-b.open)
	}
	runtime.ReadMemStats(&after)
	if ctx.Err() != nil {
		return fmt.Errorf("run exceeded %v", runTimeout)
	}
	b.results = append(open, closed...)
	b.mem.allocs = after.Mallocs - before.Mallocs
	b.mem.bytes = after.TotalAlloc - before.TotalAlloc
	b.mem.gcs = uint64(after.NumGC - before.NumGC)
	// Stop the server so every handler has returned before the traced
	// run reads the middleware's timings.
	b.env.close()
	return nil
}

// check validates every response: status 200, the published model's
// checksum, and a mapping entry for every source tag. A response that
// fails a check counts as failed.
func (b *bench) check() {
	n := len(b.results)
	b.ok = make([]bool, n)
	b.mapping = make([]map[string]string, n)
	b.accuracy = make([]float64, n)
	for i, r := range b.results {
		if err := b.checkOne(i, r); err != nil {
			b.failed++
			b.logFailure(r.idx, err)
		}
	}
}

func (b *bench) checkOne(i int, r result) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	req := b.env.reqs[r.idx]
	var resp struct {
		Checksum string            `json:"checksum"`
		Mapping  map[string]string `json:"mapping"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if want := b.env.models[req.model].Checksum; resp.Checksum != want {
		return fmt.Errorf("checksum %q, published model has %q", resp.Checksum, want)
	}
	for _, tag := range req.truth.Schema.Tags() {
		if _, ok := resp.Mapping[tag]; !ok {
			return fmt.Errorf("mapping has no entry for source tag %q", tag)
		}
	}
	b.ok[i] = true
	b.mapping[i] = resp.Mapping
	b.accuracy[i] = core.Accuracy(req.truth, resp.Mapping)
	return nil
}

// reject fails a response that passed check but not a later one.
func (b *bench) reject(i int, err error) {
	if b.ok[i] {
		b.ok[i] = false
		b.failed++
		b.logFailure(b.results[i].idx, err)
	}
}

// logFailure reports the first few failures on standard error.
func (b *bench) logFailure(idx int, err error) {
	if b.failed <= 5 {
		fmt.Fprintf(os.Stderr, "lsdperf: request %d failed: %v\n", idx, err)
	}
}

// endToEnd computes the metrics a user of the server sees.
func (b *bench) endToEnd() (map[string]metric, error) {
	open := b.results[:b.open]
	isOK := func(r result) bool { return b.ok[r.idx] }
	lat := latencies(open, isOK)
	p50, ok := percentile(lat, 50)
	if !ok {
		return nil, fmt.Errorf("%s: %d successful open-loop requests cannot support a median", b.w.name, len(lat))
	}
	within := 0
	for i, r := range open {
		if b.ok[i] && r.latency() <= b.w.limit {
			within++
		}
	}
	accSum, succeeded := 0.0, 0
	for i := range b.results {
		if b.ok[i] {
			succeeded++
			accSum += b.accuracy[i]
		}
	}
	acc := 0.0
	if succeeded > 0 {
		acc = 100 * accSum / float64(succeeded)
	}
	costs := make([]float64, len(b.costs))
	for i, c := range b.costs {
		costs[i] = c.total.Seconds()
	}
	tput := throughput(b.results[b.open:], b.closedTime, isOK)
	// live_heap_mb covers what the deployment keeps: drop the requests,
	// the responses and the artifact bytes before the forced collection.
	reg := b.env.reg
	b.env.reqs, b.env.warm, b.env.artifacts, b.results, b.mapping = nil, nil, nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(reg)
	return map[string]metric{
		"setup_s":        {median(costs), "s"},
		"latency_p50_ms": {p50, "ms"},
		"slo_attainment": {float64(within) / float64(len(open)), "share"},
		"throughput_rps": {tput, "1/s"},
		"success_rate":   {float64(succeeded) / float64(len(b.ok)), "share"},
		"accuracy_pct":   {acc, "%"},
		"live_heap_mb":   {float64(ms.HeapAlloc) / (1 << 20), "MB"},
	}, nil
}

// report prints a human-readable summary before the result line.
func (b *bench) report() {
	open := b.results[:b.open]
	lat := latencies(open, func(r result) bool { return b.ok[r.idx] })
	fmt.Printf("%s seed=%d: open loop %.2f req/s, %s; closed loop %d req in %.2fs; timer late by up to %v\n",
		b.w.name, b.seed, b.w.rate, describe(lat), len(b.results)-b.open, b.closedTime.Seconds(), b.late)
	for i, c := range b.costs {
		fmt.Printf("set-up %d: %.3fs (training %.3fs, encode %.3fs, decode %.3fs)\n",
			i+1, c.total.Seconds(), c.train.Seconds(), c.encode.Seconds(), c.decode.Seconds())
	}
}
