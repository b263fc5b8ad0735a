package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/learn"
	"repro/internal/serve"
)

// workload is one traffic mix. Every request is a source generated
// from a datagen source spec, a sample seed and a listing count; the
// program under test only ever sees the resulting DTD and XML text.
type workload struct {
	name string
	// domains are the datagen domains served, one model each.
	domains []string
	// specs are the source-spec indices requests are drawn from. Specs
	// 0–2 of every domain train the models, so 3 and 4 are unseen.
	specs []int
	// listings are the listing counts requests cycle through. The
	// counts are fixed rather than drawn from the seed, so a run's total
	// work barely moves from seed to seed.
	listings []int
	// pool > 0 re-sends a fixed pool of that many sources instead of a
	// fresh source per request.
	pool int
	// rate is the open-loop offered rate in requests per second.
	rate float64
	// openShare is the share of --seconds given to the open-loop
	// phase; the closed-loop phase gets the rest.
	openShare float64
	// maxClosedRate bounds the closed-loop completions per second the
	// prebuilt requests must cover.
	maxClosedRate float64
	// limit is the latency limit of slo_attainment, fixed from this
	// workload's measured open-loop tail on a 2-CPU x86-64 machine.
	limit time.Duration
}

// smallDomains are the three domains with small mediated schemas.
var smallDomains = []string{"Real Estate I", "Time Schedule", "Faculty Listings"}

// workloads are the benchmark's traffic mixes; README.md gives the
// reasons for each.
var workloads = map[string]workload{
	"cold-small": {
		name:          "cold-small",
		domains:       smallDomains,
		specs:         []int{3, 4},
		listings:      []int{10, 20, 30},
		rate:          10,
		openShare:     0.7,
		maxClosedRate: 80,
		limit:         250 * time.Millisecond,
	},
	"rematch": {
		name:          "rematch",
		domains:       smallDomains,
		specs:         []int{3, 4},
		listings:      []int{40},
		pool:          16,
		rate:          25,
		openShare:     0.65,
		maxClosedRate: 400,
		limit:         100 * time.Millisecond,
	},
	"wide-schema": {
		name:          "wide-schema",
		domains:       []string{"Real Estate II"},
		specs:         []int{4},
		listings:      []int{3},
		rate:          1.2,
		openShare:     0.75,
		maxClosedRate: 6,
		limit:         2000 * time.Millisecond,
	},
}

// trainListings and trainSeed fix the training sample: the models are
// the deployment, the same for every benchmark seed.
const (
	trainListings = 40
	trainSeed     = 1
)

// request is one prebuilt match request and the ground truth its
// response is checked against.
type request struct {
	model string
	body  []byte
	// truth carries the source schema and its true mapping.
	truth *core.Source
}

// openCount is the number of open-loop requests a run of the given
// length sends: a fixed count, so a seed fixes the whole open-loop
// request sequence.
func (w workload) openCount(seconds float64) int {
	return int(math.Round(w.rate * seconds * w.openShare))
}

// closedSeconds is the length of the closed-loop phase.
func (w workload) closedSeconds(seconds float64) float64 {
	return seconds * (1 - w.openShare)
}

// buildRequests generates the request sequence for a run: warm are
// the untimed warm-up requests sent during set-up, reqs the timed
// sequence (open-loop first, then the closed-loop supply). The same
// seed gives byte-identical bodies.
func buildRequests(w workload, seed int64, seconds float64) (warm, reqs []request, err error) {
	specs := make([][]*datagen.SourceSpec, len(w.domains))
	for d, name := range w.domains {
		dom := datagen.ByName(name)
		if dom == nil {
			return nil, nil, fmt.Errorf("unknown domain %q", name)
		}
		specs[d] = dom.Sources()
	}
	const warmStream, reqStream = 0, 1
	// gen builds the k-th source of the stream named by stream. Domains
	// rotate fastest, then specs, then listing counts, so consecutive
	// requests hit every model in turn; only the sample seed comes from
	// the benchmark seed.
	gen := func(stream, k int64) (request, error) {
		i := int(k)
		d := i % len(w.domains)
		i /= len(w.domains)
		spec := specs[d][w.specs[i%len(w.specs)]]
		i /= len(w.specs)
		n := w.listings[i%len(w.listings)]
		return makeRequest(modelName(w.domains[d]), spec, n, learn.DeriveSeed(seed, stream, k))
	}
	open := w.openCount(seconds)
	total := open + int(math.Ceil(w.closedSeconds(seconds)*w.maxClosedRate))
	if w.pool > 0 {
		pool := make([]request, w.pool)
		for k := range pool {
			if pool[k], err = gen(reqStream, int64(k)); err != nil {
				return nil, nil, err
			}
		}
		// The pool's one untimed pass warms the caches.
		warm = pool
		// A re-sent source is the same bytes, so the pool entries are
		// shared rather than copied.
		reqs = make([]request, total)
		for i := range reqs {
			reqs[i] = pool[i%len(pool)]
		}
		return warm, reqs, nil
	}
	for k := range w.domains {
		r, err := gen(warmStream, int64(k))
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, r)
	}
	reqs = make([]request, total)
	for i := range reqs {
		if reqs[i], err = gen(reqStream, int64(i)); err != nil {
			return nil, nil, err
		}
	}
	return warm, reqs, nil
}

// makeRequest materializes n listings of spec under sampleSeed and
// encodes them as a /v1/match body.
func makeRequest(model string, spec *datagen.SourceSpec, n int, sampleSeed int64) (request, error) {
	src := spec.Generate(n, sampleSeed)
	var xml strings.Builder
	for _, l := range src.Listings {
		xml.WriteString(l.String())
	}
	body, err := json.Marshal(serve.MatchRequest{
		Model:      model,
		SourceName: spec.Name,
		DTD:        spec.Schema.String(),
		XML:        xml.String(),
		Workers:    1,
	})
	if err != nil {
		return request{}, err
	}
	truth := &core.Source{Name: spec.Name, Schema: spec.Schema, Mapping: spec.Mapping}
	return request{model: model, body: body, truth: truth}, nil
}

// modelName is the registry name of a domain's model.
func modelName(domain string) string {
	return strings.ToLower(strings.ReplaceAll(domain, " ", "-"))
}

// trainDomain trains the full LSD system on a domain's specs 0–2.
func trainDomain(name string) (*core.System, error) {
	dom := datagen.ByName(name)
	if dom == nil {
		return nil, fmt.Errorf("unknown domain %q", name)
	}
	specs := dom.Sources()
	var train []*core.Source
	for _, s := range specs[:3] {
		train = append(train, s.Generate(trainListings, trainSeed))
	}
	return core.Train(dom.Mediated(), train, core.DefaultConfig())
}
