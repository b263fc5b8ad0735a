package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// replay is the traced run's second half. After the served phases it
// replays the warm-up requests and then the open-loop requests, in
// order, against a twin model decoded from the same artifact, one
// public layer call at a time. A second decoded copy matches each of
// them through System.Match (core.match_ms). Each served mapping must
// equal the replay's, System.Match's and that of the served system's
// per-instance reference path (System.WithBatchPredict(false)); a
// mismatch fails the request. The open-loop sequence is fixed by the
// seed, so the replay's counts are too; the closed-loop requests, whose
// number depends on speed, keep the checks every run makes.
func (b *bench) replay(ctx context.Context, spansPath string) error {
	twins := make(map[string]*twin, len(b.env.models))
	directs := make(map[string]*core.System, len(b.env.models))
	for name, data := range b.env.artifacts {
		m := b.env.models[name]
		for i := 0; i < 2; i++ {
			dec, err := artifact.Decode(data)
			if err != nil {
				return err
			}
			sys, err := dec.System(1)
			if err != nil {
				return err
			}
			if i == 0 {
				if twins[name], err = newTwin(name, m.Checksum, sys); err != nil {
					return err
				}
			} else {
				directs[name] = sys
			}
		}
		for _, n := range twins[name].names {
			if !slices.Contains(learnerNames, n) {
				return fmt.Errorf("model %s has learner %q the trace does not report", name, n)
			}
		}
	}

	tr := newTracer()
	for _, r := range b.env.warm {
		if _, err := twins[r.model].replay(ctx, newTracer(), r.body, -1); err != nil {
			return err
		}
		if _, err := directs[r.model].Match(ctx, mustSource(r)); err != nil {
			return err
		}
	}

	b.layers = make(map[string][]float64)
	add := func(name string, v float64) { b.layers[name] = append(b.layers[name], v) }
	incomplete := 0
	for i, res := range b.results[:b.open] {
		req := b.env.reqs[res.idx]
		first := len(tr.spans)
		st, err := twins[req.model].replay(ctx, tr, req.body, res.idx)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", res.idx, err)
		}
		src := mustSource(req)
		t := time.Now()
		direct, err := directs[req.model].Match(ctx, src)
		matchDur := time.Since(t)
		if err != nil {
			return fmt.Errorf("matching request %d directly: %w", res.idx, err)
		}
		ref, err := b.env.models[req.model].System().WithWorkers(1).WithBatchPredict(false).Match(ctx, mustSource(req))
		if err != nil {
			return fmt.Errorf("reference match of request %d: %w", res.idx, err)
		}
		if b.ok[i] {
			for _, other := range []struct {
				name    string
				mapping map[string]string
			}{{"the replay's", st.mapping}, {"System.Match's", direct.Mapping}, {"the reference path's", ref.Mapping}} {
				if !maps.Equal(b.mapping[i], other.mapping) {
					b.reject(i, fmt.Errorf("served mapping differs from %s: %s", other.name, diffMapping(b.mapping[i], other.mapping)))
					break
				}
			}
		}

		sums := make(map[string]time.Duration)
		var coreChildren []span
		for _, s := range tr.spans[first:] {
			if s.Parent < 0 {
				continue
			}
			sums[s.Name] += s.dur()
			if isCoreLayer(s.Name) {
				coreChildren = append(coreChildren, s)
			}
		}
		for _, n := range learnerNames {
			add("learner."+n+"_ms", msOf(sums["learner."+n]))
		}
		for _, n := range []string{"meta.combine", "meta.convert", "core.collect", "constraint.build",
			"constraint.astar", "dtd.parse", "xmltree.parse", "serve.request_decode", "serve.response_encode"} {
			add(n+"_ms", msOf(sums[n]))
		}
		add("core.match_ms", msOf(matchDur))
		add("core.self_ms", msOf(selfTime(matchDur, coreChildren)))
		add("core.instances", float64(st.instances))
		add("core.unique_instances", float64(st.unique))
		add("core.key_repeat_share", float64(st.repeated)/float64(st.unique))
		add("constraint.expansions", float64(st.expansions))
		if !st.complete {
			incomplete++
		}
		add("xmltree.nodes", float64(st.nodes))
		handler := time.Duration(b.env.handlerNs[res.idx].Load())
		add("serve.handler_ms", msOf(handler))
		add("serve.transport_ms", msOf(res.done-res.sent-handler))
		add("serve.response_bytes", float64(len(res.body)))
		add("loadgen.queue_ms", msOf(res.queue()))
	}
	b.layers["constraint.incomplete_share"] = []float64{float64(incomplete) / float64(b.open)}

	if err := tr.write(spansPath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "lsdperf: %d spans written to %s\n", len(tr.spans), spansPath)
	return nil
}

// isCoreLayer reports whether a replay span is one of the calls
// System.Match makes, as opposed to the serve layer around it.
func isCoreLayer(name string) bool {
	for _, p := range []string{"core.", "learner.", "meta.", "constraint."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// mustSource parses a prebuilt request back into the source the
// server builds from it; the bodies are generated, so they parse.
func mustSource(r request) *core.Source {
	var mr serve.MatchRequest
	err := json.Unmarshal(r.body, &mr)
	var schema *dtd.Schema
	if err == nil {
		schema, err = dtd.Parse(mr.DTD)
	}
	var listings []*xmltree.Node
	if err == nil {
		listings, err = xmltree.ParseAll(strings.NewReader(mr.XML))
	}
	if err != nil {
		panic(fmt.Sprintf("generated request does not parse: %v", err))
	}
	return &core.Source{Name: mr.SourceName, Schema: schema, Listings: listings}
}

// layerMetrics reduces the traced run to the per-layer metrics.
func (b *bench) layerMetrics() map[string]metric {
	out := make(map[string]metric)
	units := map[string]string{
		"core.instances": "count", "core.unique_instances": "count",
		"core.key_repeat_share": "share", "constraint.expansions": "count",
		"constraint.incomplete_share": "share", "xmltree.nodes": "count",
		"serve.response_bytes": "bytes",
	}
	for name, vs := range b.layers {
		unit := units[name]
		if unit == "" {
			unit = "ms"
		}
		out[name] = metric{median(vs), unit}
	}
	med := func(f func(setupCost) float64) float64 {
		vs := make([]float64, len(b.costs))
		for i, c := range b.costs {
			vs[i] = f(c)
		}
		return median(vs)
	}
	out["artifact.encode_ms"] = metric{med(func(c setupCost) float64 { return msOf(c.encode) }), "ms"}
	out["artifact.decode_ms"] = metric{med(func(c setupCost) float64 { return msOf(c.decode) }), "ms"}
	out["artifact.bytes"] = metric{med(func(c setupCost) float64 { return float64(c.bytes) }), "bytes"}
	out["core.train_ms"] = metric{med(func(c setupCost) float64 { return msOf(c.train) }), "ms"}
	n := float64(len(b.results))
	out["go.allocs_per_req"] = metric{float64(b.mem.allocs) / n, "count"}
	out["go.bytes_per_req"] = metric{float64(b.mem.bytes) / n, "bytes"}
	out["go.gc_cycles_per_req"] = metric{float64(b.mem.gcs) / n, "count"}
	out["loadgen.late_ms"] = metric{msOf(b.late), "ms"}
	out["loadgen.sent"] = metric{n, "count"}
	out["loadgen.failed"] = metric{float64(b.failed), "count"}
	return out
}
