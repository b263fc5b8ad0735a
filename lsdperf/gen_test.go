package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestRequestsSeeded(t *testing.T) {
	for _, name := range []string{"cold-small", "rematch", "wide-schema"} {
		w := workloads[name]
		warmA, reqsA, err := buildRequests(w, 11, 5)
		if err != nil {
			t.Fatal(err)
		}
		warmB, reqsB, err := buildRequests(w, 11, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, reqsC, err := buildRequests(w, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqsA) != len(reqsB) || len(warmA) != len(warmB) {
			t.Fatalf("%s: same seed gives %d/%d then %d/%d requests", name, len(warmA), len(reqsA), len(warmB), len(reqsB))
		}
		for i := range warmA {
			if !bytes.Equal(warmA[i].body, warmB[i].body) {
				t.Errorf("%s: warm-up body %d differs under the same seed", name, i)
			}
		}
		for i := range reqsA {
			if !bytes.Equal(reqsA[i].body, reqsB[i].body) {
				t.Fatalf("%s: body %d differs under the same seed", name, i)
			}
		}
		differ := 0
		for i := range reqsA {
			if i < len(reqsC) && !bytes.Equal(reqsA[i].body, reqsC[i].body) {
				differ++
			}
		}
		if differ < len(reqsA)/2 {
			t.Errorf("%s: another seed changes only %d of %d bodies", name, differ, len(reqsA))
		}
		// Fresh-source workloads never repeat a body; the rematch pool
		// repeats exactly its pool.
		distinct := map[string]bool{}
		for _, r := range reqsA {
			distinct[string(r.body)] = true
		}
		want := len(reqsA)
		if w.pool > 0 {
			want = w.pool
		}
		if len(distinct) != want {
			t.Errorf("%s: %d distinct bodies in %d requests, want %d", name, len(distinct), len(reqsA), want)
		}
	}
}

// benchmarkFile is the benchmark definition at the repository root.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// A short run of each kind over one small domain: every response
// passes its checks, the traced replay reproduces every served
// mapping, and each run prints exactly the metrics BENCHMARK.json
// names, with their units — core.key_repeat_share among them, so a run
// that only exercises a memo shows it.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and serves for several seconds")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	fresh := workload{
		name: "test-fresh", domains: []string{"Faculty Listings"}, specs: []int{3, 4},
		listings: []int{2, 4}, rate: 20, openShare: 0.5, maxClosedRate: 100, limit: time.Second,
	}
	pool := fresh
	pool.name, pool.pool = "test-pool", 2

	ctx := context.Background()
	for _, w := range []workload{fresh, pool} {
		out, err := measure(ctx, w, 3, 2, "")
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, w.name, out, def.EndToEnd)

		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		out, err = measure(ctx, w, 3, 2, spans)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, w.name+" traced", out, def.PerLayer)
		if _, err := os.Stat(spans); err != nil {
			t.Errorf("%s: spans not written: %v", w.name, err)
		}
		share := out.Metrics["core.key_repeat_share"].Value
		if w.pool > 0 && share != 1 {
			t.Errorf("%s: key_repeat_share %v, want 1 after the warm-up pass", w.name, share)
		}
		if w.pool == 0 && share >= 1 {
			t.Errorf("%s: key_repeat_share %v, want fresh keys", w.name, share)
		}
	}
}

func checkOutcome(t *testing.T, name string, out *outcome, want []struct{ Name, Unit string }) {
	t.Helper()
	if !out.Correct || out.Failed != 0 || out.Attempted < 20 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", name, out.Correct, out.Failed, out.Attempted)
	}
	var got, declared []string
	for k := range out.Metrics {
		got = append(got, k)
	}
	for _, m := range want {
		declared = append(declared, m.Name)
		if g, ok := out.Metrics[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: %s in %q, declared %q", name, m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(declared)
	if len(got) != len(declared) {
		t.Fatalf("%s: printed metrics %v, declared %v", name, got, declared)
	}
	for i := range got {
		if got[i] != declared[i] {
			t.Fatalf("%s: printed metrics %v, declared %v", name, got, declared)
		}
	}
}
