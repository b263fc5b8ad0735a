package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/learn"
	"repro/internal/meta"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's origin; parent is the index of the enclosing span, or -1.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.origin) }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	var cur span
	open := false
	for _, s := range iv {
		if open && s.Start <= cur.End {
			if s.End > cur.End {
				cur.End = s.End
			}
			continue
		}
		if open {
			total += cur.dur()
		}
		cur, open = s, true
	}
	if open {
		total += cur.dur()
	}
	return total
}

// selfTime is a layer's self time: its duration d minus the part of
// it that its child spans cover.
func selfTime(d time.Duration, children []span) time.Duration {
	return d - covered(children)
}

// twin is a model decoded a second time from the published artifact.
// The replay drives its layers one public call at a time, in Match's
// order, so each layer can be timed from outside.
type twin struct {
	name     string
	checksum string
	med      *core.Mediated
	labels   []string
	cfg      core.Config
	names    []string
	learners []learn.Learner
	stacker  *meta.Stacker
	// seen maps every instance key replayed so far to its combined
	// prediction: a key seen earlier skips the learners, as the core
	// memo lets Match skip them.
	seen map[string]learn.Prediction
}

func newTwin(name, checksum string, sys *core.System) (*twin, error) {
	st := sys.State()
	schema, err := dtd.Parse(st.MediatedDTD)
	if err != nil {
		return nil, err
	}
	med := &core.Mediated{Schema: schema, Synonyms: st.Synonyms}
	for _, spec := range st.ConstraintSpecs {
		c, err := constraint.FromSpec(spec)
		if err != nil {
			return nil, err
		}
		med.Constraints = append(med.Constraints, c)
	}
	return &twin{
		name: name, checksum: checksum, med: med,
		labels: st.Labels, cfg: st.Config,
		names: st.Names, learners: st.Learners, stacker: st.Stacker,
		seen: make(map[string]learn.Prediction),
	}, nil
}

// replayStats are the per-request counts the replay observes.
type replayStats struct {
	mapping    map[string]string
	instances  int
	unique     int
	repeated   int
	nodes      int
	expansions int
	complete   bool
}

// replay runs one request body through the twin's layers, recording a
// span around each call under the request's root span.
func (tw *twin) replay(ctx context.Context, tr *tracer, body []byte, req int) (*replayStats, error) {
	root := tr.begin("replay", -1, req)
	defer tr.end(root)
	timed := func(name string, fn func() error) error {
		i := tr.begin(name, root, req)
		err := fn()
		tr.end(i)
		return err
	}
	st := &replayStats{}

	var mr serve.MatchRequest
	if err := timed("serve.request_decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&mr)
	}); err != nil {
		return nil, err
	}
	var schema *dtd.Schema
	if err := timed("dtd.parse", func() (err error) {
		schema, err = dtd.Parse(mr.DTD)
		return err
	}); err != nil {
		return nil, err
	}
	src := &core.Source{Name: mr.SourceName, Schema: schema}
	if err := timed("xmltree.parse", func() (err error) {
		src.Listings, err = xmltree.ParseAll(strings.NewReader(mr.XML))
		return err
	}); err != nil {
		return nil, err
	}
	for _, l := range src.Listings {
		st.nodes += l.Size()
	}
	var cols map[string][]learn.Instance
	if err := timed("core.collect", func() (err error) {
		cols, err = core.CollectColumns(ctx, tw.med, src, tw.cfg.MaxListings)
		return err
	}); err != nil {
		return nil, err
	}

	tags := schema.Tags()
	tagPreds := make(map[string]learn.Prediction, len(tags))
	for _, tag := range tags {
		batch := cols[tag]
		if len(batch) == 0 {
			batch = []learn.Instance{{TagName: tag, Path: schema.PathFromRoot(tag)}}
		}
		st.instances += len(batch)
		col := tw.column(tr, root, req, batch, st)
		_ = timed("meta.convert", func() error {
			tagPreds[tag] = meta.Convert(tw.cfg.Converter, tw.labels, col)
			return nil
		})
	}

	var csrc *constraint.Source
	_ = timed("constraint.build", func() error {
		csrc = core.BuildConstraintSource(src, cols, tw.cfg.MaxListings)
		return nil
	})
	var hres *constraint.Result
	if err := timed("constraint.astar", func() (err error) {
		h := *constraint.NewHandler()
		h.Constraints = tw.med.Constraints
		hres, err = h.Run(csrc, tagPreds)
		return err
	}); err != nil {
		return nil, err
	}
	st.mapping = hres.Mapping
	st.expansions = hres.Expansions
	st.complete = hres.Complete

	return st, timed("serve.response_encode", func() error {
		resp := serve.MatchResponse{
			Model:       tw.name,
			Checksum:    tw.checksum,
			SourceName:  mr.SourceName,
			Mapping:     hres.Mapping,
			Predictions: make(map[string]map[string]float64, len(tagPreds)),
		}
		for tag, p := range tagPreds {
			resp.Predictions[tag] = p
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		return enc.Encode(resp)
	})
}

// column scores one tag's column as Match does: instances deduplicate
// by key, keys seen earlier skip the learners, every learner scores
// the remaining instances in one batch, and the stacker combines them.
func (tw *twin) column(tr *tracer, root, req int, batch []learn.Instance, st *replayStats) []learn.Prediction {
	idx := make(map[string]int, len(batch))
	pos := make([]int, len(batch))
	var keys []string
	var uniq []learn.Instance
	for i, in := range batch {
		var key string
		if in.Node != nil && !in.Node.IsLeaf() {
			key = interiorKey(in.Path, in.Node)
		} else {
			key = instanceKey(in.TagName, in.Path, in.Content)
		}
		u, ok := idx[key]
		if !ok {
			u = len(uniq)
			idx[key] = u
			uniq = append(uniq, in)
			keys = append(keys, key)
		}
		pos[i] = u
	}
	st.unique += len(uniq)
	combined := make([]learn.Prediction, len(uniq))
	var miss []learn.Instance
	var missSlots []int
	for u, in := range uniq {
		if p, ok := tw.seen[keys[u]]; ok {
			combined[u] = p
			st.repeated++
			continue
		}
		miss = append(miss, in)
		missSlots = append(missSlots, u)
	}
	// Every learner's span is recorded, also for a column whose keys
	// were all seen: the span then covers an empty call, so a fully
	// repeated run reads near zero rather than absent.
	perLearner := make([][]learn.Prediction, len(tw.learners))
	for j, l := range tw.learners {
		i := tr.begin("learner."+tw.names[j], root, req)
		perLearner[j] = learn.PredictAll(l, miss)
		tr.end(i)
	}
	i := tr.begin("meta.combine", root, req)
	base := make([]learn.Prediction, len(tw.learners))
	for mi, u := range missSlots {
		for j := range perLearner {
			base[j] = perLearner[j][mi]
		}
		combined[u] = tw.stacker.Combine(base)
		tw.seen[keys[u]] = combined[u]
	}
	tr.end(i)
	out := make([]learn.Prediction, len(batch))
	for i := range batch {
		out[i] = combined[pos[i]]
	}
	return out
}

// instanceKey and interiorKey reproduce the keys core's combined memo
// deduplicates instances by: (tag, path, content) for leaves, and the
// root path plus a lossless subtree serialization for interior nodes.
func instanceKey(tag string, path []string, content string) string {
	var b strings.Builder
	b.WriteString(tag)
	b.WriteByte(0x1f)
	for _, p := range path {
		b.WriteString(p)
		b.WriteByte(0x1e)
	}
	b.WriteByte(0x1f)
	b.WriteString(content)
	return b.String()
}

func interiorKey(path []string, n *xmltree.Node) string {
	var b strings.Builder
	b.WriteByte(0x1c)
	for _, p := range path {
		b.WriteString(p)
		b.WriteByte(0x1e)
	}
	b.WriteByte(0x1f)
	writeSubtree(&b, n)
	return b.String()
}

func writeSubtree(b *strings.Builder, n *xmltree.Node) {
	b.WriteString(n.Tag)
	b.WriteByte(0x1d)
	b.WriteString(n.Text)
	for _, c := range n.Children {
		b.WriteByte(0x1c)
		writeSubtree(b, c)
		b.WriteByte(0x1e)
	}
}

// diffMapping describes the first difference between two mappings.
func diffMapping(a, b map[string]string) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %q vs %q", k, a[k], b[k])
		}
	}
	return "equal"
}
