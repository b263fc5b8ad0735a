package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/learn"
	"repro/internal/xmltree"
)

// tinyDomain builds a miniature real-estate domain with two training
// sources and one test source, mirroring the paper's running example
// (Figures 2, 5, 6).
func tinyMediated() *Mediated {
	return &Mediated{
		Schema: dtd.MustParse(`
<!ELEMENT LISTING (ADDRESS, DESCRIPTION, AGENT-PHONE)>
<!ELEMENT ADDRESS (#PCDATA)>
<!ELEMENT DESCRIPTION (#PCDATA)>
<!ELEMENT AGENT-PHONE (#PCDATA)>
`),
		Constraints: []constraint.Constraint{
			constraint.AtMostOne("ADDRESS"),
			constraint.AtMostOne("DESCRIPTION"),
			constraint.AtMostOne("AGENT-PHONE"),
		},
	}
}

func listing(tagAddr, addr, tagDesc, desc, tagPhone, phone string, rootTag string) *xmltree.Node {
	return xmltree.NewParent(rootTag,
		xmltree.New(tagAddr, addr),
		xmltree.New(tagDesc, desc),
		xmltree.New(tagPhone, phone),
	)
}

func tinySources() []*Source {
	// realestate.com (Figure 5): location, comments, contact.
	s1 := &Source{
		Name: "realestate.com",
		Schema: dtd.MustParse(`
<!ELEMENT re-listing (location, comments, contact)>
<!ELEMENT location (#PCDATA)>
<!ELEMENT comments (#PCDATA)>
<!ELEMENT contact (#PCDATA)>
`),
		Mapping: map[string]string{
			"re-listing": "LISTING", "location": "ADDRESS",
			"comments": "DESCRIPTION", "contact": "AGENT-PHONE",
		},
		Listings: []*xmltree.Node{
			listing("location", "Miami, FL", "comments", "Nice area with great views", "contact", "(305) 729 0831", "re-listing"),
			listing("location", "Boston, MA", "comments", "Close to the river, fantastic yard", "contact", "(617) 253 1429", "re-listing"),
			listing("location", "Seattle, WA", "comments", "Great location, beautiful kitchen", "contact", "(206) 523 4719", "re-listing"),
			listing("location", "Denver, CO", "comments", "Fantastic house near a great park", "contact", "(303) 555 0101", "re-listing"),
		},
	}
	// homeseekers.com: house-addr, detailed-desc, phone.
	s2 := &Source{
		Name: "homeseekers.com",
		Schema: dtd.MustParse(`
<!ELEMENT hs-entry (house-addr, detailed-desc, phone)>
<!ELEMENT house-addr (#PCDATA)>
<!ELEMENT detailed-desc (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
`),
		Mapping: map[string]string{
			"hs-entry": "LISTING", "house-addr": "ADDRESS",
			"detailed-desc": "DESCRIPTION", "phone": "AGENT-PHONE",
		},
		Listings: []*xmltree.Node{
			listing("house-addr", "Seattle, WA", "detailed-desc", "Fantastic backyard and a great deck", "phone", "(206) 753 2605", "hs-entry"),
			listing("house-addr", "Portland, OR", "detailed-desc", "Great yard, wonderful neighborhood", "phone", "(515) 273 4312", "hs-entry"),
			listing("house-addr", "Austin, TX", "detailed-desc", "Beautiful house with a fantastic view", "phone", "(512) 555 0110", "hs-entry"),
			listing("house-addr", "Tacoma, WA", "detailed-desc", "Charming garden, great schools", "phone", "(253) 555 0188", "hs-entry"),
		},
	}
	return []*Source{s1, s2}
}

func greatHomes() *Source {
	// greathomes.com (Figure 6): area, extra-info, work-phone.
	return &Source{
		Name: "greathomes.com",
		Schema: dtd.MustParse(`
<!ELEMENT gh-item (area, extra-info, work-phone)>
<!ELEMENT area (#PCDATA)>
<!ELEMENT extra-info (#PCDATA)>
<!ELEMENT work-phone (#PCDATA)>
`),
		Mapping: map[string]string{
			"gh-item": "LISTING", "area": "ADDRESS",
			"extra-info": "DESCRIPTION", "work-phone": "AGENT-PHONE",
		},
		Listings: []*xmltree.Node{
			listing("area", "Orlando, FL", "extra-info", "Spacious house, great beach nearby", "work-phone", "(315) 237 4379", "gh-item"),
			listing("area", "Kent, WA", "extra-info", "Close to highway, fantastic price", "work-phone", "(415) 273 1234", "gh-item"),
			listing("area", "Portland, OR", "extra-info", "Great location, beautiful street", "work-phone", "(515) 237 4244", "gh-item"),
		},
	}
}

func trainTiny(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := Train(tinyMediated(), tinySources(), cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return sys
}

// TestPaperRunningExample reproduces the paper's flagship flow: train
// on realestate.com and homeseekers.com, then match greathomes.com.
func TestPaperRunningExample(t *testing.T) {
	sys := trainTiny(t, DefaultConfig())
	res, err := sys.Match(context.Background(), greatHomes())
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	want := map[string]string{
		"area":       "ADDRESS",
		"extra-info": "DESCRIPTION",
		"work-phone": "AGENT-PHONE",
	}
	for tag, label := range want {
		if res.Mapping[tag] != label {
			t.Errorf("mapping[%s] = %q, want %q (predictions: %v)",
				tag, res.Mapping[tag], label, res.TagPredictions[tag])
		}
	}
	if acc := Accuracy(greatHomes(), res.Mapping); acc != 1 {
		t.Errorf("accuracy = %g, want 1 (wrong: %v)", acc, WrongTags(greatHomes(), res.Mapping))
	}
}

func TestMatchWithoutConstraintHandler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseConstraintHandler = false
	sys := trainTiny(t, cfg)
	res, err := sys.Match(context.Background(), greatHomes())
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if res.Handler != nil {
		t.Error("greedy config returned handler result")
	}
	if len(res.Mapping) != 4 {
		t.Errorf("mapping size = %d, want 4", len(res.Mapping))
	}
}

func TestMatchWithFeedback(t *testing.T) {
	sys := trainTiny(t, DefaultConfig())
	// Force an (incorrect) label via feedback and check it sticks: the
	// constraint handler must respect user equality constraints.
	res, err := sys.Match(context.Background(), greatHomes(), constraint.MustMatch("area", "DESCRIPTION"))
	if err != nil {
		t.Fatalf("Match with feedback: %v", err)
	}
	if res.Mapping["area"] != "DESCRIPTION" {
		t.Errorf("feedback not honoured: %v", res.Mapping)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Error("nil mediated accepted")
	}
	cfg := Config{}
	if _, err := Train(tinyMediated(), tinySources(), cfg); err == nil {
		t.Error("no learners accepted")
	}
}

func TestMatchErrors(t *testing.T) {
	sys := trainTiny(t, DefaultConfig())
	if _, err := sys.Match(context.Background(), nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestLabelsIncludeOther(t *testing.T) {
	med := tinyMediated()
	labels := med.Labels()
	found := false
	for _, l := range labels {
		if l == learn.Other {
			found = true
		}
	}
	if !found {
		t.Errorf("Labels() = %v, missing OTHER", labels)
	}
	if len(labels) != 5 {
		t.Errorf("len(Labels) = %d, want 5", len(labels))
	}
}

func TestExtractExamples(t *testing.T) {
	med := tinyMediated()
	sources := tinySources()
	examples := ExtractExamples(med, sources, 0)
	// 8 listings x 4 nodes each.
	if len(examples) != 32 {
		t.Fatalf("examples = %d, want 32", len(examples))
	}
	// Labels follow the source mappings.
	for _, ex := range examples {
		if ex.Instance.TagName == "location" && ex.Label != "ADDRESS" {
			t.Errorf("location labelled %q", ex.Label)
		}
		if ex.Instance.TagName == "hs-entry" && ex.Label != "LISTING" {
			t.Errorf("hs-entry labelled %q", ex.Label)
		}
	}
	// MaxListings caps per source.
	capped := ExtractExamples(med, sources, 1)
	if len(capped) != 8 {
		t.Errorf("capped examples = %d, want 8", len(capped))
	}
}

func TestCollectColumns(t *testing.T) {
	cols, err := CollectColumns(context.Background(), nil, greatHomes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols["area"]) != 3 {
		t.Errorf("area column = %d instances, want 3", len(cols["area"]))
	}
	if len(cols["gh-item"]) != 3 {
		t.Errorf("root column = %d instances, want 3", len(cols["gh-item"]))
	}
	// Paths recorded root-first.
	in := cols["area"][0]
	if len(in.Path) != 2 || in.Path[0] != "gh-item" {
		t.Errorf("instance path = %v", in.Path)
	}
}

func TestAccuracyAndWrongTags(t *testing.T) {
	src := greatHomes()
	m := constraint.Assignment{
		"gh-item": "LISTING", "area": "ADDRESS",
		"extra-info": "DESCRIPTION", "work-phone": "OTHER",
	}
	if acc := Accuracy(src, m); acc != 0.75 {
		t.Errorf("Accuracy = %g, want 0.75", acc)
	}
	wrong := WrongTags(src, m)
	if len(wrong) != 1 || wrong[0] != "work-phone" {
		t.Errorf("WrongTags = %v", wrong)
	}
}

func TestStackerExposed(t *testing.T) {
	sys := trainTiny(t, DefaultConfig())
	if sys.Stacker() == nil {
		t.Fatal("Stacker() nil")
	}
	names := sys.LearnerNames()
	if len(names) != 4 { // name, content, NB, XML
		t.Errorf("LearnerNames = %v", names)
	}
}

// TestMatchEmptyColumns: a source tag with no data instances still
// receives a prediction (name-only path).
func TestMatchEmptyColumns(t *testing.T) {
	sys := trainTiny(t, DefaultConfig())
	src := greatHomes()
	// A schema with an extra declared tag that never appears in data.
	src.Schema = dtd.MustParse(`
<!ELEMENT gh-item (area, extra-info, work-phone, location?)>
<!ELEMENT area (#PCDATA)>
<!ELEMENT extra-info (#PCDATA)>
<!ELEMENT work-phone (#PCDATA)>
<!ELEMENT location (#PCDATA)>
`)
	res, err := sys.Match(context.Background(), src)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if _, ok := res.Mapping["location"]; !ok {
		t.Error("dataless tag got no mapping")
	}
	if res.Mapping["location"] == "" {
		t.Error("dataless tag mapped to empty label")
	}
}

// TestCombinedMemoHitBitEqual: a combined-memo hit rebuilds the very
// prediction the miss stored — same keys, same bits — as a fresh map,
// so a caller mutating what it was handed cannot change later hits.
func TestCombinedMemoHitBitEqual(t *testing.T) {
	sys := trainTiny(t, DefaultConfig())
	sys.combined = new(memo[[]float64])
	cols, err := CollectColumns(context.Background(), sys.mediated, greatHomes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var batch []learn.Instance
	for _, tag := range []string{"gh-item", "area", "extra-info", "work-phone"} {
		batch = append(batch, cols[tag]...)
	}
	miss := sys.combineBatch(batch)
	want := make([]learn.Prediction, len(miss))
	for i, p := range miss {
		want[i] = p.Clone()
	}
	equal := func(what string, got []learn.Prediction) {
		t.Helper()
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s %d: %d labels, want %d", what, i, len(got[i]), len(want[i]))
			}
			for l, v := range want[i] {
				g, ok := got[i][l]
				if !ok || math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s %d: %s = %v (present %v), want %v", what, i, l, g, ok, v)
				}
			}
		}
	}
	hit := sys.combineBatch(batch)
	equal("hit", hit)
	for _, p := range append(hit, miss...) {
		for l := range p {
			p[l] = -1
		}
		p["NOT-A-LABEL"] = 2
	}
	equal("hit after mutation", sys.combineBatch(batch))
}
