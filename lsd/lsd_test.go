package lsd_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/datagen"
	"repro/lsd"
)

func TestPublicAPITrainMatch(t *testing.T) {
	mediated := &lsd.Mediated{
		Schema: lsd.MustParseDTD(`
<!ELEMENT LISTING (ADDRESS, DESCRIPTION)>
<!ELEMENT ADDRESS (#PCDATA)>
<!ELEMENT DESCRIPTION (#PCDATA)>
`),
		Constraints: []lsd.Constraint{
			lsd.AtMostOne("ADDRESS"),
			lsd.AtMostOne("DESCRIPTION"),
		},
	}
	listings, err := lsd.ParseListings(strings.NewReader(`
<l><loc>Miami, FL</loc><desc>Great house, fantastic yard</desc></l>
<l><loc>Boston, MA</loc><desc>Beautiful view, great location</desc></l>
<l><loc>Kent, WA</loc><desc>Fantastic garden, wonderful street</desc></l>
`))
	if err != nil {
		t.Fatal(err)
	}
	train := &lsd.Source{
		Name: "train",
		Schema: lsd.MustParseDTD(`
<!ELEMENT l (loc, desc)>
<!ELEMENT loc (#PCDATA)>
<!ELEMENT desc (#PCDATA)>
`),
		Listings: listings,
		Mapping: map[string]string{
			"l": "LISTING", "loc": "ADDRESS", "desc": "DESCRIPTION",
		},
	}
	sys, err := lsd.Train(mediated, []*lsd.Source{train}, lsd.DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}

	testListings, err := lsd.ParseListings(strings.NewReader(`
<e><area>Portland, OR</area><info>Great beach, fantastic price</info></e>
<e><area>Austin, TX</area><info>Wonderful kitchen, beautiful deck</info></e>
`))
	if err != nil {
		t.Fatal(err)
	}
	target := &lsd.Source{
		Name: "target",
		Schema: lsd.MustParseDTD(`
<!ELEMENT e (area, info)>
<!ELEMENT area (#PCDATA)>
<!ELEMENT info (#PCDATA)>
`),
		Listings: testListings,
		Mapping: map[string]string{
			"e": "LISTING", "area": "ADDRESS", "info": "DESCRIPTION",
		},
	}
	res, err := sys.Match(context.Background(), target)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if res.Mapping["area"] != "ADDRESS" || res.Mapping["info"] != "DESCRIPTION" {
		t.Errorf("Mapping = %v", res.Mapping)
	}
	// The root tag may miss with a single tiny training source; the
	// leaf tags must match, so accuracy is at least 2/3.
	if acc := lsd.Accuracy(target, res.Mapping); acc < 2.0/3-1e-9 {
		t.Errorf("Accuracy = %g, want >= 2/3", acc)
	}
	report := lsd.Describe(target, res)
	search := fmt.Sprintf("constraint search: complete, %d expansions", res.Handler.Expansions)
	for _, want := range []string{"area", "ADDRESS", "target", search} {
		if !strings.Contains(report, want) {
			t.Errorf("Describe missing %q:\n%s", want, report)
		}
	}
}

// TestDescribeReportsSearchFallback: Describe says when A* ran out of
// budget and completed greedily, and says nothing about the search
// when the handler did not run.
func TestDescribeReportsSearchFallback(t *testing.T) {
	src := &lsd.Source{Name: "s", Schema: lsd.MustParseDTD(`<!ELEMENT a (#PCDATA)>`)}
	res := &lsd.MatchResult{
		Mapping:        lsd.Assignment{"a": lsd.Other},
		TagPredictions: map[string]lsd.Prediction{"a": {lsd.Other: 1}},
		Handler:        &constraint.Result{Expansions: 1},
	}
	if got, want := lsd.Describe(src, res), "constraint search: greedy fallback, 1 expansions\n"; !strings.HasSuffix(got, want) {
		t.Errorf("Describe = %q, want suffix %q", got, want)
	}
	res.Handler = nil
	if got := lsd.Describe(src, res); strings.Contains(got, "constraint search") {
		t.Errorf("Describe without a handler run = %q", got)
	}
}

func TestFeedbackViaPublicAPI(t *testing.T) {
	d := datagen.FacultyListings()
	specs := d.Sources()
	var train []*lsd.Source
	for _, s := range specs[:3] {
		train = append(train, s.Generate(10, 1))
	}
	sys, err := lsd.Train(d.Mediated(), train, lsd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	test := specs[3].Generate(10, 1)
	tag := test.Schema.Tags()[1]
	res, err := sys.Match(context.Background(), test, lsd.MustMatch(tag, lsd.Other))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping[tag] != lsd.Other {
		t.Errorf("feedback not honoured: %v -> %v", tag, res.Mapping[tag])
	}
}

func TestCustomLearnerRegistration(t *testing.T) {
	d := datagen.TimeSchedule()
	specs := d.Sources()
	var train []*lsd.Source
	for _, s := range specs[:3] {
		train = append(train, s.Generate(10, 1))
	}
	cfg := lsd.DefaultConfig()
	cfg.BaseLearners = append(cfg.BaseLearners, lsd.NewFormatLearner())
	sys, err := lsd.Train(d.Mediated(), train, cfg)
	if err != nil {
		t.Fatalf("Train with format learner: %v", err)
	}
	found := false
	for _, n := range sys.LearnerNames() {
		if n == "FormatLearner" {
			found = true
		}
	}
	if !found {
		t.Errorf("LearnerNames = %v, missing FormatLearner", sys.LearnerNames())
	}
}

func TestRecognizerSpecs(t *testing.T) {
	spec := lsd.NewCountyRecognizer("COUNTY")
	l := spec.Factory()
	if err := l.Train([]string{"COUNTY", lsd.Other}, nil); err != nil {
		t.Fatal(err)
	}
	p := l.Predict(lsd.Instance{Content: "Snohomish"})
	if best, _ := p.Best(); best != "COUNTY" {
		t.Errorf("county recognizer Best = %q", best)
	}
	dict := lsd.NewDictionaryRecognizer("colors", "COLOR", []string{"red", "green"})
	cl := dict.Factory()
	if err := cl.Train([]string{"COLOR", lsd.Other}, nil); err != nil {
		t.Fatal(err)
	}
	if best, _ := cl.Predict(lsd.Instance{Content: "red"}).Best(); best != "COLOR" {
		t.Errorf("dictionary recognizer Best = %q", best)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := lsd.ParseDTD("<!ELEMENT a (#PCDATA)>"); err != nil {
		t.Errorf("ParseDTD: %v", err)
	}
	if _, err := lsd.ParseDTD("garbage"); err == nil {
		t.Error("ParseDTD accepted garbage")
	}
	n, err := lsd.ParseXML(strings.NewReader("<a><b>1</b></a>"))
	if err != nil || n.Tag != "a" {
		t.Errorf("ParseXML: %v, %v", n, err)
	}
}
