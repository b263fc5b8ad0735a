package learn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPredictionNormalize(t *testing.T) {
	p := Prediction{"A": 2, "B": 1, "C": 1}
	p.Normalize()
	if math.Abs(p["A"]-0.5) > 1e-12 || math.Abs(p["B"]-0.25) > 1e-12 {
		t.Errorf("Normalize = %v", p)
	}
}

func TestPredictionNormalizeClampsNegative(t *testing.T) {
	p := Prediction{"A": -1, "B": 1}
	p.Normalize()
	if p["A"] != 0 || p["B"] != 1 {
		t.Errorf("Normalize with negatives = %v", p)
	}
}

func TestPredictionNormalizeAllZero(t *testing.T) {
	p := Prediction{"A": 0, "B": 0}
	p.Normalize()
	if math.Abs(p["A"]-0.5) > 1e-12 {
		t.Errorf("all-zero Normalize = %v, want uniform", p)
	}
}

func TestPredictionBest(t *testing.T) {
	p := Prediction{"ADDRESS": 0.7, "DESCRIPTION": 0.2, "AGENT-PHONE": 0.1}
	best, score := p.Best()
	if best != "ADDRESS" || score != 0.7 {
		t.Errorf("Best = %q, %g", best, score)
	}
	// Deterministic tie-break by label order.
	tie := Prediction{"B": 0.5, "A": 0.5}
	if best, _ := tie.Best(); best != "A" {
		t.Errorf("tie Best = %q, want A", best)
	}
	empty := Prediction{}
	if best, score := empty.Best(); best != "" || score != 0 {
		t.Errorf("empty Best = %q, %g", best, score)
	}
}

func TestPredictionNormalizeProperty(t *testing.T) {
	f := func(a, b, c uint32) bool {
		// Scores in practice are bounded combinations of probabilities;
		// model them as non-negative values of moderate magnitude.
		p := Prediction{
			"x": float64(a) / 1e3,
			"y": float64(b) / 1e3,
			"z": float64(c) / 1e3,
		}
		p.Normalize()
		sum := p["x"] + p["y"] + p["z"]
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	p := Uniform([]string{"a", "b", "c", "d"})
	for _, c := range []string{"a", "b", "c", "d"} {
		if math.Abs(p[c]-0.25) > 1e-12 {
			t.Errorf("Uniform[%s] = %g", c, p[c])
		}
	}
	if len(Uniform(nil)) != 0 {
		t.Error("Uniform(nil) should be empty")
	}
}

func TestExpandedName(t *testing.T) {
	in := Instance{
		TagName:  "phone",
		Path:     []string{"listing", "contact", "phone"},
		Synonyms: []string{"telephone"},
	}
	want := "phone listing contact phone telephone"
	if got := in.ExpandedName(); got != want {
		t.Errorf("ExpandedName = %q, want %q", got, want)
	}
}

// constLearner always predicts its fixed label; used to test CV plumbing.
type constLearner struct {
	label  string
	labels []string
	// trainedOn records how many examples this copy saw.
	trainedOn int
}

func (c *constLearner) Name() string { return "const" }
func (c *constLearner) Train(labels []string, examples []Example) error {
	c.labels = labels
	c.trainedOn = len(examples)
	return nil
}
func (c *constLearner) Predict(in Instance) Prediction {
	p := make(Prediction, len(c.labels))
	for _, l := range c.labels {
		p[l] = 0
	}
	p[c.label] = 1
	return p
}

// memorizer predicts the label it saw for an identical tag name during
// training, uniform otherwise. Used to verify CV actually withholds the
// test fold.
type memorizer struct {
	labels []string
	seen   map[string]string
}

func (m *memorizer) Name() string { return "memorizer" }
func (m *memorizer) Train(labels []string, examples []Example) error {
	m.labels = labels
	m.seen = make(map[string]string)
	for _, ex := range examples {
		m.seen[ex.Instance.TagName] = ex.Label
	}
	return nil
}
func (m *memorizer) Predict(in Instance) Prediction {
	if l, ok := m.seen[in.TagName]; ok {
		p := Prediction{}
		for _, c := range m.labels {
			p[c] = 0
		}
		p[l] = 1
		return p
	}
	return Uniform(m.labels)
}

func TestCrossValidateAlignment(t *testing.T) {
	labels := []string{"A", "B"}
	examples := []Example{
		{Instance: Instance{TagName: "x1"}, Label: "A"},
		{Instance: Instance{TagName: "x2"}, Label: "B"},
		{Instance: Instance{TagName: "x3"}, Label: "A"},
		{Instance: Instance{TagName: "x4"}, Label: "B"},
		{Instance: Instance{TagName: "x5"}, Label: "A"},
	}
	preds, err := CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, examples, 5, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if len(preds) != len(examples) {
		t.Fatalf("preds = %d, want %d", len(preds), len(examples))
	}
	for i, p := range preds {
		if p == nil {
			t.Fatalf("pred %d is nil", i)
		}
		if best, _ := p.Best(); best != "A" {
			t.Errorf("pred %d Best = %q", i, best)
		}
	}
}

func TestCrossValidateWithholdsFold(t *testing.T) {
	// Each tag name appears exactly once, so a memorizer can never have
	// seen its own test instance during CV training: every CV prediction
	// must be uniform.
	labels := []string{"A", "B"}
	var examples []Example
	for i := 0; i < 10; i++ {
		examples = append(examples, Example{
			Instance: Instance{TagName: string(rune('a' + i))},
			Label:    labels[i%2],
		})
	}
	preds, err := CrossValidate(func() Learner { return &memorizer{} },
		labels, examples, 5, rand.New(rand.NewSource(7)), 1)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	for i, p := range preds {
		if math.Abs(p["A"]-0.5) > 1e-12 {
			t.Errorf("pred %d = %v, want uniform (fold leaked)", i, p)
		}
	}
}

func TestCrossValidateSmallInput(t *testing.T) {
	labels := []string{"A"}
	// d larger than n must degrade gracefully (leave-one-out).
	examples := []Example{
		{Instance: Instance{TagName: "x"}, Label: "A"},
		{Instance: Instance{TagName: "y"}, Label: "A"},
	}
	preds, err := CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, examples, 5, rand.New(rand.NewSource(3)), 4)
	if err != nil || len(preds) != 2 {
		t.Fatalf("CrossValidate small: %v, %d preds", err, len(preds))
	}
	if _, err := CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, examples, 1, rand.New(rand.NewSource(3)), 1); err == nil {
		t.Error("d=1 should be rejected")
	}
	preds, err = CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, nil, 5, rand.New(rand.NewSource(3)), 1)
	if err != nil || preds != nil {
		t.Errorf("empty examples: %v, %v", preds, err)
	}
}

func TestAccuracy(t *testing.T) {
	preds := []Prediction{
		{"A": 0.9, "B": 0.1},
		{"A": 0.4, "B": 0.6},
		{"A": 0.5, "B": 0.3},
	}
	truth := []string{"A", "A", "A"}
	if got := Accuracy(preds, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %g, want 2/3", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty Accuracy should be 0")
	}
}

// batchFreq is a BatchPredictor: it scores each label by the smoothed
// frequency of the instance's tag name under that label in training.
// PredictBatch scores each distinct tag name once and counts its calls.
type batchFreq struct {
	labels  []string
	counts  map[string]map[string]float64
	batches *atomic.Int64
}

func (b *batchFreq) Name() string { return "batchFreq" }
func (b *batchFreq) Train(labels []string, examples []Example) error {
	b.labels = labels
	b.counts = make(map[string]map[string]float64)
	for _, ex := range examples {
		if b.counts[ex.Instance.TagName] == nil {
			b.counts[ex.Instance.TagName] = make(map[string]float64)
		}
		b.counts[ex.Instance.TagName][ex.Label]++
	}
	return nil
}
func (b *batchFreq) Predict(in Instance) Prediction {
	p := make(Prediction, len(b.labels))
	for _, c := range b.labels {
		p[c] = 0.1 + b.counts[in.TagName][c]/3
	}
	return p.Normalize()
}
func (b *batchFreq) PredictBatch(ins []Instance) []Prediction {
	b.batches.Add(1)
	seen := make(map[string]Prediction)
	out := make([]Prediction, len(ins))
	for i, in := range ins {
		p, ok := seen[in.TagName]
		if !ok {
			p = b.Predict(in)
			seen[in.TagName] = p
		}
		out[i] = p
	}
	return out
}

// perInstance hides a learner's PredictBatch, forcing the reference
// per-instance Predict path.
type perInstance struct{ Learner }

// TestCrossValidateBatchMatchesPredict checks that CrossValidate scores
// each held-out fold through PredictBatch, once per fold, and that the
// result is bit-identical to per-instance Predict — for source folds
// and for shuffled folds.
func TestCrossValidateBatchMatchesPredict(t *testing.T) {
	labels := []string{"A", "B", "C"}
	for _, groups := range []int{3, 0} {
		var examples []Example
		for i := 0; i < 30; i++ {
			ex := Example{Instance: Instance{TagName: fmt.Sprintf("t%d", i%7)}, Label: labels[i%3]}
			if groups > 0 {
				ex.Group = fmt.Sprintf("s%d", i%groups)
			}
			examples = append(examples, ex)
		}
		var batches atomic.Int64
		batched := func() Learner { return &batchFreq{batches: &batches} }
		ref := func() Learner { return perInstance{batched()} }
		run := func(f Factory) []Prediction {
			preds, err := CrossValidate(f, labels, examples, 5, rand.New(rand.NewSource(11)), 2)
			if err != nil {
				t.Fatalf("groups=%d: %v", groups, err)
			}
			return preds
		}
		want := run(ref)
		if n := batches.Load(); n != 0 {
			t.Fatalf("groups=%d: reference run made %d batch calls", groups, n)
		}
		got := run(batched)
		folds := int64(5)
		if groups > 0 {
			folds = int64(groups)
		}
		if n := batches.Load(); n != folds {
			t.Errorf("groups=%d: %d PredictBatch calls, want one per fold (%d)", groups, n, folds)
		}
		for i := range want {
			for _, c := range labels {
				if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
					t.Fatalf("groups=%d pred[%d][%s]: batch %.17g, per-instance %.17g", groups, i, c, got[i][c], want[i][c])
				}
			}
		}
	}
}
