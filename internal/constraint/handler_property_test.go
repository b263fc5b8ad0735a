package constraint

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/learn"
)

// TestHandlerPropertyRandomInstances: on random small problems with
// at-most-one constraints everywhere, the handler must (a) return a
// complete feasible mapping, (b) stay within the ε suboptimality bound
// of weighted A*, and (c) find the exact optimum when run with ε = 1.
func TestHandlerPropertyRandomInstances(t *testing.T) {
	labels := []string{"L1", "L2", "L3", learn.Other}
	src := testSource()
	src.Tags = []string{"beds", "baths", "name"}
	cons := []Constraint{AtMostOne("L1"), AtMostOne("L2"), AtMostOne("L3")}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := map[string]learn.Prediction{}
		for _, tag := range src.Tags {
			p := learn.Prediction{}
			for _, l := range labels {
				p[l] = rng.Float64()
			}
			p.Normalize()
			preds[tag] = p
		}
		h := NewHandler(cons...)
		h.TopK = 0 // all candidates: tiny instance
		res, err := h.Run(src, preds)
		if err != nil || !res.Complete {
			return false
		}
		// Feasible.
		if math.IsInf(Cost(cons, src, res.Mapping, true), 1) {
			return false
		}
		// Optimal: compare against exhaustive search.
		best := math.Inf(1)
		var enumerate func(i int, m Assignment)
		enumerate = func(i int, m Assignment) {
			if i == len(src.Tags) {
				cc := Cost(cons, src, m, true)
				if math.IsInf(cc, 1) {
					return
				}
				if c := ProbCost(preds, m) + cc; c < best {
					best = c
				}
				return
			}
			for _, l := range labels {
				m[src.Tags[i]] = l
				enumerate(i+1, m)
			}
			delete(m, src.Tags[i])
		}
		enumerate(0, Assignment{})
		if res.Cost > h.Epsilon*best+1e-9 {
			return false
		}
		// Exact search must find the optimum.
		exact := NewHandler(cons...)
		exact.TopK = 0
		exact.Epsilon = 1
		eres, err := exact.Run(src, preds)
		if err != nil || !eres.Complete {
			return false
		}
		return eres.Cost <= best+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHandlerNeverAssignsOutsideLabelSet: mappings only use labels that
// appear in the predictions (or OTHER).
func TestHandlerNeverAssignsOutsideLabelSet(t *testing.T) {
	src := testSource()
	preds := map[string]learn.Prediction{}
	for _, tag := range src.Tags {
		preds[tag] = learn.Prediction{"A": 0.6, "B": 0.3, learn.Other: 0.1}
	}
	h := NewHandler()
	res, err := h.Run(src, preds)
	if err != nil {
		t.Fatal(err)
	}
	for tag, l := range res.Mapping {
		if l != "A" && l != "B" && l != learn.Other {
			t.Errorf("tag %s mapped to unexpected label %q", tag, l)
		}
	}
}

// TestRepairMatchesFullRecompute: incremental repair returns the same
// mapping and a bit-identical cost as a reference hill climb that
// scores every move from scratch with Cost + ProbCost. It starts from
// random complete mappings, feasible or not, on the random instances
// above and on a richer one using every constraint type.
func TestRepairMatchesFullRecompute(t *testing.T) {
	labels := []string{"L1", "L2", "L3", learn.Other}
	small := testSource()
	small.Tags = []string{"beds", "baths", "name"}
	smallCons := []Constraint{AtMostOne("L1"), AtMostOne("L2"), AtMostOne("L3")}
	rich := testSource()
	richCons := []Constraint{
		AtMostOne("L1"), ExactlyOne("L2"), Frequency("L3", 0, 2),
		NestedIn("L3", "L1"), NotNestedIn("L2", "L3"), Contiguous("L1", "L2"),
		Exclusive("L1", "L4"), Key("L2"), FunctionalDep([]string{"L3"}, "L4"),
		AtMostSoft("L4", 1, 0.7), Near("L1", "L3", 0.5), LeafLabel("L1"),
		NonLeafLabel("L4"), MustNotMatch("phone", "L2"),
	}
	richLabels := append([]string{"L4"}, labels...)

	for _, inst := range []struct {
		name   string
		src    *Source
		cons   []Constraint
		labels []string
	}{
		{"small", small, smallCons, labels},
		{"rich", rich, richCons, richLabels},
	} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			preds := map[string]learn.Prediction{}
			for _, tag := range inst.src.Tags {
				p := learn.Prediction{}
				for _, l := range inst.labels {
					p[l] = rng.Float64() * rng.Float64()
				}
				p.Normalize()
				preds[tag] = p
			}
			h := NewHandler(inst.cons...)
			h.TopK = 1 + rng.Intn(len(inst.labels))
			order := h.tagOrder(inst.src)
			cands := h.candidates(inst.src, order, preds)
			start := Assignment{}
			for _, tag := range order {
				start[tag] = inst.labels[rng.Intn(len(inst.labels))]
			}
			got, want := start.Clone(), start.Clone()
			gotCost := h.repair(inst.src, preds, order, cands, got, h.index())
			wantCost := fullRecomputeRepair(h, inst.src, preds, order, cands, want)
			if !reflect.DeepEqual(got, want) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
				t.Logf("%s seed %d: got %v cost %v, want %v cost %v", inst.name, seed, got, gotCost, want, wantCost)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", inst.name, err)
		}
	}
}

// fullRecomputeRepair is the reference for Handler.repair: the same
// moves, order, acceptance rule and pass cap, with every move scored
// by evaluating Cost and ProbCost over the whole mapping.
func fullRecomputeRepair(h *Handler, src *Source, preds map[string]learn.Prediction,
	order []string, cands [][]candidate, m Assignment) float64 {

	total := func() float64 {
		cc := Cost(h.Constraints, src, m, true)
		if math.IsInf(cc, 1) {
			return cc
		}
		return h.Alpha*ProbCost(preds, m) + cc
	}
	cur := total()
	for pass := 0; pass < 10; pass++ {
		improved := false
		for i, tag := range order {
			was := m[tag]
			for _, cand := range cands[i] {
				if cand.label == was {
					continue
				}
				m[tag] = cand.label
				if c := total(); c < cur-1e-12 {
					cur, was, improved = c, cand.label, true
				} else {
					m[tag] = was
				}
			}
			m[tag] = was
		}
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				ti, tj := order[i], order[j]
				if m[ti] == m[tj] {
					continue
				}
				m[ti], m[tj] = m[tj], m[ti]
				if c := total(); c < cur-1e-12 {
					cur, improved = c, true
				} else {
					m[ti], m[tj] = m[tj], m[ti]
				}
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(cur, 1) {
		soft := 0.0
		for _, c := range h.Constraints {
			if !c.Hard() {
				soft += c.Weight() * c.Violations(src, m, true)
			}
		}
		return h.Alpha*ProbCost(preds, m) + soft
	}
	return cur
}
