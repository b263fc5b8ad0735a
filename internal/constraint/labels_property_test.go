package constraint_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/datagen"
)

// TestViolationsIgnoreUnlistedLabels pins the Labels() contract that
// A* and repair rely on when they re-check only the constraints
// indexed under the labels a step touches: moving one tag between two
// labels that a constraint's non-nil Labels() does not list — where
// "no label" (unassigned) is one end of every A* step — leaves its
// Violations unchanged, with complete both false and true. It runs
// every built-in constraint type, every datagen domain's constraint
// set and user feedback over every datagen source.
func TestViolationsIgnoreUnlistedLabels(t *testing.T) {
	const trials = 40
	positive := make(map[string]bool) // constraint types seen violated
	for _, d := range datagen.Domains() {
		med := d.Mediated()
		labels := d.Labels()
		for si, spec := range d.Sources() {
			src := spec.Generate(8, int64(si+1))
			cols, err := core.CollectColumns(context.Background(), med, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			csrc := core.BuildConstraintSource(src, cols, 0)
			cons := append(append([]constraint.Constraint{}, med.Constraints...), builtins(labels)...)
			fb := csrc.Tags[len(csrc.Tags)/2]
			cons = append(cons,
				constraint.MustMatch(fb, labels[0]),
				constraint.MustNotMatch(fb, labels[1]))

			rng := rand.New(rand.NewSource(int64(si)*7919 + int64(len(labels))))
			for trial := 0; trial < trials; trial++ {
				m := randomAssignment(rng, csrc.Tags, spec.Mapping, labels)
				for _, c := range cons {
					for _, complete := range []bool{false, true} {
						if c.Violations(csrc, m, complete) > 0 {
							positive[fmt.Sprintf("%T", c)] = true
						}
					}
					listed := c.Labels()
					if listed == nil {
						continue // global: re-checked on every step
					}
					tag, a, b, ok := unlistedMove(rng, csrc.Tags, m, labels, listed)
					if !ok {
						continue
					}
					for _, complete := range []bool{false, true} {
						before := c.Violations(csrc, m, complete)
						relabel(m, tag, b)
						after := c.Violations(csrc, m, complete)
						relabel(m, tag, a)
						if before != after {
							t.Errorf("%s / %s: %s moved %q -> %q (complete=%v): violations %g -> %g, but Labels() = %v",
								d.Name, spec.Name, c.Name(), a, b, complete, before, after, listed)
						}
					}
				}
			}
			// Feedback reacts to any label of its tag, so it must stay
			// global: assigning the tag a label it does not name changes
			// MustMatch's degree.
			m := constraint.Assignment{}
			for _, c := range cons[len(cons)-2:] {
				if c.Labels() != nil {
					t.Errorf("%s: Labels() = %v, want nil", c.Name(), c.Labels())
				}
			}
			before := cons[len(cons)-2].Violations(csrc, m, false)
			m[fb] = labels[2]
			if after := cons[len(cons)-2].Violations(csrc, m, false); after == before {
				t.Errorf("MustMatch(%s, %s) ignored the assignment %s=%s", fb, labels[0], fb, labels[2])
			}
		}
	}
	for _, typ := range []string{
		"*constraint.frequency", "*constraint.nesting", "*constraint.contiguity",
		"*constraint.exclusivity", "*constraint.key", "*constraint.functionalDep",
		"*constraint.binarySoft", "*constraint.proximity", "*constraint.leafness",
		"*constraint.mustMatch",
	} {
		if !positive[typ] {
			t.Errorf("no trial violated a %s; the property is vacuous for it", typ)
		}
	}
}

// builtins returns one constraint of every built-in constructor over
// the domain's first labels, so each type runs on every datagen
// schema whether or not the domain's own set uses it.
func builtins(labels []string) []constraint.Constraint {
	a, b, c, d := labels[0], labels[1], labels[2], labels[3]
	return []constraint.Constraint{
		constraint.AtMostOne(a),
		constraint.ExactlyOne(b),
		constraint.Frequency(c, 1, -1),
		constraint.NestedIn(a, b),
		constraint.NotNestedIn(c, d),
		constraint.Contiguous(b, c),
		constraint.Exclusive(a, d),
		constraint.Key(b),
		constraint.FunctionalDep([]string{c}, d),
		constraint.AtMostSoft(d, 0, 0.5),
		constraint.BinarySoft("both assigned", 0.25, []string{a, c},
			func(src *constraint.Source, m constraint.Assignment, _ bool) bool {
				return m.CountTagsFor(src, a) > 0 && m.CountTagsFor(src, c) > 0
			}),
		constraint.Near(b, d, 0.5),
		constraint.LeafLabel(c),
		constraint.NonLeafLabel(d),
	}
}

// randomAssignment maps each tag to its true label, a random label, or
// nothing, so assignments are partial, often feasible and often not.
func randomAssignment(rng *rand.Rand, tags []string, truth map[string]string, labels []string) constraint.Assignment {
	m := constraint.Assignment{}
	for _, tag := range tags {
		switch r := rng.Float64(); {
		case r < 0.2:
		case r < 0.6 && truth[tag] != "":
			m[tag] = truth[tag]
		default:
			m[tag] = labels[rng.Intn(len(labels))]
		}
	}
	return m
}

// unlistedMove picks a tag whose current label a ("" when unassigned)
// is not listed and a different unlisted label b ("" to unassign).
func unlistedMove(rng *rand.Rand, tags []string, m constraint.Assignment, labels, listed []string) (tag, a, b string, ok bool) {
	isListed := func(l string) bool {
		for _, x := range listed {
			if x == l {
				return true
			}
		}
		return false
	}
	for try := 0; try < 20; try++ {
		tag = tags[rng.Intn(len(tags))]
		a = m[tag]
		if isListed(a) {
			continue
		}
		b = ""
		if k := rng.Intn(len(labels) + 1); k < len(labels) {
			b = labels[k]
		}
		if b != a && !isListed(b) {
			return tag, a, b, true
		}
	}
	return "", "", "", false
}

// relabel sets tag's label, with "" meaning unassigned.
func relabel(m constraint.Assignment, tag, label string) {
	if label == "" {
		delete(m, tag)
		return
	}
	m[tag] = label
}
