package dtd_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtd"
)

// TestChildIndexMatchesScan: SiblingsBetween and IsLeaf, answered from
// the per-schema child index, agree with a scan of every declaration's
// content model — the computation the index replaced — on every
// datagen mediated and source schema, and on a schema with mixed
// content, attributes, repeated and multiply-parented children.
func TestChildIndexMatchesScan(t *testing.T) {
	schemas := map[string]*dtd.Schema{
		"edge cases": dtd.MustParse(`
<!ELEMENT r (a, (b | a)*, c, m, x?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (c, a)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT m (#PCDATA | x | y)*>
<!ELEMENT x EMPTY>
<!ELEMENT y ANY>
<!ATTLIST r a CDATA #IMPLIED id CDATA #IMPLIED>
<!ATTLIST c lang CDATA #IMPLIED>
`),
	}
	for _, d := range datagen.Domains() {
		schemas[d.Name+" mediated"] = d.MediatedSchema()
		for _, spec := range d.Sources() {
			schemas[spec.Name] = spec.Schema
		}
	}
	for name, s := range schemas {
		tags := append(s.Tags(), "undeclared")
		for _, a := range tags {
			if got, want := s.IsLeaf(a), len(s.ChildTags(a)) == 0; got != want {
				t.Errorf("%s: IsLeaf(%s) = %v, scan says %v", name, a, got, want)
			}
			for _, b := range tags {
				if a == b {
					continue
				}
				between, ok := s.SiblingsBetween(a, b)
				wantBetween, wantOK := scanSiblingsBetween(s, a, b)
				if ok != wantOK || !reflect.DeepEqual(between, wantBetween) {
					t.Errorf("%s: SiblingsBetween(%s, %s) = %q, %v; scan says %q, %v",
						name, a, b, between, ok, wantBetween, wantOK)
				}
			}
		}
	}
}

// scanSiblingsBetween is SiblingsBetween without the index: the first
// declaration, in declaration order, whose child order lists both tags.
func scanSiblingsBetween(s *dtd.Schema, a, b string) ([]string, bool) {
	indexOf := func(xs []string, x string) int {
		for i, v := range xs {
			if v == x {
				return i
			}
		}
		return -1
	}
	for _, e := range s.Decls() {
		order := s.ChildOrder(e.Name)
		ia, ib := indexOf(order, a), indexOf(order, b)
		if ia < 0 || ib < 0 {
			continue
		}
		if ia > ib {
			ia, ib = ib, ia
		}
		return append([]string{}, order[ia+1:ib]...), true
	}
	return nil, false
}

// TestChildIndexConcurrentFirstUse: matching workers share one schema,
// so the first queries, which build the index, may come from several
// goroutines at once (run with -race).
func TestChildIndexConcurrentFirstUse(t *testing.T) {
	s := datagen.RealEstateII().Sources()[0].Schema
	fresh, err := dtd.Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	tags := fresh.Tags()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, a := range tags {
				b := tags[(i+g+1)%len(tags)]
				if a == b {
					continue
				}
				got, ok := fresh.SiblingsBetween(a, b)
				want, wantOK := scanSiblingsBetween(fresh, a, b)
				if ok != wantOK || !reflect.DeepEqual(got, want) || fresh.IsLeaf(a) != (len(fresh.ChildTags(a)) == 0) {
					t.Errorf("goroutine %d: %s, %s disagree with the scan", g, a, b)
				}
			}
		}(g)
	}
	wg.Wait()
}
