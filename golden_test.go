package repro_test

// The golden mapping corpus pins the complete matching output of every
// datagen domain on a fixed split: the proposed mapping, every per-tag
// confidence score at full float64 precision, the final stacker
// weights, and the accuracy. A refactor that claims bit-identical
// output must leave these files untouched; a change that moves float
// results must regenerate them deliberately:
//
//	go test . -run Golden -update

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

var update = flag.Bool("update", false, "rewrite the golden mapping corpus in testdata/golden")

// The fixed split: every source spec but the last trains, the last is
// matched, each generated with these listing counts and seeds.
const (
	goldenListings = 20
	goldenSeed     = 5
)

func goldenPath(domain string) string {
	slug := strings.ToLower(strings.ReplaceAll(domain, " ", "-"))
	return filepath.Join("testdata", "golden", slug+".txt")
}

// goldenRecord renders one domain's split: accuracy, stacker weights,
// then the mapping and per-tag predictions (matchFingerprint).
func goldenRecord(t *testing.T, d *datagen.Domain) string {
	t.Helper()
	med := d.Mediated()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:len(specs)-1] {
		train = append(train, spec.Generate(goldenListings, goldenSeed))
	}
	test := specs[len(specs)-1].Generate(goldenListings, goldenSeed)
	sys, err := core.Train(med, train, core.DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	res, err := sys.Match(context.Background(), test)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "domain %s\ntrain %d sources x %d listings, seed %d; test %s\n",
		d.Name, len(train), goldenListings, goldenSeed, test.Name)
	fmt.Fprintf(&b, "accuracy %.17g\n", core.Accuracy(test, res.Mapping))
	b.WriteString("weights\n")
	b.WriteString(weightsFingerprint(sys))
	b.WriteString("mapping\n")
	b.WriteString(matchFingerprint(sys, res))
	return b.String()
}

// TestGoldenMappings compares every domain's record byte for byte
// against the committed corpus.
func TestGoldenMappings(t *testing.T) {
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			got := goldenRecord(t, d)
			path := goldenPath(d.Name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (run `go test . -run Golden -update` to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from the golden corpus; if the change is intentional, regenerate with `go test . -run Golden -update` and review the diff\ngot:\n%s", path, got)
			}
		})
	}
}
