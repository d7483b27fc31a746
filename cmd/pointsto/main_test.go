package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"bddbddb/internal/analysis"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

const (
	factorySrc    = "../../internal/frontend/gofront/testdata/src/factory"
	factoryGolden = "../../internal/frontend/gofront/testdata/golden/factory.jp"
)

// runOut drives run with a fresh session and returns its stdout.
func runOut(t *testing.T, args []string, o options) (string, error) {
	t.Helper()
	sess, err := (&obs.Flags{}).Start("pointsto")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var out bytes.Buffer
	err = run(context.Background(), &out, sess, resilience.Flags{}, args, o)
	return out.String(), err
}

var pairsLine = regexp.MustCompile(`(?m)^points-to pairs \(context-projected\): (\d+) `)

// TestGoSourceAndGoldenAgree checks that a Go package and its golden
// .jp lowering give the same points-to pair count, so the two inputs
// share everything after loading.
func TestGoSourceAndGoldenAgree(t *testing.T) {
	for _, algo := range []string{"cs", "heap-cs"} {
		t.Run(algo, func(t *testing.T) {
			var counts []string
			for _, in := range []string{factorySrc, factoryGolden} {
				out, err := runOut(t, []string{in}, options{algo: algo, report: "nil"})
				if err != nil {
					t.Fatalf("%s: %v", in, err)
				}
				m := pairsLine.FindStringSubmatch(out)
				if m == nil {
					t.Fatalf("%s: no pair count in output:\n%s", in, out)
				}
				if !strings.Contains(out, "nil-deref report") {
					t.Errorf("%s: no nil-deref report in output:\n%s", in, out)
				}
				counts = append(counts, m[1])
			}
			if counts[0] != counts[1] || counts[0] == "0" {
				t.Errorf("pair counts: Go source %s, golden .jp %s; want equal and nonzero", counts[0], counts[1])
			}
		})
	}
}

func TestEntriesRejectedOnProgramFile(t *testing.T) {
	_, err := runOut(t, []string{factoryGolden}, options{algo: "cs", entries: "all"})
	if err == nil || !strings.Contains(err.Error(), "-entries") {
		t.Fatalf("got %v, want an -entries error", err)
	}
}

func TestUnknownAlgorithmListsNames(t *testing.T) {
	_, err := runOut(t, []string{factoryGolden}, options{algo: "bogus"})
	if err == nil {
		t.Fatal("unknown -algo accepted")
	}
	for _, name := range analysis.Algorithms {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
