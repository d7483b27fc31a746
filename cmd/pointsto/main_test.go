package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bddbddb/internal/analysis"
	"bddbddb/internal/obs"
	"bddbddb/internal/program"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
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

// freettsFile writes the synthetic freetts program to a .jp file.
func freettsFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "freetts.jp")
	p := synth.Generate(synth.BenchmarkByName("freetts").Params)
	if err := os.WriteFile(path, []byte(program.Format(p)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTypeAnalysisReportsNoPairs checks that Algorithm 6, which has no
// points-to relation, neither prints nor exports a pair count, and
// that the options that read pairs are refused for it.
func TestTypeAnalysisReportsNoPairs(t *testing.T) {
	in := freettsFile(t)
	sess, err := (&obs.Flags{}).Start("pointsto")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var out bytes.Buffer
	if err := run(context.Background(), &out, sess, resilience.Flags{}, []string{in}, options{algo: "type"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vTC: ") || pairsLine.MatchString(out.String()) {
		t.Errorf("want a vTC line and no pair count:\n%s", out.String())
	}
	if v, ok := sess.Metrics.Snapshot()["solve.vp_pairs"]; ok {
		t.Errorf("-algo type exports solve.vp_pairs = %g", v)
	}
	for _, o := range []options{{algo: "type", varName: "x"}, {algo: "type", report: "nil"}} {
		if _, err := runOut(t, []string{in}, o); err == nil || !strings.Contains(err.Error(), "no points-to relation") {
			t.Errorf("%+v: got %v, want a no-points-to-relation error", o, err)
		}
	}
}

// TestMetricsCoverEverySolve checks that -algo cs, which solves twice
// (call-graph discovery, then the cloned analysis), exports the
// datalog counters and timers of both solves, not only the last.
func TestMetricsCoverEverySolve(t *testing.T) {
	in := freettsFile(t)
	sess, err := (&obs.Flags{}).Start("pointsto")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var out bytes.Buffer
	if err := run(context.Background(), &out, sess, resilience.Flags{}, []string{in}, options{algo: "cs"}); err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics.Snapshot()
	for _, k := range []string{"datalog.solve.count", "datalog.cardinalities.count"} {
		if m[k] != 2 {
			t.Errorf("%s = %g, want 2", k, m[k])
		}
	}
}

// TestEscapeReportListsSitelessHeaps checks that an escaped heap with
// no allocation site is listed by name: on freetts the one escaped
// heap is the global object.
func TestEscapeReportListsSitelessHeaps(t *testing.T) {
	out, err := runOut(t, []string{freettsFile(t)}, options{algo: "threads", report: "escape"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 escaped sites") || !strings.Contains(out, "  <global-obj> (no allocation site) escapes its goroutine") {
		t.Errorf("escape report does not list <global-obj>:\n%s", out)
	}
}
