package datalog

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bddbddb/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tinyTraceJSON solves the transitive-closure program under a
// deterministic clock and returns the Chrome trace bytes. Everything in
// the trace — event order, names, args, and timestamps — is a pure
// function of the program and inputs, so the bytes are reproducible.
func tinyTraceJSON(t *testing.T) []byte {
	t.Helper()
	var ticks int64
	clock := func() time.Duration {
		ticks++
		return time.Duration(ticks) * 50 * time.Microsecond
	}
	tr := obs.NewChromeTraceClock(clock)
	s, err := NewSolver(MustParse(tcSrc), Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Relation("e")
	for _, row := range [][]uint64{{0, 1}, {1, 2}, {2, 3}} {
		e.AddTuple(row...)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Args map[string]any `json:"args"`
}

func TestSolveTraceShape(t *testing.T) {
	raw := tinyTraceJSON(t)
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// Timestamps are monotonically non-decreasing and spans balance.
	depth := 0
	var last int64 = -1
	seen := map[string]bool{}
	for i, e := range doc.TraceEvents {
		if e.Ts < last {
			t.Fatalf("event %d (%s %s): ts %d < previous %d", i, e.Ph, e.Name, e.Ts, last)
		}
		last = e.Ts
		switch e.Ph {
		case "B":
			depth++
			seen[e.Name] = true
		case "E":
			depth--
			if depth < 0 {
				t.Fatalf("event %d: unbalanced End for %q", i, e.Name)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("%d spans left open", depth)
	}
	// The stable span names the docs promise: solve → stratum →
	// iteration → rule application. Solve counts no relation sizes.
	for _, want := range []string{"datalog.solve", "datalog.facts", "stratum 0", "iteration 1", "rule 0: tc", "rule 1: tc"} {
		if !seen[want] {
			t.Errorf("trace missing span %q; have %v", want, keys(seen))
		}
	}
	if seen["datalog.cardinalities"] {
		t.Error("trace has a datalog.cardinalities span; Solve must not count relation sizes")
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSolveTraceGolden compares the deterministic trace byte-for-byte
// with testdata/trace_golden.json. Regenerate with:
//
//	go test ./internal/datalog -run TestSolveTraceGolden -update
func TestSolveTraceGolden(t *testing.T) {
	got := tinyTraceJSON(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (rerun with -update after intended changes)\ngot:\n%s", golden, got)
	}
}

// TestSolveHistograms: the solver's shared apply-time and op-result-size
// histograms fill during Solve and land in an external registry.
func TestSolveHistograms(t *testing.T) {
	reg := obs.New()
	s, err := NewSolver(MustParse(tcSrc), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Relation("e")
	for _, row := range [][]uint64{{0, 1}, {1, 2}, {2, 3}} {
		e.AddTuple(row...)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	apps := s.Stats().RuleApplications
	h := s.Metrics().Histogram("datalog.rule.apply_sec", nil)
	if h.Count() != apps {
		t.Errorf("apply_sec count = %d, want %d (one observation per rule application)", h.Count(), apps)
	}
	ops := s.Metrics().Histogram("datalog.op.result_nodes", nil)
	if ops.Count() == 0 {
		t.Errorf("result_nodes histogram is empty")
	}
	// The flattened copy in opts.Metrics carries the derived keys.
	snap := reg.Snapshot()
	for _, k := range []string{
		"datalog.rule.apply_sec.count", "datalog.rule.apply_sec.p99",
		"datalog.op.result_nodes.count", "datalog.op.result_nodes.p99",
		"datalog.solve.sec",
	} {
		if _, ok := snap[k]; !ok {
			t.Errorf("external registry missing %s", k)
		}
	}
	for _, k := range []string{"datalog.cardinalities.count", "relation.tc.tuples"} {
		if _, ok := snap[k]; ok {
			t.Errorf("external registry has %s; Solve must not count relation sizes", k)
		}
	}
}

// TestRecordRelationSizes: the on-request export sets each declared
// relation's exact cardinality.
func TestRecordRelationSizes(t *testing.T) {
	s, err := NewSolver(MustParse(tcSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]uint64{{0, 1}, {1, 2}, {2, 3}} {
		s.Relation("e").AddTuple(row...)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s.RecordRelationSizes(reg)
	snap := reg.Snapshot()
	for name, want := range map[string]float64{"relation.e.tuples": 3, "relation.tc.tuples": 6} {
		if snap[name] != want {
			t.Errorf("%s = %g, want %g", name, snap[name], want)
		}
	}
}

// TestRuleTuplesExportedOnlyWhenCounted checks that per-rule tuple
// counters exist only under Options.CountRuleTuples, so reports never
// show an unmeasured count as 0.
func TestRuleTuplesExportedOnlyWhenCounted(t *testing.T) {
	for _, counted := range []bool{false, true} {
		reg := obs.New()
		s, err := NewSolver(MustParse(tcSrc), Options{Metrics: reg, CountRuleTuples: counted})
		if err != nil {
			t.Fatal(err)
		}
		s.Relation("e").AddTuples([][]uint64{{0, 1}, {1, 2}, {2, 3}})
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range reg.Snapshot() {
			if strings.HasPrefix(k, "datalog.rule.") && strings.HasSuffix(k, ".tuples") {
				keys = append(keys, k)
			}
		}
		if !counted && len(keys) != 0 {
			t.Errorf("CountRuleTuples unset, yet exported %v", keys)
		}
		if counted && len(keys) == 0 {
			t.Error("CountRuleTuples set, yet no datalog.rule.*.tuples key")
		}
	}
}
