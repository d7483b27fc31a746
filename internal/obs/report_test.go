package obs

import (
	"math"
	"strings"
	"testing"
)

func TestTopRules(t *testing.T) {
	vals := map[string]float64{
		"datalog.rule.000.sec":    0.5,
		"datalog.rule.000.count":  3,
		"datalog.rule.001.sec":    2.0,
		"datalog.rule.001.count":  10,
		"datalog.rule.001.tuples": 0,
		"datalog.rule.002.sec":    0.1,
		"datalog.iterations":      42,
	}
	top := TopRules(vals, 2)
	if len(top) != 2 {
		t.Fatalf("got %d rules", len(top))
	}
	if top[0].Key != "datalog.rule.001" || top[0].Seconds != 2.0 || top[0].Applications != 10 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Key != "datalog.rule.000" {
		t.Errorf("top[1] = %+v", top[1])
	}
	// A counted zero is a measurement; a missing key is not.
	if !top[0].HasTuples || top[1].HasTuples {
		t.Errorf("HasTuples = %v, %v; want true (counted 0), false (not counted)", top[0].HasTuples, top[1].HasTuples)
	}
	if all := TopRules(vals, 0); len(all) != 3 {
		t.Errorf("k=0 should return all rules, got %d", len(all))
	}
}

func TestTopOps(t *testing.T) {
	vals := map[string]float64{
		"datalog.op.join_project":       100,
		"datalog.op.union":              250,
		"datalog.op.result_nodes.p99":   4096, // histogram sub-key, skipped
		"datalog.op.result_nodes.count": 350,
		"datalog.rule.000.sec":          1,
	}
	top := TopOps(vals, 10)
	if len(top) != 2 {
		t.Fatalf("got %+v", top)
	}
	if top[0].Key != "datalog.op.union" || top[0].Count != 250 {
		t.Errorf("top[0] = %+v", top[0])
	}
}

func TestReadTracePhases(t *testing.T) {
	trace := `{"displayTimeUnit":"ms","traceEvents":[
		{"name":"solve","ph":"B","ts":0},
		{"name":"stratum 0","ph":"B","ts":10},
		{"name":"stratum 0","ph":"E","ts":40},
		{"name":"stratum 1","ph":"B","ts":50},
		{"name":"stratum 1","ph":"E","ts":90},
		{"name":"solve","ph":"E","ts":100}
	]}`
	phases, err := ReadTracePhases(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PhaseCost{}
	for _, p := range phases {
		byName[p.Name] = p
	}
	solve := byName["solve"]
	if solve.TotalUS != 100 || solve.SelfUS != 30 || solve.Count != 1 {
		t.Errorf("solve = %+v (want total 100, self 30)", solve)
	}
	if byName["stratum 0"].TotalUS != 30 || byName["stratum 1"].TotalUS != 40 {
		t.Errorf("strata = %+v", byName)
	}
	// Sorted by total descending.
	if phases[0].Name != "solve" {
		t.Errorf("order: %+v", phases)
	}
}

func TestDiffMetrics(t *testing.T) {
	oldVals := map[string]float64{
		"solve.time_sec":        10,
		"serve.qps":             100,
		"bdd.peak_nodes":        1000,
		"serve.cache.hit_ratio": 0.9,
		"gone.metric":           1,
	}
	newVals := map[string]float64{
		"solve.time_sec":        13, // +30% cost → regression
		"serve.qps":             80, // -20% goodness → regression
		"bdd.peak_nodes":        1010,
		"serve.cache.hit_ratio": 0.95, // improvement
		"fresh.metric":          5,
	}
	entries := DiffMetrics(oldVals, newVals, 0.10)
	byKey := map[string]DiffEntry{}
	for _, e := range entries {
		byKey[e.Key] = e
	}
	if e := byKey["solve.time_sec"]; !e.Regression || math.Abs(e.Delta-0.3) > 1e-9 {
		t.Errorf("time_sec: %+v", e)
	}
	if e := byKey["serve.qps"]; !e.Regression || math.Abs(e.Delta+0.2) > 1e-9 {
		t.Errorf("qps: %+v", e)
	}
	// +1% node growth is under threshold — absent.
	if _, ok := byKey["bdd.peak_nodes"]; ok {
		t.Errorf("peak_nodes under threshold should be filtered")
	}
	// hit_ratio went up: reported (>10%? 0.9→0.95 is +5.6% — under threshold, absent).
	if _, ok := byKey["serve.cache.hit_ratio"]; ok {
		t.Errorf("hit_ratio under threshold should be filtered")
	}
	if e := byKey["gone.metric"]; e.Missing != "new" {
		t.Errorf("gone.metric: %+v", e)
	}
	if e := byKey["fresh.metric"]; e.Missing != "old" {
		t.Errorf("fresh.metric: %+v", e)
	}
	// Missing entries sort last.
	if entries[len(entries)-1].Missing == "" || entries[len(entries)-2].Missing == "" {
		t.Errorf("missing entries not last: %+v", entries)
	}
	// Largest |delta| first among present keys.
	if entries[0].Key != "solve.time_sec" {
		t.Errorf("entries[0] = %+v", entries[0])
	}
}

func TestDiffMetricsZeroOld(t *testing.T) {
	entries := DiffMetrics(map[string]float64{"x.sec": 0}, map[string]float64{"x.sec": 5}, 0.1)
	if len(entries) != 1 || !math.IsInf(entries[0].Delta, 1) || !entries[0].Regression {
		t.Errorf("zero-old: %+v", entries)
	}
}

func TestParseThreshold(t *testing.T) {
	cases := map[string]float64{
		"10%":  0.10,
		"0.1":  0.10,
		"10":   0.10,
		"2.5%": 0.025,
		"0":    0,
	}
	for in, want := range cases {
		got, err := ParseThreshold(in)
		if err != nil {
			t.Errorf("ParseThreshold(%q): %v", in, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("ParseThreshold(%q) = %g, want %g", in, got, want)
		}
	}
	if _, err := ParseThreshold("nope"); err == nil {
		t.Errorf("bad threshold accepted")
	}
	if _, err := ParseThreshold("-5%"); err == nil {
		t.Errorf("negative threshold accepted")
	}
}

// TestWriteMetricsJSONGolden guards the flat metrics format: sorted
// keys, one per line, non-finite clamped to zero.
func TestWriteMetricsJSONGolden(t *testing.T) {
	vals := map[string]float64{
		"z.last":   3,
		"a.first":  1.5,
		"m.nan":    math.NaN(),
		"m.inf":    math.Inf(1),
		"m.middle": 2,
	}
	var sb strings.Builder
	if err := WriteMetricsJSON(&sb, "golden", vals); err != nil {
		t.Fatal(err)
	}
	want := `{
  "name": "golden",
  "metrics": {
    "a.first": 1.5,
    "m.inf": 0,
    "m.middle": 2,
    "m.nan": 0,
    "z.last": 3
  }
}
`
	if got := sb.String(); got != want {
		t.Errorf("format drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Determinism across repeated writes (map iteration must not leak).
	for i := 0; i < 5; i++ {
		var again strings.Builder
		if err := WriteMetricsJSON(&again, "golden", vals); err != nil {
			t.Fatal(err)
		}
		if again.String() != want {
			t.Fatalf("write %d differs", i)
		}
	}
}
