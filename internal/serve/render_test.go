package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"bddbddb/internal/datalog"
)

// The response value renderResult used to build and json.Marshal; the
// direct renderer must write exactly its bytes.
type refOutput struct {
	Relation  string           `json:"relation"`
	Attrs     []attrJSON       `json:"attrs"`
	Tuples    []map[string]any `json:"tuples"`
	Count     int64            `json:"count"`
	Truncated bool             `json:"truncated"`
}

type refStats struct {
	RuleApplications int64   `json:"rule_applications"`
	Iterations       int     `json:"iterations"`
	SolveMs          float64 `json:"solve_ms"`
}

type refResult struct {
	Query   string      `json:"query"`
	Outputs []refOutput `json:"outputs"`
	Stats   refStats    `json:"stats"`
}

// renderReference is the reflective rendering: one map per tuple, the
// exact count from a satcount.
func renderReference(t *testing.T, query string, res *datalog.QueryResult, maxTuples int, elapsed time.Duration) []byte {
	out := refResult{
		Query:   query,
		Outputs: []refOutput{},
		Stats: refStats{
			RuleApplications: res.Stats.RuleApplications,
			Iterations:       res.Stats.Iterations,
			SolveMs:          float64(elapsed.Microseconds()) / 1000,
		},
	}
	for _, r := range res.Outputs {
		oj := refOutput{Relation: r.Name, Tuples: []map[string]any{}, Count: r.Size().Int64()}
		attrs := r.Attrs()
		for _, a := range attrs {
			oj.Attrs = append(oj.Attrs, attrJSON{Name: a.Name, Domain: a.Dom.Name})
		}
		r.Iterate(func(vals []uint64) bool {
			if len(oj.Tuples) >= maxTuples {
				oj.Truncated = true
				return false
			}
			row := make(map[string]any, len(attrs))
			for i, a := range attrs {
				row[a.Name] = a.Dom.ElemName(vals[i])
			}
			oj.Tuples = append(oj.Tuples, row)
			return true
		})
		out.Outputs = append(out.Outputs, oj)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oddNames are element names encoding/json escapes: HTML characters,
// quotes, backslashes, control characters, non-ASCII, invalid UTF-8
// and the two JavaScript line ends.
var oddNames = []string{
	"<script>", "a&b", `q"uote`, `back\slash`, "tab\there", "naïve ü 世界",
	"bad\xffutf8\xc3", "line\xe2\x80\xa8sep", "para\xe2\x80\xa9sep",
	"ctl\x01\x08\x0c\n\r\x1f\x7f", "", "plain",
}

// oddSolver solves vP over oddNames: variable i points to heaps i and
// i+1, so every name occurs in both attributes.
func oddSolver(t *testing.T) *datalog.Solver {
	t.Helper()
	n := len(oddNames)
	src := fmt.Sprintf(`
.domain V %d v.map
.domain H %d h.map
.relation vP0 (variable : V, heap : H) input
.relation vP (variable : V, heap : H) output
vP(v, h) :- vP0(v, h).
`, n+2, n+2)
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datalog.NewSolver(prog, datalog.Options{ElemNames: map[string][]string{"V": oddNames, "H": oddNames}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n + 2 {
		s.Relation("vP0").AddTuple(uint64(i), uint64(i))
		s.Relation("vP0").AddTuple(uint64(i), uint64((i+1)%(n+2)))
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRenderMatchesMarshal: the direct renderer writes the bytes
// json.Marshal wrote for the old map-per-tuple value, for names that
// need escaping, attributes whose names sort in and against declaration
// order, several outputs, and truncated and whole outputs.
func TestRenderMatchesMarshal(t *testing.T) {
	s := oddSolver(t)
	snap, err := NewSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := snap.Hydrate(map[string]int{"V": 1, "H": 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		".relation q (variable : V, heap : H) output\nq(v, h) :- vP(v, h).",
		".relation q (zeta : V, alpha : H, mid : V) output\nq(v, h, w) :- vP(v, h), vP(w, h).",
		".relation a (heap : H) output\n.relation b (variable : V) output\n.relation c (variable : V) output\n" +
			"a(h) :- vP(\"a&b\", h).\nb(v) :- vP(v, \"<script>\").\nc(v) :- vP(v, 13).",
	}
	for _, q := range queries {
		res, err := rep.Base.Eval(q, datalog.QueryOptions{MaxStrata: 3})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		for _, maxTuples := range []int{1, 5, 1000} {
			for _, elapsed := range []time.Duration{0, time.Microsecond, 1234567 * time.Microsecond, math.MaxInt64} {
				got := renderResult(q+" <&>\xff", res, maxTuples, elapsed)
				want := renderReference(t, q+" <&>\xff", res, maxTuples, elapsed)
				if !bytes.Equal(got, want) {
					t.Fatalf("%q, max %d, %v:\ngot  %s\nwant %s", q, maxTuples, elapsed, got, want)
				}
			}
		}
		res.Close()
	}
}

// TestAppendJSONStringMatchesMarshal compares every single byte, and
// each of the multi-byte cases, with json.Marshal.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	cases := append([]string{}, oddNames...)
	for c := range 256 {
		cases = append(cases, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, c); !bytes.Equal(got, want) {
			t.Errorf("%q: got %s, want %s", c, got, want)
		}
	}
	for _, f := range []float64{0, 0.001, 1, 1234.567, 1e-7, 5e-324, 1e20, 1e21, 1.5e300, 9.223372036854776e15} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%g: got %s, want %s", f, got, want)
		}
	}
}
