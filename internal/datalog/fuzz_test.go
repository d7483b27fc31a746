package datalog

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bddbddb/internal/datalog/check"
	"bddbddb/internal/resilience"
)

// FuzzParseAndCheck feeds arbitrary text through the parser and the
// semantic checker. Datalog text is untrusted input (the bddbddb
// program argument, the daemon's /query body), so every input must
// come back as a program with diagnostics or as a syntax error carrying
// a diagnostic — never as a panic. The corpus is seeded with the
// checker's per-diagnostic-family programs and the points-to program.
//
//	go test -run '^$' -fuzz FuzzParseAndCheck -fuzztime 30s ./internal/datalog
func FuzzParseAndCheck(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "check", "*.datalog"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, filepath.Join("..", "..", "testdata", "pointsto.dl"))
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, diags, err := ParseAndCheck("fuzz.datalog", src)
		if err != nil {
			var ce *check.Error
			if !errors.As(err, &ce) || len(ce.Diags) == 0 {
				t.Fatalf("syntax failure carries no diagnostic: %T %v", err, err)
			}
			if prog != nil {
				t.Fatal("program returned alongside a syntax error")
			}
			return
		}
		if prog == nil {
			t.Fatal("neither a program nor an error")
		}
		// Rendering must not panic either: the CLI prints diagnostics
		// and the planner prints rules.
		_ = diags.String()
		for _, r := range prog.Rules {
			_ = r.String()
		}
		// The checker and the solvers share one stratification, so
		// stratify refuses exactly the programs diagnosed DL030.
		hasDL030 := false
		for _, d := range diags {
			hasDL030 = hasDL030 || d.Code == check.CodeStratify
		}
		if _, err := stratify(prog); (err != nil) != hasDL030 {
			t.Fatalf("stratify error %v, DL030 diagnosed: %v", err, hasDL030)
		}
	})
}

// FuzzApplyWireDelta drives the daemon's one update entry point, POST
// /update's body, through LiveSolver.Begin on a fresh solve of
// testdata/pointsto.dl (V has spare capacity beyond variable.map's
// names). Every input must be refused or applied, never panic; a
// refused update leaves the solver's content unchanged, and an applied
// one rolls back to it. The budget is small, so some updates trip it
// and degrade to their unbudgeted recompute. Every input's solver is
// built from one shared Options, which no update may write: names an
// update registers belong to its solver.
//
//	go test -run '^$' -fuzz '^FuzzApplyWireDelta$' -fuzztime 30s ./internal/datalog
func FuzzApplyWireDelta(f *testing.F) {
	dir := filepath.Join("..", "..", "testdata")
	src, err := os.ReadFile(filepath.Join(dir, "pointsto.dl"))
	if err != nil {
		f.Fatal(err)
	}
	prog := MustParse(string(src))
	names, err := os.ReadFile(filepath.Join(dir, "variable.map"))
	if err != nil {
		f.Fatal(err)
	}
	vnames := strings.Fields(string(names))
	facts := make(map[string][][]uint64)
	for _, rd := range prog.Relations {
		if rd.Kind != RelInput {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, rd.Name+".tuples"))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if fs := strings.Fields(line); len(fs) > 0 && fs[0] != "#" {
				row := make([]uint64, len(fs))
				for i, fv := range fs {
					if row[i], err = strconv.ParseUint(fv, 10, 64); err != nil {
						f.Fatal(err)
					}
				}
				facts[rd.Name] = append(facts[rd.Name], row)
			}
		}
	}
	// Seeds: add, remove, mixed, new names, empty, unknown relation,
	// and a delta large enough to trip the node budget.
	for _, seed := range []string{
		`{"add":{"vP0":[["c",2]]}}`,
		`{"remove":{"assign":[["b","a"]]}}`,
		`{"add":{"assign":[[2,3]]},"remove":{"vP0":[[0,0]]}}`,
		`{"add":{"vP0":[["fresh.var",1]],"load":[["fresh.var",0,"d"]]}}`,
		`{}`,
		`{"add":{"nosuch":[[0]]}}`,
		`{"add":{"assign":[[0,3],[1,10],[2,1],[3,8],[4,15],[5,6],[6,13],[7,4],[8,11],[9,2],[10,9],[11,0],[12,7],[13,14],[14,5],[15,12]],"vP0":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7],[8,0],[9,1],[10,2],[11,3],[12,4],[13,5],[14,6],[15,7]],"store":[[0,0,0],[1,1,5],[2,2,10],[3,3,15],[4,0,4],[5,1,9],[6,2,14],[7,3,3],[8,0,8],[9,1,13],[10,2,2],[11,3,7],[12,0,12],[13,1,1],[14,2,6],[15,3,11]],"load":[[0,1,0],[1,2,3],[2,3,6],[3,0,9],[4,1,12],[5,2,15],[6,3,2],[7,0,5],[8,1,8],[9,2,11],[10,3,14],[11,0,1],[12,1,4],[13,2,7],[14,3,10],[15,0,13]]}}`,
	} {
		f.Add([]byte(seed))
	}
	// A small node table grows, and so checks the node budget, within a
	// few dozen tuples' worth of new nodes.
	opts := Options{
		ElemNames: map[string][]string{"V": vnames},
		NodeSize:  1 << 9,
		CacheSize: 1 << 8,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wd WireDelta
		if json.Unmarshal(body, &wd) != nil {
			return
		}
		s, err := NewSolver(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, rows := range facts {
			for _, row := range rows {
				s.Relation(name).AddTuple(row...)
			}
		}
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		before := mustFingerprint(t, s)
		ls, err := NewLiveSolver(s)
		if err != nil {
			t.Fatal(err)
		}
		ctl := resilience.NewController(context.Background(), resilience.Budget{
			MaxLiveNodes: s.u.M.LiveNodes() + 64,
			Timeout:      time.Second,
		})
		if _, err := ls.Begin(ctl, wd); err == nil {
			ls.Rollback()
		}
		if got := mustFingerprint(t, ls.Solver()); got != before {
			t.Fatalf("delta %s changed the content: %s -> %s", body, before, got)
		}
		if len(opts.ElemNames) != 1 || len(opts.ElemNames["V"]) != len(vnames) {
			t.Fatalf("delta %s changed the shared Options.ElemNames: %v", body, opts.ElemNames)
		}
	})
}
