package datalog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bddbddb/internal/datalog/check"
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
