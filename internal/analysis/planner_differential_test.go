package analysis

import (
	"reflect"
	"sort"
	"testing"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/synth"
)

// leakSrc is the TestMemoryLeakQuery program; the differential pins
// MemoryLeakQuerySrc to its second Node allocation.
const leakSrc = `
entry Main.main
class Node {
    field next
}
class Main {
    static method main(args) {
        cache = new Node
        leaked = new Node
        cache.next = leaked
        global.root = cache
    }
}
`

const securitySrc = `
entry Main.main
class java.lang.String {
    method chars() returns r {
        r = new java.lang.String
    }
}
class Key {
}
class Crypto {
    method init(k) {
    }
}
class Main {
    static method main(args) {
        s = new java.lang.String
        c = s.chars()
        x = new Crypto
        x.init(c)
        k = new Key
        y = new Crypto
        y.init(k)
    }
}
`

// TestPlannerDifferentialAllAlgorithms holds every analysis
// (Algorithms 1-8) and every Section 5 query to an independent oracle:
// the BDD solve's input, captured by datalog.NaiveReplay just before
// the first stratum, is re-solved over explicit tuple sets, and every
// relation must match in cardinality and tuples.
func TestPlannerDifferentialAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("thirteen solves, each re-solved over explicit tuple sets")
	}
	prog := synth.Generate(synth.Quick)
	sf, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := facts(t, polySrc)
	lf := facts(t, leakSrc)
	var leakName string
	for h, name := range lf.Heaps {
		if h > 0 && lf.AllocMethod[h] >= 0 && name[len(name)-4:] == "Node" {
			leakName = name
		}
	}
	cf := facts(t, securitySrc)

	cases := []struct {
		name string
		run  func(cfg Config) (*Result, error)
	}{
		{"alg1-ci", func(cfg Config) (*Result, error) { return RunContextInsensitive(sf, false, cfg) }},
		{"alg2-cif", func(cfg Config) (*Result, error) { return RunContextInsensitive(sf, true, cfg) }},
		{"alg3-otf", func(cfg Config) (*Result, error) { return RunOnTheFly(sf, cfg) }},
		{"alg5-cs", func(cfg Config) (*Result, error) { return RunContextSensitive(sf, nil, cfg) }},
		{"alg5-csotf", func(cfg Config) (*Result, error) { return RunContextSensitiveOnTheFly(sf, cfg) }},
		{"alg6-typeci", func(cfg Config) (*Result, error) { return RunTypeAnalysisCI(sf, cfg) }},
		{"alg6-type", func(cfg Config) (*Result, error) { return RunTypeAnalysis(sf, nil, cfg) }},
		{"alg7-threads", func(cfg Config) (*Result, error) { return RunThreadEscape(sf, nil, cfg) }},
		{"alg8-heapcs", func(cfg Config) (*Result, error) { return RunHeapCloned(sf, nil, cfg) }},
		{"q-leak", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = MemoryLeakQuerySrc(leakName)
			return RunContextSensitive(lf, nil, cfg)
		}},
		{"q-security", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = SecurityQuerySrc("java.lang.String", "Crypto.init")
			return RunContextSensitive(cf, nil, cfg)
		}},
		{"q-modref", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = ModRefQuerySrc
			return RunContextSensitive(pf, nil, cfg)
		}},
		{"q-refine", func(cfg Config) (*Result, error) {
			cfg.ExtraSrc = TypeRefinementQuerySrc(RefineCIPointer)
			return RunContextInsensitive(pf, true, cfg)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ns *datalog.NaiveSolver
			got, err := tc.run(Config{PreSolve: func(s *datalog.Solver) (err error) {
				ns, err = datalog.NaiveReplay(s)
				return err
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := ns.Solve(); err != nil {
				t.Fatal(err)
			}
			for _, name := range got.Solver.RelationNames() {
				r := got.Solver.Relation(name)
				card := r.Size()
				if !card.IsInt64() || card.Int64() != int64(ns.Count(name)) {
					t.Errorf("%s: %s tuples, NaiveSolver %d", name, card, ns.Count(name))
					continue
				}
				if card.Sign() > 0 && !reflect.DeepEqual(sortedRows(r.Tuples()), sortedRows(ns.Tuples(name))) {
					t.Errorf("%s: tuple sets differ from NaiveSolver's", name)
				}
			}
		})
	}
}

// sortedRows orders rows lexicographically, in place.
func sortedRows(rows [][]uint64) [][]uint64 {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return rows
}
