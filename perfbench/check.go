package main

import (
	"encoding/json"

	"bddbddb/internal/analysis"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
)

// answerIndex answers the canned and ad-hoc query kinds from projected
// (variable, heap) pairs — independently of the query engine.
type answerIndex struct {
	f             *extract.Facts
	byVar, byHeap map[uint64][]uint64
}

func newAnswerIndex(f *extract.Facts, pairs map[[2]uint64]bool) *answerIndex {
	ix := &answerIndex{f: f, byVar: map[uint64][]uint64{}, byHeap: map[uint64][]uint64{}}
	for p := range pairs {
		ix.byVar[p[0]] = append(ix.byVar[p[0]], p[1])
		ix.byHeap[p[1]] = append(ix.byHeap[p[1]], p[0])
	}
	return ix
}

// expect returns the answer's element names as a multiset.
func (ix *answerIndex) expect(kind int, elem uint64) map[string]int {
	out := map[string]int{}
	switch kind {
	case kindPointsTo:
		for _, h := range ix.byVar[elem] {
			out[ix.f.Heaps[h]]++
		}
	case kindAliases:
		seen := map[uint64]bool{}
		for _, h := range ix.byVar[elem] {
			for _, v := range ix.byHeap[h] {
				if !seen[v] {
					seen[v] = true
					out[ix.f.Vars[v]]++
				}
			}
		}
	case kindAdHoc:
		for _, v := range ix.byHeap[elem] {
			out[ix.f.Vars[v]]++
		}
	}
	return out
}

func size(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// within reports whether multiset a is contained in b.
func within(a, b map[string]int) bool {
	for k, c := range a {
		if b[k] < c {
			return false
		}
	}
	return true
}

// checkSamples verifies the sampled responses. Generation 1 answers
// come from the frozen solver and must match its pairs exactly; later
// generations only added tuples, so their answers must lie between the
// frozen and the final solver's.
func (b *bench) checkSamples(f *extract.Facts, tf *traffic, samples []sample, frozen, final map[[2]uint64]bool) {
	ix0, ixF := newAnswerIndex(f, frozen), newAnswerIndex(f, final)
	wrong := 0
	for _, s := range samples {
		var r struct {
			Outputs []struct {
				Tuples    []map[string]string `json:"tuples"`
				Count     int                 `json:"count"`
				Truncated bool                `json:"truncated"`
			} `json:"outputs"`
		}
		if err := json.Unmarshal(s.body, &r); err != nil || len(r.Outputs) != 1 {
			wrong++
			continue
		}
		out := r.Outputs[0]
		got := map[string]int{}
		for _, t := range out.Tuples {
			for _, name := range t {
				got[name]++
			}
		}
		elem := uint64(tf.vars[s.key])
		if s.kind == kindAdHoc {
			elem = uint64(tf.heaps[s.key])
		}
		lo, hi := ix0.expect(s.kind, elem), ixF.expect(s.kind, elem)
		if s.gen == 1 {
			hi = lo
		}
		ok := out.Count >= size(lo) && out.Count <= size(hi) && within(got, hi) &&
			(out.Truncated || (within(lo, got) && size(got) == out.Count))
		if !ok {
			wrong++
		}
	}
	b.check(wrong == 0, "%d of %d sampled answers disagree with the solver", wrong, len(samples))
	b.note("checked_answers", len(samples))
}

// checkFromScratch compares the live solver after every update with a
// from-scratch solve of the edited inputs (untimed, once per run).
func (b *bench) checkFromScratch(sv *startedServer, updates []updateOut) error {
	var add [][]uint64
	for _, u := range updates {
		add = append(add, u.tuples...)
	}
	got, err := sv.upd.Solver().ContentFingerprint()
	if err != nil {
		return err
	}
	cfg := daemonAnalysisConfig()
	cfg.PreSolve = func(s *datalog.Solver) error {
		datalog.ApplyDeltaToRelations(s, datalog.Delta{Add: map[string][][]uint64{"vP0": add}})
		return nil
	}
	r, err := analysis.RunContextSensitive(sv.f, nil, cfg)
	if err != nil {
		return err
	}
	want, err := r.Solver.ContentFingerprint()
	if err != nil {
		return err
	}
	b.check(got == want, "post-update fingerprint %s != from-scratch %s", got, want)
	b.note("update_fingerprint", got)
	return nil
}
