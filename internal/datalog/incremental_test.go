package datalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

// incSrc is a mini points-to program with two strata (the second
// negates vP) so updates exercise both the fast semi-naive path and
// the stratification boundary.
const incSrc = `
.domain V 16 var.map
.domain H 8 heap.map
.domain F 4

.relation vP0 (v : V, h : H) input
.relation assign (d : V, s : V) input
.relation store (b : V, f : F, s : V) input
.relation vP (v : V, h : H) output
.relation hP (hb : H, f : F, hs : H) output
.relation vPany (v : V) output
.relation empty (v : V) output

vP(v, h) :- vP0(v, h).
vP(d, h) :- assign(d, s), vP(s, h).
hP(hb, f, hs) :- store(b, f, s), vP(b, hb), vP(s, hs).
vPany(v) :- vP(v, _).
empty(v) :- assign(v, _), !vPany(v).
`

func incOpts() Options {
	return Options{ElemNames: map[string][]string{
		"V": {"v0", "v1", "v2", "v3", "v4", "v5"},
		"H": {"h0", "h1", "h2", "h3"},
	}}
}

func incInputs() map[string][][]uint64 {
	return map[string][][]uint64{
		"vP0":    {{0, 0}, {1, 1}, {2, 2}},
		"assign": {{3, 0}, {4, 3}, {5, 6}},
		"store":  {{1, 0, 2}},
	}
}

func newIncSolver(t *testing.T, opts Options, inputs map[string][][]uint64) *Solver {
	t.Helper()
	s, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		for _, row := range rows {
			s.Relation(name).AddTuple(row...)
		}
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return s
}

// oracleFingerprint solves the program from scratch with the delta
// applied through Options.PreSolve — the exact semantics a live Update
// must reproduce — and returns the full-tuple-set fingerprint.
func oracleFingerprint(t *testing.T, opts Options, inputs map[string][][]uint64, d Delta) string {
	t.Helper()
	opts.PreSolve = func(ns *Solver) error {
		ApplyDeltaToRelations(ns, d)
		return nil
	}
	s, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		for _, row := range rows {
			s.Relation(name).AddTuple(row...)
		}
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	fp, err := s.ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func ctl() *resilience.Controller {
	return resilience.NewController(context.Background(), resilience.Budget{})
}

// wire is d in its numeric wire form, for Begin.
func wire(d Delta) WireDelta {
	side := func(rows map[string][][]uint64) map[string][]WireTuple {
		if rows == nil {
			return nil
		}
		out := make(map[string][]WireTuple, len(rows))
		for name, tuples := range rows {
			for _, vals := range tuples {
				wt := make(WireTuple, len(vals))
				for i, v := range vals {
					wt[i] = WireValue{Num: v}
				}
				out[name] = append(out[name], wt)
			}
		}
		return out
	}
	return WireDelta{Add: side(d.Add), Remove: side(d.Remove)}
}

// newLive wraps s in a LiveSolver.
func newLive(t *testing.T, s *Solver) *LiveSolver {
	t.Helper()
	ls, err := NewLiveSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// mustUpdate applies d through Begin and commits it.
func mustUpdate(t *testing.T, ls *LiveSolver, c *resilience.Controller, d Delta) UpdateStats {
	t.Helper()
	st, err := ls.Begin(c, wire(d))
	if err != nil {
		t.Fatal(err)
	}
	ls.Commit()
	return st
}

func mustFingerprint(t *testing.T, s *Solver) string {
	t.Helper()
	fp, err := s.ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestIncrementalAddOnlyFastPath(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	// vP0(6,3) gives v6 (and so v5, assigned from it) its first
	// points-to target: vP, hP, and vPany all grow monotonically, and
	// the empty stratum — which negates the now-grown vPany — must
	// fall back to a recompute (empty(5) disappears).
	d := Delta{Add: map[string][][]uint64{
		"vP0":    {{6, 3}},
		"assign": {{0, 2}},
	}}
	st := mustUpdate(t, ls, ctl(), d)
	if st.Added != 2 || st.Removed != 0 {
		t.Fatalf("stats = %+v, want 2 added", st)
	}
	if st.StrataFast == 0 {
		t.Fatalf("add-only delta took no fast stratum: %+v", st)
	}
	if st.StrataRecomputed == 0 {
		t.Fatalf("negation stratum on grown vPany did not recompute: %+v", st)
	}
	if got, want := mustFingerprint(t, s), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
		t.Fatalf("incremental fingerprint %s != from-scratch %s", got, want)
	}
}

func TestIncrementalRemoval(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	d := Delta{
		Add:    map[string][][]uint64{"vP0": {{2, 3}}},
		Remove: map[string][][]uint64{"assign": {{4, 3}}, "vP0": {{0, 0}}},
	}
	st := mustUpdate(t, ls, ctl(), d)
	if st.Removed != 2 {
		t.Fatalf("stats = %+v, want 2 removed", st)
	}
	if st.StrataRecomputed == 0 {
		t.Fatalf("removal delta recomputed no strata: %+v", st)
	}
	if got, want := mustFingerprint(t, s), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
		t.Fatalf("incremental fingerprint %s != from-scratch %s", got, want)
	}
}

func TestIncrementalNoEffectiveChange(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	before := mustFingerprint(t, s)
	ls := newLive(t, s)
	// Add a tuple that already exists and remove one that never did.
	d := Delta{
		Add:    map[string][][]uint64{"vP0": {{0, 0}}},
		Remove: map[string][][]uint64{"assign": {{9, 9}}},
	}
	if st := mustUpdate(t, ls, ctl(), d); st.Added != 0 || st.Removed != 0 || st.StrataResolved != 0 {
		t.Fatalf("no-op delta did work: %+v", st)
	}
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("no-op delta changed fingerprint %s -> %s", before, got)
	}
}

func TestIncrementalRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		s := newIncSolver(t, incOpts(), incInputs())
		ls := newLive(t, s)
		d := Delta{Add: map[string][][]uint64{}, Remove: map[string][][]uint64{}}
		for i := 0; i < 4; i++ {
			tuple := [][]uint64{{uint64(rng.Intn(6)), uint64(rng.Intn(4))}}
			switch rng.Intn(3) {
			case 0:
				d.Add["vP0"] = append(d.Add["vP0"], tuple...)
			case 1:
				d.Remove["vP0"] = append(d.Remove["vP0"], tuple...)
			default:
				d.Add["assign"] = append(d.Add["assign"], [][]uint64{{uint64(rng.Intn(6)), uint64(rng.Intn(6))}}...)
			}
		}
		mustUpdate(t, ls, ctl(), d)
		if got, want := mustFingerprint(t, s), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
			t.Fatalf("trial %d: incremental fingerprint %s != from-scratch %s (delta %+v)", trial, got, want, d)
		}
	}
}

func TestIncrementalSequentialUpdates(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	deltas := []Delta{
		{Add: map[string][][]uint64{"vP0": {{3, 1}}}},
		{Remove: map[string][][]uint64{"vP0": {{3, 1}, {1, 1}}}},
		{Add: map[string][][]uint64{"assign": {{2, 5}}}, Remove: map[string][][]uint64{"store": {{1, 0, 2}}}},
	}
	for i, d := range deltas {
		if _, err := ls.Begin(ctl(), wire(d)); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		ls.Commit()
	}
	// Oracle: one from-scratch solve with the composed delta applied in
	// sequence.
	opts := incOpts()
	opts.PreSolve = func(ns *Solver) error {
		for _, d := range deltas {
			ApplyDeltaToRelations(ns, d)
		}
		return nil
	}
	o, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range incInputs() {
		for _, row := range rows {
			o.Relation(name).AddTuple(row...)
		}
	}
	if err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	if got, want := mustFingerprint(t, s), mustFingerprint(t, o); got != want {
		t.Fatalf("sequential updates fingerprint %s != composed from-scratch %s", got, want)
	}
}

func TestUpdateRollback(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	before := mustFingerprint(t, s)
	ls := newLive(t, s)
	if _, err := ls.Begin(ctl(), wire(Delta{
		Add:    map[string][][]uint64{"vP0": {{4, 2}}},
		Remove: map[string][][]uint64{"assign": {{3, 0}}},
	})); err != nil {
		t.Fatal(err)
	}
	if mustFingerprint(t, s) == before {
		t.Fatal("update had no visible effect before rollback")
	}
	ls.Rollback()
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("rollback fingerprint %s != pre-update %s", got, before)
	}
}

// TestUpdateFaultRollsBack aborts an update at each of its fault
// points. The stratum.start fault fires in the second stratum the
// update re-evaluates, after the first (vP's) has grown its head, so
// the rollback must restore undo state taken stratum by stratum. The
// hook stays armed, so the unbudgeted re-run that a budget error
// degrades to aborts as well, and Begin returns the error.
func TestUpdateFaultRollsBack(t *testing.T) {
	for _, point := range []string{resilience.FaultUpdateApply, resilience.FaultUpdateResolve, resilience.FaultStratumStart} {
		t.Run(point, func(t *testing.T) {
			s := newIncSolver(t, incOpts(), incInputs())
			before := mustFingerprint(t, s)
			vPBefore := s.Relation("vP").Size()
			ls := newLive(t, s)
			starts := 0
			restore := resilience.SetFaultHook(func(name string) {
				if name != point {
					return
				}
				if point == resilience.FaultStratumStart {
					if starts++; starts < 2 {
						return
					}
					if starts == 2 && s.Relation("vP").Size().Cmp(vPBefore) == 0 {
						t.Error("the first re-evaluated stratum left vP unchanged")
					}
				}
				resilience.Abort(&resilience.BudgetError{Resource: "nodes", Limit: 1, Used: 2})
			})
			d := wire(Delta{Add: map[string][][]uint64{"vP0": {{4, 2}}}})
			_, err := ls.Begin(ctl(), d)
			restore()
			if !errors.Is(err, resilience.ErrBudgetExceeded) {
				t.Fatalf("err = %v, want budget error", err)
			}
			if got := mustFingerprint(t, s); got != before {
				t.Fatalf("fault at %s left fingerprint %s != pre-update %s", point, got, before)
			}
			// The solver must still accept a clean update afterwards.
			if _, err := ls.Begin(ctl(), d); err != nil {
				t.Fatal(err)
			}
			ls.Commit()
		})
	}
}

func TestUpdateRejections(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	cases := []struct {
		name string
		d    Delta
	}{
		{"unknown relation", Delta{Add: map[string][][]uint64{"nosuch": {{0}}}}},
		{"derived relation", Delta{Add: map[string][][]uint64{"vP": {{0, 0}}}}},
		{"arity", Delta{Add: map[string][][]uint64{"vP0": {{0}}}}},
		{"out of range", Delta{Add: map[string][][]uint64{"vP0": {{99, 0}}}}},
		{"removal out of range", Delta{Remove: map[string][][]uint64{"vP0": {{0, 99}}}}},
	}
	before := mustFingerprint(t, s)
	for _, tc := range cases {
		if _, err := ls.Begin(ctl(), wire(tc.d)); !errors.Is(err, ErrUpdateRejected) {
			t.Errorf("%s: err = %v, want ErrUpdateRejected", tc.name, err)
		}
	}
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("rejected updates changed state: %s != %s", got, before)
	}
}

func TestResolveWireNames(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	var wd WireDelta
	if err := json.Unmarshal([]byte(`{
		"add":    {"vP0": [["v1", "h3"], ["vNew", 0]]},
		"remove": {"assign": [["v3", "v0"]]}
	}`), &wd); err != nil {
		t.Fatal(err)
	}
	d, err := ls.resolve(wd)
	if err != nil {
		t.Fatal(err)
	}
	// "vNew" was unknown and must have been registered at index 6.
	if v, ok := s.ElemIndex("V", "vNew"); !ok || v != 6 {
		t.Fatalf("vNew resolved to (%d, %v), want (6, true)", v, ok)
	}
	wantAdd := [][]uint64{{1, 3}, {6, 0}}
	if len(d.Add["vP0"]) != 2 || d.Add["vP0"][0][0] != wantAdd[0][0] || d.Add["vP0"][1][0] != wantAdd[1][0] {
		t.Fatalf("resolved add = %v, want %v", d.Add["vP0"], wantAdd)
	}
	if d.Remove["assign"][0][0] != 3 || d.Remove["assign"][0][1] != 0 {
		t.Fatalf("resolved remove = %v", d.Remove["assign"])
	}

	// Unknown name in a removal is a rejection, not a registration.
	bad := WireDelta{Remove: map[string][]WireTuple{
		"vP0": {{{Name: "neverSeen", Named: true}, {Num: 0}}},
	}}
	if _, err := ls.resolve(bad); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("unknown removal name: err = %v, want ErrUpdateRejected", err)
	}
}

// TestRejectedDeltaRegistersNoName: a delta is checked whole before
// any of its names is registered, so a rejected one leaves the name
// tables as they were, and repeated bad requests use up no slack.
func TestRejectedDeltaRegistersNoName(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	for _, body := range []string{
		`{"add":{"vP":[["ghost","h1"]]}}`,
		`{"add":{"vP0":[["ghost","h1"]],"assign":[["ghost",99]]}}`,
		`{"add":{"vP0":[["ghost","h1"]]},"remove":{"assign":[["v1","unseen"]]}}`,
	} {
		var wd WireDelta
		if err := json.Unmarshal([]byte(body), &wd); err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Begin(ctl(), wd); !errors.Is(err, ErrUpdateRejected) {
			t.Fatalf("%s: err = %v, want ErrUpdateRejected", body, err)
		}
		if v, ok := s.ElemIndex("V", "ghost"); ok {
			t.Fatalf("%s: rejected delta registered ghost at V index %d", body, v)
		}
		if n := len(s.Universe().Domain("V").ElemNames()); n != len(incOpts().ElemNames["V"]) {
			t.Fatalf("%s: V name table has %d names after a rejected delta", body, n)
		}
	}
}

// TestNamedValueOnUnnamedDomainRejected: a domain given no name table
// has no way to tell a new name's index from the indices numeric
// tuples already use, so a name there is refused, not mapped to 0.
func TestNamedValueOnUnnamedDomainRejected(t *testing.T) {
	opts := Options{ElemNames: map[string][]string{"V": incOpts().ElemNames["V"]}}
	s := newIncSolver(t, opts, incInputs())
	before := mustFingerprint(t, s)
	ls := newLive(t, s)
	wd := WireDelta{Add: map[string][]WireTuple{
		"vP0": {{{Name: "v1", Named: true}, {Name: "newh", Named: true}}},
	}}
	if _, err := ls.Begin(ctl(), wd); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("name on H without a name table: err = %v, want ErrUpdateRejected", err)
	}
	if _, ok := s.ElemIndex("H", "newh"); ok {
		t.Fatal("newh was registered on H")
	}
	if got := mustFingerprint(t, s); got != before {
		t.Fatalf("rejected delta changed the content: %s -> %s", before, got)
	}
}

// TestUpdateLeavesCallerElemNames: names an update registers belong to
// the solver; the caller's Options.ElemNames is never written, whether
// the update is rolled back or committed.
func TestUpdateLeavesCallerElemNames(t *testing.T) {
	opts := incOpts()
	s := newIncSolver(t, opts, incInputs())
	ls := newLive(t, s)
	for i, finish := range []func(){ls.Rollback, ls.Commit} {
		wd := WireDelta{Add: map[string][]WireTuple{
			"vP0": {{{Name: fmt.Sprintf("vNew%d", i), Named: true}, {Name: "h1", Named: true}}},
		}}
		if _, err := ls.Begin(ctl(), wd); err != nil {
			t.Fatal(err)
		}
		finish()
		if !reflect.DeepEqual(opts.ElemNames, incOpts().ElemNames) {
			t.Fatalf("update %d changed the caller's ElemNames to %v", i, opts.ElemNames)
		}
	}
	if _, ok := s.ElemIndex("V", "vNew1"); !ok {
		t.Fatal("the committed update's name is not registered")
	}
}

// TestAddElemNameDomainFull: a new name needs a free index in its
// domain; on a full domain the delta is rejected and nothing is
// registered.
func TestAddElemNameDomainFull(t *testing.T) {
	opts := Options{ElemNames: map[string][]string{
		"V": {"v0", "v1", "v2"},
	}}
	src := `
.domain V 4 var.map
.relation p (v : V) input
.relation q (v : V) output
q(v) :- p(v).
`
	s, err := NewSolver(MustParse(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	ls := newLive(t, s)
	// One free index: the first new name fits, a second does not.
	wd := WireDelta{Add: map[string][]WireTuple{"p": {
		{{Name: "fits", Named: true}}, {{Name: "overflow", Named: true}},
	}}}
	if _, err := ls.Begin(ctl(), wd); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("two new names on a domain with room for one: err = %v, want ErrUpdateRejected", err)
	}
	if _, ok := s.ElemIndex("V", "fits"); ok {
		t.Fatal("a name of the rejected delta was registered")
	}
	wd.Add["p"] = wd.Add["p"][:1]
	if _, err := ls.Begin(ctl(), wd); err != nil {
		t.Fatal(err)
	}
	ls.Commit()
	if v, ok := s.ElemIndex("V", "fits"); !ok || v != 3 {
		t.Fatalf("fits resolved to (%d, %v), want (3, true)", v, ok)
	}
}

func TestWireDeltaJSONRoundTrip(t *testing.T) {
	in := `{"add":{"store":[["v1",0,"v2"],[3,1,5]]},"remove":{"assign":[[4,3]]}}`
	var wd WireDelta
	if err := json.Unmarshal([]byte(in), &wd); err != nil {
		t.Fatal(err)
	}
	if !wd.Add["store"][0][0].Named || wd.Add["store"][0][0].Name != "v1" {
		t.Fatalf("first value = %+v, want named v1", wd.Add["store"][0][0])
	}
	if wd.Add["store"][1][2].Named || wd.Add["store"][1][2].Num != 5 {
		t.Fatalf("numeric value = %+v", wd.Add["store"][1][2])
	}
	out, err := json.Marshal(wd)
	if err != nil {
		t.Fatal(err)
	}
	var wd2 WireDelta
	if err := json.Unmarshal(out, &wd2); err != nil {
		t.Fatal(err)
	}
	if wd2.Add["store"][0][0].Name != "v1" || wd2.Remove["assign"][0][1].Num != 3 {
		t.Fatalf("round trip lost values: %s", out)
	}
	if wd.Empty() {
		t.Fatal("non-empty delta reported Empty")
	}
	if !(WireDelta{}).Empty() {
		t.Fatal("zero delta not Empty")
	}
}

func TestLiveSolverCommitAndRollback(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls, err := NewLiveSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	before := mustFingerprint(t, ls.Solver())
	wd := WireDelta{Add: map[string][]WireTuple{"vP0": {{{Num: 4}, {Num: 2}}}}}
	stats, err := ls.Begin(ctl(), wd)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Added != 1 || stats.Full {
		t.Fatalf("stats = %+v", stats)
	}
	if _, err := ls.Begin(ctl(), wd); err == nil {
		t.Fatal("second Begin with pending update succeeded")
	}
	ls.Rollback()
	if got := mustFingerprint(t, ls.Solver()); got != before {
		t.Fatalf("rollback fingerprint %s != %s", got, before)
	}
	if _, err := ls.Begin(ctl(), wd); err != nil {
		t.Fatal(err)
	}
	ls.Commit()
	if got := mustFingerprint(t, ls.Solver()); got == before {
		t.Fatal("committed update not visible")
	}
	if _, err := ls.Begin(ctl(), WireDelta{}); !errors.Is(err, ErrUpdateRejected) {
		t.Fatalf("empty delta: err = %v, want ErrUpdateRejected", err)
	}
}

// TestLiveSolverDegradesToFullResolve: an update whose incremental
// path trips its budget is re-run unbudgeted on the same solver, every
// stratum it reaches recomputed. It follows a live removal, so the
// recompute must start from the live inputs, not the original fills;
// its fingerprint must equal a from-scratch solve of both deltas.
// canceledCtl is a controller whose context is already canceled, so the
// incremental path trips at once and Begin degrades to a full re-solve.
func canceledCtl() *resilience.Controller {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	return resilience.NewController(cctx, resilience.Budget{})
}

func TestLiveSolverDegradesToFullResolve(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	d := Delta{Add: map[string][][]uint64{"vP0": {{4, 2}}, "assign": {{0, 2}}}}
	stats, err := ls.Begin(canceledCtl(), wire(d))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full || stats.Added != 2 || stats.StrataFast != 0 || stats.StrataRecomputed == 0 {
		t.Fatalf("stats = %+v, want Full, 2 added, every reached stratum recomputed", stats)
	}
	ls.Commit()
	if got, want := mustFingerprint(t, ls.Solver()), oracleFingerprint(t, incOpts(), incInputs(), d); got != want {
		t.Fatalf("degraded fingerprint %s != from-scratch %s", got, want)
	}
	// The solver keeps accepting incremental updates.
	wd2 := WireDelta{Add: map[string][]WireTuple{"assign": {{{Num: 1}, {Num: 4}}}}}
	stats, err = ls.Begin(ctl(), wd2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Full {
		t.Fatal("post-degradation update unexpectedly degraded")
	}
	ls.Commit()
}

// TestRebaseMatchesOracle checks that a degraded full re-solve starts from
// the live relations, not the original fills: after a committed live
// removal it must match both deltas applied in sequence from scratch.
func TestRebaseMatchesOracle(t *testing.T) {
	s := newIncSolver(t, incOpts(), incInputs())
	ls := newLive(t, s)
	removal := Delta{Remove: map[string][][]uint64{"vP0": {{1, 1}}}}
	mustUpdate(t, ls, ctl(), removal)
	d := Delta{Add: map[string][][]uint64{"assign": {{0, 2}}}}
	stats, err := ls.Begin(canceledCtl(), wire(d))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Full {
		t.Fatalf("stats = %+v, want Full", stats)
	}
	ls.Commit()
	opts := incOpts()
	opts.PreSolve = func(o *Solver) error {
		ApplyDeltaToRelations(o, removal)
		ApplyDeltaToRelations(o, d)
		return nil
	}
	o, err := NewSolver(MustParse(incSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range incInputs() {
		o.Relation(name).AddTuples(rows)
	}
	if err := o.Solve(); err != nil {
		t.Fatal(err)
	}
	if got, want := mustFingerprint(t, ls.Solver()), mustFingerprint(t, o); got != want {
		t.Fatalf("rebase fingerprint %s != oracle %s", got, want)
	}
}

// spanNames is a tracer that records the name of every span opened.
type spanNames struct{ names []string }

func (r *spanNames) Begin(name string, _ ...obs.Arg)    { r.names = append(r.names, name) }
func (r *spanNames) End(...obs.Arg)                     {}
func (r *spanNames) Instant(string, ...obs.Arg)         {}
func (r *spanNames) Counter(string, map[string]float64) {}

// TestUpdateTraceSpans: live updates are traced like solves. Both the
// add-only fast path and the removal recompute open a "stratum 0" span
// and one "iteration n" span per fixpoint iteration, numbered on from
// the solve's, so a trace of an update splits its time the same way.
func TestUpdateTraceSpans(t *testing.T) {
	rec := &spanNames{}
	s, err := NewSolver(MustParse(tcSrc), Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	s.Relation("e").AddTuples([][]uint64{{0, 1}, {1, 2}, {2, 3}})
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	ls := newLive(t, s)
	for _, d := range []Delta{
		{Add: map[string][][]uint64{"e": {{3, 4}}}},
		{Remove: map[string][][]uint64{"e": {{1, 2}}}},
	} {
		before := s.Stats().Iterations
		rec.names = nil
		mustUpdate(t, ls, nil, d)
		after := s.Stats().Iterations
		if after == before {
			t.Fatalf("update %+v ran no fixpoint iteration", d)
		}
		want := []string{"stratum 0"}
		for i := before + 1; i <= after; i++ {
			want = append(want, fmt.Sprintf("iteration %d", i))
		}
		var got []string
		for _, n := range rec.names {
			if strings.HasPrefix(n, "stratum ") || strings.HasPrefix(n, "iteration ") {
				got = append(got, n)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("update %+v: spans %v, want %v", d, got, want)
		}
	}
}
