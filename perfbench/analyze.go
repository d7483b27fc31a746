package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/extract"
	"bddbddb/internal/frontend/gofront"
	"bddbddb/internal/obs"
	"bddbddb/internal/program"
)

// solveAcc sums the datalog and BDD counters of a set of solves.
type solveAcc struct {
	peak                 int
	solve                time.Duration
	iterations, ruleApps int64
	produced, gcs, grows int64
	gcPause              float64
	bddOps, explicitOps  float64
	hits, misses         map[string]float64
	contextBits          float64
	// discover, cs and heapCS time the analysis's one call of each.
	discover, cs, heapCS time.Duration
}

func newSolveAcc() *solveAcc {
	return &solveAcc{hits: map[string]float64{}, misses: map[string]float64{}}
}

func (a *solveAcc) add(r *analysis.Result, m map[string]float64) {
	st := r.Stats()
	if st.PeakLiveNodes > a.peak {
		a.peak = st.PeakLiveNodes
	}
	a.solve += st.SolveTime
	a.iterations += int64(st.Iterations)
	a.ruleApps += st.RuleApplications
	a.produced += st.NodesAllocated
	a.gcs += st.GCs
	a.grows += int64(m["bdd.grows"])
	a.gcPause += m["bdd.gc_pause_sec"]
	a.bddOps += m["datalog.backend.bdd.ops"]
	a.explicitOps += m["datalog.backend.explicit.ops"]
	for _, c := range []string{"apply", "appex", "replace"} {
		a.hits[c] += m["bdd.cache."+c+".hits"]
		a.misses[c] += m["bdd.cache."+c+".misses"]
	}
	if r.Numbering != nil {
		a.contextBits = log2Contexts(r.Numbering.MaxContexts)
	}
}

// solve runs one analysis entry point inside a benchmark span and
// accounts the solve it returns, from that solver's own registry (a
// call that also discovers the call graph reports the discovery's
// counters nowhere else). A degraded result counts as a failed
// operation.
func (b *bench) solve(acc *solveAcc, name string, cfg analysis.Config, run func(analysis.Config) (*analysis.Result, error)) (*analysis.Result, time.Duration, error) {
	cfg.Metrics = obs.New()
	cfg.Tracer = b.tracer()
	var r *analysis.Result
	d, err := span(b.tr, name, func() (err error) {
		r, err = run(cfg)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	b.attempted++
	if r.Degraded {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s degraded to context-insensitive: %v\n", name, r.DegradedCause)
	}
	if acc != nil {
		acc.add(r, r.Solver.Metrics().Snapshot())
	}
	return r, d, nil
}

// discover runs Algorithm 3 and converts its IE relation into the call
// graph the cloned rungs share — the work analysis.DiscoverCallGraph
// does, kept as a Result so its points-to pairs feed the ci gates.
func (b *bench) discover(acc *solveAcc, f *extract.Facts, cfg analysis.Config) (*analysis.Result, *callgraph.Graph, time.Duration, error) {
	ci, d, err := b.solve(acc, "analysis.RunOnTheFly", cfg, func(c analysis.Config) (*analysis.Result, error) {
		return analysis.RunOnTheFly(f, c)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	var g *callgraph.Graph
	dg, _ := span(b.tr, "analysis.GraphFromIE", func() error {
		g = analysis.GraphFromIE(f, ci.Solver.Relation("IE"))
		return nil
	})
	if acc != nil {
		acc.discover = d + dg
	}
	return ci, g, d + dg, nil
}

// report publishes the accumulated solve counters as per-layer metrics.
func (b *bench) reportSolves(a *solveAcc) {
	b.setLayer("analysis.discover_s", "s", a.discover.Seconds())
	b.setLayer("analysis.cs_s", "s", a.cs.Seconds())
	b.setLayer("callgraph.context_bits", "bits", a.contextBits)
	b.setLayer("datalog.solve_s", "s", a.solve.Seconds())
	b.setLayer("datalog.iterations", "count", float64(a.iterations))
	b.setLayer("datalog.rule_applications", "count", float64(a.ruleApps))
	if tot := a.bddOps + a.explicitOps; tot > 0 {
		b.setLayer("datalog.backend.bdd_ops_frac", "ratio", a.bddOps/tot)
	}
	b.setLayer("bdd.produced_nodes", "count", float64(a.produced))
	b.setLayer("bdd.gcs", "count", float64(a.gcs))
	b.setLayer("bdd.gc_pause_s", "s", a.gcPause)
	b.setLayer("bdd.grows", "count", float64(a.grows))
	for _, c := range []string{"apply", "appex", "replace"} {
		if tot := a.hits[c] + a.misses[c]; tot > 0 {
			b.setLayer("bdd.cache."+c+".hit_ratio", "ratio", a.hits[c]/tot)
		}
	}
	if a.heapCS > 0 {
		b.note("analysis.heap_cs_s", a.heapCS.Seconds())
	}
}

// reportSpans publishes the program's own phase and op spans (traced
// runs) from the recorder's window, which covers the same solves as the
// counters of reportSolves.
func (b *bench) reportSpans() {
	if b.tr == nil {
		return
	}
	for _, p := range []string{"fill", "materialize", "numbering", "compile"} {
		b.setLayer("analysis."+p+"_s", "s", b.tr.total("analysis."+p).Seconds())
	}
	reshape, _ := b.tr.own("op.Reshape")
	join, _ := b.tr.own("op.JoinProject")
	b.setLayer("datalog.op.reshape_s", "s", reshape.Seconds())
	b.setLayer("datalog.op.join_project_s", "s", join.Seconds())
	b.setLayer("datalog.ops", "count", float64(b.tr.opCalls()))
}

// log2Contexts returns log2(n+1), the bits the context numbering
// needs. The count itself passes 2^62 on pmd, where ContextDomainSize
// saturates and a float64 drops its low digits.
func log2Contexts(n *big.Int) float64 {
	mant := new(big.Float)
	exp := new(big.Float).SetInt(new(big.Int).Add(n, big.NewInt(1))).MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}

// frontendStats records the program and fact-base sizes.
func (b *bench) frontendStats(prog *program.Program, f *extract.Facts) {
	b.setLayer("frontend.stmts", "count", float64(prog.Stats().Stmts))
	b.setLayer("extract.tuples", "count", float64(factTuples(f)))
}

func factTuples(f *extract.Facts) int {
	n := 0
	for _, ts := range [][]extract.Tuple{f.VP0, f.Assign, f.Store, f.Load, f.VT, f.HT, f.AT, f.Cha,
		f.Actual, f.Formal, f.IE0, f.MI, f.Mret, f.Iret, f.MV, f.Syncs} {
		n += len(ts)
	}
	return n
}

// extractFacts is the extract layer's public entry point, timed.
func (b *bench) extractFacts(prog *program.Program) (*extract.Facts, time.Duration, error) {
	var f *extract.Facts
	d, err := span(b.tr, "extract.Extract", func() (err error) {
		f, err = extract.Extract(prog, extract.Options{})
		return err
	})
	return f, d, err
}

// subset reports whether every pair of a is in b, and the first
// counterexample otherwise.
func subset(a, b map[[2]uint64]bool) (bool, [2]uint64) {
	for p := range a {
		if !b[p] {
			return false, p
		}
	}
	return true, [2]uint64{}
}

// pairsDigest hashes projected (variable, heap) pairs by element name,
// so the digest survives renumbering of the extracted domains.
func pairsDigest(f *extract.Facts, pairs map[[2]uint64]bool) string {
	lines := make([]string, 0, len(pairs))
	for p := range pairs {
		lines = append(lines, f.Vars[p[0]]+"\x00"+f.Heaps[p[1]])
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleDigest is the stdlib-cs ci result as computed by the
// independent map-based oracle (analysis.ReferenceOnTheFly), one entry
// per Go toolchain. Only -regen-oracle writes it.
type oracleDigest struct {
	Pairs  int    `json:"pairs"`
	SHA256 string `json:"sha256"`
}

//go:embed oracle.json
var oracleJSON []byte

func oracleDigests() (map[string]oracleDigest, error) {
	m := map[string]oracleDigest{}
	if err := json.Unmarshal(oracleJSON, &m); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return m, nil
}

var stdlibPackages = []string{"net/http", "go/types", "encoding/json"}

// lowerStdlib is the gofront layer's public entry point on the GOROOT
// packages, with gopointsto's default -entries auto.
func (b *bench) lowerStdlib() (*gofront.Result, time.Duration, error) {
	if b.goroot == "" {
		return nil, 0, fmt.Errorf("stdlib-cs needs -goroot (go env GOROOT)")
	}
	var pats []string
	for _, p := range stdlibPackages {
		pats = append(pats, filepath.Join(b.goroot, "src", filepath.FromSlash(p)))
	}
	var res *gofront.Result
	d, err := span(b.tr, "gofront.Lower", func() (err error) {
		res, err = gofront.Lower(pats, gofront.Options{Entries: gofront.EntryMode("auto")})
		return err
	})
	return res, d, err
}

// regenOracle recomputes the oracle digest from the oracle itself and
// stores it under this toolchain's GOVERSION.
func regenOracle(goroot, goversion string) error {
	b := &bench{goroot: goroot}
	res, _, err := b.lowerStdlib()
	if err != nil {
		return err
	}
	f, _, err := b.extractFacts(res.Prog)
	if err != nil {
		return err
	}
	pairs := analysis.ReferenceOnTheFly(f, true).VPSet()
	m, err := oracleDigests()
	if err != nil {
		return err
	}
	m[goversion] = oracleDigest{Pairs: len(pairs), SHA256: pairsDigest(f, pairs)}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	const path = "perfbench/oracle.json"
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %s = %d pairs %s\n", path, goversion, len(pairs), m[goversion].SHA256)
	return nil
}

// gateCI checks the stdlib ci pairs against the oracle: the stored
// digest for this toolchain, or an inline oracle run when none exists.
func (b *bench) gateCI(f *extract.Facts, ci map[[2]uint64]bool) error {
	m, err := oracleDigests()
	if err != nil {
		return err
	}
	want, ok := m[b.goversion]
	if !ok {
		pairs := analysis.ReferenceOnTheFly(f, true).VPSet()
		want = oracleDigest{Pairs: len(pairs), SHA256: pairsDigest(f, pairs)}
		b.note("oracle", "inline (no stored digest for "+b.goversion+")")
	} else {
		b.note("oracle", "stored digest for "+b.goversion)
	}
	got := pairsDigest(f, ci)
	b.check(len(ci) == want.Pairs && got == want.SHA256,
		"stdlib ci pairs %d (%s) != oracle %d (%s)", len(ci), short(got), want.Pairs, short(want.SHA256))
	b.note("ci_pairs", len(ci))
	return nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// exprName reports whether the daemon can address a name in a query.
// The serve layer accepts more than this, but two kinds of name break
// the query it builds: names that fmt's %q escapes (the Datalog lexer
// has no escape sequences), and names holding '#', which
// serve.NormalizeQuery strips as a comment even inside a quoted
// constant (closure names such as Transport.RoundTrip#2). The key
// pools leave both out; each run reports how many it left out.
func exprName(name string) bool {
	return name != "" && !strings.Contains(name, "#") && strconv.Quote(name) == `"`+name+`"`
}
