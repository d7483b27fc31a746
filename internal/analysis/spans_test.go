package analysis

import (
	"reflect"
	"strings"
	"testing"

	"bddbddb/internal/obs"
)

// phaseSpans records the analysis.* spans a run opens, each as its
// path of enclosing analysis.* spans ("analysis.discover/analysis.fill").
// Solver and BDD spans are tracked for nesting but not recorded.
type phaseSpans struct {
	stack []string
	paths []string
}

func (p *phaseSpans) Begin(name string, _ ...obs.Arg) {
	if strings.HasPrefix(name, "analysis.") {
		var path []string
		for _, s := range p.stack {
			if strings.HasPrefix(s, "analysis.") {
				path = append(path, s)
			}
		}
		p.paths = append(p.paths, strings.Join(append(path, name), "/"))
	}
	p.stack = append(p.stack, name)
}

func (p *phaseSpans) End(...obs.Arg) { p.stack = p.stack[:len(p.stack)-1] }

func (p *phaseSpans) Instant(string, ...obs.Arg)         {}
func (p *phaseSpans) Counter(string, map[string]float64) {}

// TestPhaseSpans pins the analysis.* phase spans of every entry point,
// in order and with their nesting under analysis.discover. perfbench's
// per-layer metrics sum these spans by name, so a phase that moves out
// of its span, or a span that starts covering other work, shows here.
func TestPhaseSpans(t *testing.T) {
	const (
		disc   = "analysis.discover"
		comp   = "analysis.compile"
		fill   = "analysis.fill"
		cha    = "analysis.cha"
		num    = "analysis.numbering"
		mat    = "analysis.materialize"
		thread = "analysis.thread_contexts"
	)
	discover := []string{disc, disc + "/" + comp, disc + "/" + fill}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// The CHA-based entry points build their call graph before the
	// pipeline step compiles the program, so analysis.cha comes first.
	want := map[string][]string{
		"algo1_ci":      {cha, comp, fill},
		"algo2_cif":     {cha, comp, fill},
		"algo3_otf":     {comp, fill},
		"algo5_cs":      cat(discover, []string{num, comp, mat, fill}),
		"algo5_csotf":   {num, comp, mat, fill},
		"algo6_type":    cat(discover, []string{num, comp, mat, fill}),
		"algo7_threads": cat(discover, []string{thread, comp, fill}),
		"algo8_heapcs":  cat(discover, []string{num, comp, mat, fill}),
		"type_ci":       {cha, comp, fill},
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			rec := &phaseSpans{}
			if _, err := ep.run(facts(t, ep.src), Config{Tracer: rec}); err != nil {
				t.Fatal(err)
			}
			if len(rec.stack) != 0 {
				t.Fatalf("spans left open: %v", rec.stack)
			}
			if w := want[ep.name]; !reflect.DeepEqual(rec.paths, w) {
				t.Errorf("phase spans\n got %v\nwant %v", rec.paths, w)
			}
		})
	}
}
