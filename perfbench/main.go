// Command perfbench is the repository's layered benchmark. One run
// executes one workload, checks its outputs, and prints one JSON
// result line last: the end-to-end metrics of an untraced run
// (-trace 0), or the per-layer split of a traced run (-trace 1).
//
//	bash perfbench/run.sh --workload stdlib-cs --seed 1 --seconds 20 --trace 0
//
// Workloads (see perfbench/LAYERS.md for why each was chosen):
//
//	stdlib-cs     gopointsto's cs path on GOROOT net/http, go/types,
//	              encoding/json, then the result served by the daemon
//	synth-ladder  the {ci, cs, heap-cs} precision ladder on pmd, then
//	              the cs rung served by the daemon
//	serve-mixed   bddbddbd on megamek: start-to-ready, then a closed
//	              loop of mixed queries with live updates
//
// The benchmark drives only the layers' public entry points and times
// each layer from outside, around those calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"bddbddb/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its settings, its recorder (nil when
// untraced), and the metrics, failures and check results it gathers.
type bench struct {
	workload  string
	seed      int64
	seconds   float64
	goroot    string
	goversion string
	tr        *recorder

	e2e, layer map[string]metric
	// tracedAnalysis and rerun price tracing (traced runs): the
	// workload's analysis time and a way to run one analysis again.
	tracedAnalysis float64
	rerun          func(*solveAcc) (time.Duration, error)

	attempted int
	failed    int
	problems  []string
	notes     map[string]any
}

// tracer returns the recorder as an obs.Tracer, or a nil interface
// when the run is untraced (a typed nil would turn tracing on).
func (b *bench) tracer() obs.Tracer {
	if b.tr == nil {
		return nil
	}
	return b.tr
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// check records a failed correctness gate; any one fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.problems = append(b.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	}
}

func (b *bench) note(key string, v any) { b.notes[key] = v }

var workloads = map[string]func(*bench) error{
	"stdlib-cs":    runStdlib,
	"synth-ladder": runLadder,
	"serve-mixed":  runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "stdlib-cs | synth-ladder | serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed (inputs derive from it only)")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
	goroot := flag.String("goroot", "", "`go env GOROOT` of the toolchain (stdlib-cs input)")
	goversion := flag.String("goversion", runtime.Version(), "`go env GOVERSION` of the toolchain")
	regen := flag.Bool("regen-oracle", false, "recompute the stdlib-cs oracle digest for this GOVERSION into perfbench/oracle.json")
	flag.Parse()
	if *regen {
		if err := regenOracle(*goroot, *goversion); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run := workloads[*workload]
	if run == nil || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload stdlib-cs|synth-ladder|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds,
		goroot: *goroot, goversion: *goversion,
		e2e: map[string]metric{}, layer: map[string]metric{}, notes: map[string]any{},
	}
	if *trace == 1 {
		b.tr = newRecorder()
	}
	t0 := time.Now()
	err := run(b)
	if err == nil {
		err = b.traceOverhead()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.tr != nil {
		n := b.tr.interleavedCalls()
		b.check(n == 0, "%d span calls interleaved across goroutines; the layer split is unreliable", n)
	}
	b.setE2E("peak_rss_mb", "MB", peakRSSMB())
	b.stamp()
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if b.tr != nil {
		b.tr.writeLayerTable(os.Stdout, b.workload, time.Since(t0))
		res.Metrics = b.layer
	}
	if b.attempted > 0 {
		fmt.Printf("failed_frac %.6f (%d of %d ops)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// stamp prints the run's environment and workload notes as one JSON
// line ahead of the result.
func (b *bench) stamp() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	b.note("goversion", b.goversion)
	b.note("nproc", runtime.NumCPU())
	b.note("gomaxprocs", runtime.GOMAXPROCS(0))
	b.note("gogc", gogc)
	b.note("workload", b.workload)
	b.note("seed", b.seed)
	b.note("trace", b.tr != nil)
	out, _ := json.Marshal(b.notes)
	fmt.Printf("stamp %s\n", out)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailMean returns the mean of the values at or above the q-quantile.
func tailMean(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[int(q*float64(len(s))):]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
