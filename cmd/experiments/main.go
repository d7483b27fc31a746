// Command experiments regenerates the paper's evaluation tables.
//
// Usage:
//
//	experiments -figure 3            # Figure 3 on all 21 benchmarks
//	experiments -figure 4 -benches freetts,jetty
//	experiments -figure all -small   # every figure on the small subset
//	experiments -figure 4 -json BENCH_figure4.json
//	experiments -figure precision -json BENCH_precision.json
//
// -json writes the figure tables as flat metrics JSON (the BENCH_*.json
// trajectory format) with keys like figure4.<bench>.cs_pointer.time_sec.
// The shared observability flags (-trace, -metrics, -progress,
// -cpuprofile, -memprofile) instrument the analysis runs themselves.
//
// Resilience: -timeout and -max-nodes bound the whole regeneration
// (exit code 3 on exhaustion) and Ctrl-C cancels it (exit code 4).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/experiments"
	"bddbddb/internal/obs"
	"bddbddb/internal/order"
	"bddbddb/internal/resilience"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: 3|4|5|6|precision|all")
	benches := flag.String("benches", "", "comma-separated benchmark names (default: all for figure 3, the small subset otherwise)")
	small := flag.Bool("small", false, "restrict every figure to the small subset")
	search := flag.String("ordersearch", "", "run the Section 2.4.2 empirical variable-order search for Algorithm 5 on this benchmark")
	trials := flag.Int("trials", 12, "order-search trial budget")
	jsonPath := flag.String("json", "", "write the figure tables as metrics JSON to this file")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()

	sess, err := oflags.Start("experiments")
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		sess.Close()
		stop()
		os.Exit(resilience.ExitCode(err))
	}

	if *search != "" {
		if err := runOrderSearch(*search, *trials); err != nil {
			fatal(err)
		}
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		return
	}

	names := experiments.AllNames()
	defaultSubset := func() []string {
		if *small {
			return experiments.SmallNames()
		}
		return experiments.AllNames()
	}
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}
	s := experiments.NewSuite()
	s.SetObs(sess.Tracer)
	s.SetControl(ctx, rflags.Budget())
	table := make(map[string]float64) // accumulated -json figure metrics
	run := func(fig string) error {
		switch fig {
		case "3":
			rows, err := s.Figure3(pick(*benches, names, experiments.AllNames()))
			if err != nil {
				return err
			}
			fmt.Println("Figure 3: benchmark vital statistics (measured | paper)")
			experiments.WriteFigure3(os.Stdout, rows)
			merge(table, experiments.Figure3Metrics(rows))
		case "4":
			rows, err := s.Figure4(pick(*benches, names, defaultSubset()))
			if err != nil {
				return err
			}
			fmt.Println("Figure 4: analysis times and peak live BDD memory")
			experiments.WriteFigure4(os.Stdout, rows)
			merge(table, experiments.Figure4Metrics(rows))
		case "5":
			rows, err := s.Figure5(pick(*benches, names, defaultSubset()))
			if err != nil {
				return err
			}
			fmt.Println("Figure 5: escape analysis results")
			experiments.WriteFigure5(os.Stdout, rows)
			merge(table, experiments.Figure5Metrics(rows))
		case "6":
			rows, err := s.Figure6(pick(*benches, names, defaultSubset()))
			if err != nil {
				return err
			}
			fmt.Println("Figure 6: type refinement precision (multi-typed % / refinable %)")
			experiments.WriteFigure6(os.Stdout, rows)
			merge(table, experiments.Figure6Metrics(rows))
		case "precision":
			reps, err := s.Precision(pick(*benches, names, experiments.PrecisionNames()))
			if err != nil {
				return err
			}
			fmt.Println("Precision: {ci, cs, heap-cs} mode comparison")
			experiments.WritePrecision(os.Stdout, reps)
			merge(table, experiments.PrecisionMetrics(reps))
		default:
			return fmt.Errorf("unknown figure %q", fig)
		}
		fmt.Println()
		return nil
	}
	figs := []string{*figure}
	if *figure == "all" {
		figs = []string{"3", "4", "5", "6"}
	}
	for _, fig := range figs {
		if err := run(fig); err != nil {
			fatal(err)
		}
	}
	if *jsonPath != "" {
		if err := writeTable(*jsonPath, table); err != nil {
			fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// writeTable writes the accumulated figure metrics as BENCH-style JSON.
func writeTable(path string, table map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMetricsJSON(f, "experiments", table); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pick returns explicit names when given, otherwise the default set.
func pick(explicit string, explicitNames, def []string) []string {
	if explicit != "" {
		return explicitNames
	}
	return def
}

// runOrderSearch hill-climbs over logical-domain orders for the
// context-sensitive pointer analysis on one benchmark, printing each
// trial — the reproduction of bddbddb's automatic order exploration.
func runOrderSearch(bench string, trials int) error {
	s := experiments.NewSuite()
	p, err := s.Load(bench)
	if err != nil {
		return err
	}
	initial := order.Default(order.ModeCS)
	res, err := order.Search(initial, func(ord []string) order.Cost {
		start := time.Now()
		r, err := analysis.RunContextSensitive(p.Facts, p.Graph, analysis.Config{Order: ord})
		if err != nil {
			return order.Cost{Err: err}
		}
		c := order.Cost{Time: time.Since(start), Nodes: r.Stats().PeakLiveNodes}
		fmt.Printf("  %-40s %10v  %9d peak nodes\n", strings.Join(ord, "_"), c.Time.Round(time.Millisecond), c.Nodes)
		return c
	}, order.Options{MaxTrials: trials, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("best: %s (%v, %d peak nodes) after %d trials\n",
		strings.Join(res.Best, "_"), res.BestCost.Time.Round(time.Millisecond), res.BestCost.Nodes, res.Trials)
	return nil
}
