// Command obsreport reads the observability files the other commands
// emit — flat metrics JSON (-metrics, BENCH_*.json), Chrome
// trace-event JSON (-trace), and the daemon's sampler time series
// (/debug/timeseries) — and reduces them to the views a perf
// investigation starts from.
//
// Usage:
//
//	obsreport top [-k 10] metrics.json          hottest rules and ops
//	obsreport phases trace.json                 per-phase time breakdown
//	obsreport timeseries ts.json                per-series min/mean/max/last
//	obsreport diff [-threshold 10%] [-fail] old.json new.json
//
// diff compares two metrics files and prints every key whose relative
// change meets the threshold, flagging changes in the bad direction
// (cost-like keys up, goodness-like keys down) as regressions. With
// -fail it exits 1 when any regression is found, which makes it usable
// as a CI perf gate:
//
//	obsreport diff -threshold 25% -fail BENCH_serve.json new.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"bddbddb/internal/obs"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "top":
		err = runTop(args)
	case "phases":
		err = runPhases(args)
	case "timeseries":
		err = runTimeseries(args)
	case "diff":
		err = runDiff(args)
	default:
		fmt.Fprintf(os.Stderr, "obsreport: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  obsreport top [-k 10] metrics.json
  obsreport phases trace.json
  obsreport timeseries ts.json
  obsreport diff [-threshold 10%] [-fail] old.json new.json
`)
}

func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	k := fs.Int("k", 10, "show the k most expensive entries (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("top wants one metrics file")
	}
	mf, err := obs.ReadMetricsFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if mf.Name != "" {
		fmt.Printf("# %s\n", mf.Name)
	}
	rules := obs.TopRules(mf.Metrics, *k)
	if len(rules) > 0 {
		fmt.Printf("hottest rules (by cumulative seconds):\n")
		fmt.Printf("%-24s %12s %10s %12s\n", "rule", "seconds", "applies", "tuples")
		for _, rc := range rules {
			tuples := "-" // not counted in this run
			if rc.HasTuples {
				tuples = fmt.Sprintf("%.0f", rc.Tuples)
			}
			fmt.Printf("%-24s %12.6f %10.0f %12s\n", rc.Key, rc.Seconds, rc.Applications, tuples)
		}
	}
	ops := obs.TopOps(mf.Metrics, *k)
	if len(ops) > 0 {
		fmt.Printf("hottest ops (by execution count):\n")
		fmt.Printf("%-32s %12s\n", "op", "count")
		for _, oc := range ops {
			fmt.Printf("%-32s %12.0f\n", oc.Key, oc.Count)
		}
	}
	if len(rules) == 0 && len(ops) == 0 {
		fmt.Println("no datalog.rule.* or datalog.op.* metrics in file")
	}
	return nil
}

func runPhases(args []string) error {
	fs := flag.NewFlagSet("phases", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("phases wants one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	phases, err := obs.ReadTracePhases(f)
	if err != nil {
		return err
	}
	if len(phases) == 0 {
		fmt.Println("no complete spans in trace")
		return nil
	}
	fmt.Printf("%-32s %12s %12s %8s\n", "phase", "total_ms", "self_ms", "count")
	for _, p := range phases {
		fmt.Printf("%-32s %12.3f %12.3f %8d\n",
			p.Name, float64(p.TotalUS)/1000, float64(p.SelfUS)/1000, p.Count)
	}
	return nil
}

func runTimeseries(args []string) error {
	fs := flag.NewFlagSet("timeseries", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("timeseries wants one time-series file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	interval, samples, err := obs.ReadTimeseries(f)
	if err != nil {
		return err
	}
	fmt.Printf("%d samples at %gs interval\n", len(samples), interval)
	if len(samples) == 0 {
		return nil
	}
	span := samples[len(samples)-1].Time.Sub(samples[0].Time)
	fmt.Printf("window: %s .. %s (%s)\n",
		samples[0].Time.Format("15:04:05"), samples[len(samples)-1].Time.Format("15:04:05"), span.Round(1e6))
	fmt.Printf("%-40s %12s %12s %12s %12s\n", "series", "min", "mean", "max", "last")
	for _, ss := range obs.SummarizeSamples(samples) {
		fmt.Printf("%-40s %12.3f %12.3f %12.3f %12.3f\n", ss.Key, ss.Min, ss.Mean, ss.Max, ss.Last)
	}
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.String("threshold", "10%", "minimum relative change to report (e.g. 10%, 0.05)")
	failOnRegression := fs.Bool("fail", false, "exit 1 when any regression meets the threshold (CI gate)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants two metrics files: old new")
	}
	th, err := obs.ParseThreshold(*threshold)
	if err != nil {
		return err
	}
	oldMF, err := obs.ReadMetricsFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newMF, err := obs.ReadMetricsFile(fs.Arg(1))
	if err != nil {
		return err
	}
	entries := obs.DiffMetrics(oldMF.Metrics, newMF.Metrics, th)
	if len(entries) == 0 {
		fmt.Printf("no changes >= %.0f%%\n", th*100)
		return nil
	}
	regressions := 0
	fmt.Printf("%-44s %14s %14s %10s\n", "key", "old", "new", "delta")
	for _, e := range entries {
		switch {
		case e.Missing == "new":
			fmt.Printf("%-44s %14.6g %14s %10s\n", e.Key, e.Old, "-", "gone")
		case e.Missing == "old":
			fmt.Printf("%-44s %14s %14.6g %10s\n", e.Key, "-", e.New, "added")
		default:
			mark := ""
			if e.Regression {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Printf("%-44s %14.6g %14.6g %9.1f%%%s\n", e.Key, e.Old, e.New, deltaPct(e.Delta), mark)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s) beyond %.0f%%\n", regressions, th*100)
		if *failOnRegression {
			os.Exit(1)
		}
	}
	return nil
}

func deltaPct(d float64) float64 {
	if math.IsInf(d, 1) {
		return math.Inf(1)
	}
	return d * 100
}
