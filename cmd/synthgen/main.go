// Command synthgen emits the synthetic benchmark programs as ".jp"
// text for inspection or use with cmd/pointsto.
//
// Usage:
//
//	synthgen -list
//	synthgen -bench megamek > megamek.jp
//
// Resilience: -timeout bounds generation (exit code 3) and Ctrl-C
// cancels it (exit code 4). -max-nodes is accepted for flag parity with
// the other commands but is inert — synthgen runs no BDD solver.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"bddbddb/internal/callgraph"
	"bddbddb/internal/obs"
	"bddbddb/internal/program"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

func main() {
	list := flag.Bool("list", false, "list benchmark configurations")
	bench := flag.String("bench", "", "benchmark to generate")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	sess, err := oflags.Start("synthgen")
	if err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctl := rflags.Controller(ctx)
	switch {
	case *list:
		fmt.Printf("%-10s %-8s %-7s %-7s %-8s %s\n", "name", "classes", "layers", "width", "threads", "paper c.s. paths")
		for _, b := range synth.Benchmarks {
			fmt.Printf("%-10s %-8d %-7d %-7d %-8d %s\n",
				b.Params.Name, b.Params.Classes, b.Params.Layers, b.Params.Width,
				b.Params.Threads, callgraph.FormatPathCount(b.PaperPaths()))
		}
	case *bench != "":
		b := synth.BenchmarkByName(*bench)
		if b == nil {
			fmt.Fprintf(os.Stderr, "synthgen: unknown benchmark %q (try -list)\n", *bench)
			os.Exit(1)
		}
		obs.Begin(sess.Tracer, "synthgen.generate", obs.A("bench", b.Params.Name))
		p := synth.Generate(b.Params)
		obs.End(sess.Tracer)
		if err := ctl.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "synthgen:", err)
			stop()
			os.Exit(resilience.ExitCode(err))
		}
		obs.Begin(sess.Tracer, "synthgen.format")
		out := program.Format(p)
		obs.End(sess.Tracer)
		fmt.Print(out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
}
