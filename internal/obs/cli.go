package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// Flags bundles the observability flags every command shares:
// -trace, -metrics, -progress, -cpuprofile, -memprofile. Register
// them on a FlagSet, then Start a Session after flag parsing and defer
// Close.
type Flags struct {
	TracePath   string
	MetricsPath string
	Progress    time.Duration
	CPUProfile  string
	MemProfile  string
}

// Register installs the standard flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
	fs.StringVar(&f.MetricsPath, "metrics", "", "write a flat metrics JSON file")
	fs.DurationVar(&f.Progress, "progress", 0, "print a one-line heartbeat (phase, stratum/iteration, live nodes) to stderr at this interval (e.g. 2s; 0 = off)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// Session is a started observability session: a Tracer (nil when both
// -trace and -progress are off, so call sites stay free), a Metrics
// registry, and any running profiles. Close flushes everything.
type Session struct {
	// Tracer fans out to the Chrome trace buffer and/or the -progress
	// heartbeat's phase tracker. Nil when neither is requested.
	Tracer Tracer
	// Metrics is the session registry; Close writes it to -metrics.
	Metrics *Metrics

	name      string
	flags     Flags
	chrome    *ChromeTrace
	cpuFile   *os.File
	heartbeat *Sampler
}

// Start opens a session named name (the name lands in the metrics
// JSON). It begins CPU profiling if requested.
func (f *Flags) Start(name string) (*Session, error) {
	s := &Session{name: name, flags: *f, Metrics: New()}
	var tracers []Tracer
	if f.TracePath != "" {
		s.chrome = NewChromeTrace()
		tracers = append(tracers, s.chrome)
	}
	if f.Progress > 0 {
		p := NewProgress()
		tracers = append(tracers, p)
		s.heartbeat = StartHeartbeat(p, os.Stderr, f.Progress)
	}
	s.Tracer = Multi(tracers...)
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		s.cpuFile = cf
	}
	return s, nil
}

// MetricsRequested reports whether -metrics names a file: commands
// compute metrics that cost a pass of their own (relation sizes) only
// then.
func (s *Session) MetricsRequested() bool { return s.flags.MetricsPath != "" }

// Close stops profiles and writes the trace, metrics, and heap-profile
// files. It is safe to call once; errors report the first failure.
func (s *Session) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.heartbeat != nil {
		s.heartbeat.Stop()
		s.heartbeat = nil
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if s.flags.MemProfile != "" {
		mf, err := os.Create(s.flags.MemProfile)
		if err == nil {
			runtime.GC()
			keep(pprof.WriteHeapProfile(mf))
			keep(mf.Close())
		} else {
			keep(err)
		}
	}
	if s.chrome != nil && s.flags.TracePath != "" {
		tf, err := os.Create(s.flags.TracePath)
		if err == nil {
			_, werr := s.chrome.WriteTo(tf)
			keep(werr)
			keep(tf.Close())
		} else {
			keep(err)
		}
	}
	if s.flags.MetricsPath != "" {
		mf, err := os.Create(s.flags.MetricsPath)
		if err == nil {
			keep(s.Metrics.WriteJSON(mf, s.name))
			keep(mf.Close())
		} else {
			keep(err)
		}
	}
	return first
}
