// Command eve-faults runs a deterministic fault-injection campaign over the
// EVE SRAM compute substrate and emits the classified results as JSON.
//
//	eve-faults -seed=42 -sites=16                  # full small suite, all fault kinds
//	eve-faults -kernels=vvadd,k-means -sites=32    # selected kernels
//	eve-faults -kinds=bitflip,stuck-sa -parallel=8 # restrict kinds, fan out
//	eve-faults -seed=42 -o=campaign.json           # write the report to a file
//
// Each (kernel, fault site) cell re-executes the kernel's vector instructions
// on a bit-level circuit stack with one fault armed, and is classified
// against a fault-free baseline as masked, detected, sdc, or crash. The
// report is a pure function of (seed, kernel set, sites, kinds, -n): the
// same invocation produces byte-identical JSON across runs and across
// -parallel values.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// emitReport writes the campaign report as indented JSON.
func emitReport(w io.Writer, rep *faults.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// summarize renders the one-line outcome tally printed to stderr.
func summarize(rep *faults.Report) string {
	s := rep.Summary
	return fmt.Sprintf("%d cells: %d masked, %d detected, %d sdc, %d crash",
		s.Total, s.Masked, s.Detected, s.SDC, s.Crash)
}

func main() {
	os.Exit(run())
}

// run is the command body. The named return keeps every exit on the return
// path, so deferred telemetry flushes (profiler, status server, run log)
// always happen — including on the SIGINT partial-report exit.
func run() (code int) {
	seed := flag.Int64("seed", 1, "campaign seed; same seed, same report")
	n := flag.Int("n", 32, "EVE parallelization factor (1,2,4,8,16,32)")
	kernels := flag.String("kernels", "", "comma-separated kernel names (default: whole suite)")
	full := flag.Bool("full", false, "use full-size workloads instead of the reduced suite")
	sites := flag.Int("sites", 16, "fault sites sampled per kernel")
	kinds := flag.String("kinds", "all", "fault kinds: all, or a comma list of bitflip,stuck-sa,wordline-drop")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines (results are identical at any count)")
	retry := flag.Bool("retry", false, "retry each failed cell once, recording the retry count")
	progress := flag.Bool("progress", false, "report per-cell progress and wall time on stderr")
	maxCycles := flag.Int("max-uprog-cycles", 0, "per-micro-program watchdog budget (0: default)")
	verify := flag.Bool("verify-baseline", true, "require the fault-free baseline to reproduce the golden run")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	statusAddr := flag.String("status", "", "serve live /status, /metrics and /debug/pprof/ on this address (e.g. 127.0.0.1:8321; default off)")
	logJSON := flag.String("log-json", "", "append one JSON line per lifecycle event to this file (\"-\" for stderr)")
	prof := telemetry.NewProfiler(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	suite := workloads.Small()
	if *full {
		suite = workloads.Default()
	}
	ks, err := workloads.Select(suite, *kernels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}
	kindList, err := faults.ParseKinds(*kinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 2
	}

	// ^C / SIGTERM cancels the campaign through the sweep context: finished
	// cells are kept and the partial report is still flushed as valid JSON.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := faults.Config{
		System:         sim.Config{Kind: sim.SysO3EVE, N: *n, MaxUProgCycles: *maxCycles},
		Kernels:        ks,
		SitesPerKernel: *sites,
		Kinds:          kindList,
		Seed:           *seed,
		Workers:        *parallel,
		RetryOnce:      *retry,
		VerifyBaseline: *verify,
		Context:        ctx,
	}
	if *progress {
		cfg.Observer = sweep.NewProgress(os.Stderr)
	}
	// The telemetry chain wraps the progress printer; observers by contract
	// never touch a Result, so enabling them cannot change a report byte.
	var logger *telemetry.Logger
	if *logJSON != "" {
		logOut := io.Writer(os.Stderr)
		if *logJSON != "-" {
			lf, err := os.OpenFile(*logJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "eve-faults:", err)
				return 2
			}
			defer func() { _ = lf.Close() }()
			logOut = lf
		}
		logger = telemetry.NewLogger(logOut, cfg.Observer)
		cfg.Observer = logger
		stopWatch := telemetry.WatchSignals(logger, os.Interrupt, syscall.SIGTERM)
		defer stopWatch()
		defer func() {
			if err := logger.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "eve-faults: run log:", err)
			}
		}()
	}
	if *statusAddr != "" {
		counters := telemetry.NewCounters(cfg.Observer)
		cfg.Observer = counters
		srv, err := telemetry.Serve(*statusAddr, counters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			return 2
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/status\n", srv.Addr())
	}
	fmt.Fprintf(os.Stderr, "injecting %d sites x %d kernels on %s (seed %d, %d workers)...\n",
		*sites, len(ks), cfg.System.Name(), *seed, *parallel)

	rep, err := faults.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 1
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			return 1
		}
		w = f
	}
	if err := emitReport(w, rep); err != nil {
		fmt.Fprintln(os.Stderr, "eve-faults:", err)
		return 1
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eve-faults:", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, summarize(rep))
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "eve-faults: interrupted; the report above covers only the cells that finished")
		return 130
	}
	return 0
}
