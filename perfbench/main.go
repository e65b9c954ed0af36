// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator for a fixed host-time budget, checks every
// simulated result, and prints the workload's metrics: end-to-end host
// metrics by default, per-layer metrics from a separate traced run with
// -trace 1. See README.md for the workloads, metrics and predictions.
//
//	perfbench -workload matrix-small -seed 0 -seconds 10 -trace 0
//	perfbench -pin        # regenerate testdata/reference.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong result makes the
// command exit 1 after printing it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation's parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: bench/baseline.json lives under it
	ref      []byte // pinned reference (the embedded one unless a test swaps it)
	maxCells int    // when positive, only the workload's first maxCells cells (tests)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 0, "input seed; 0 is the canonical, reference-pinned input")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of measured work (whole passes, at least two)")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.root, "root", ".", "repository root")
	pin := fs.Bool("pin", false, "regenerate testdata/reference.json under -root's perfbench directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace is 0 or 1, not %d\n", *trace)
		return 2
	}
	o.trace = *trace == 1
	o.ref = referenceJSON
	if *pin {
		if err := pinReference(o.root, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	return execute(o, stdout, stderr)
}

// execute runs one parsed invocation and returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if !res.Correct {
		return 1
	}
	return 0
}

// hostFacts identifies the machine a result was measured on, so results
// from different machines are never compared as a regression.
func hostFacts(workers int) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    workers,
	}
}

// runWorkload sets the workload up, then runs either the timed or the
// traced measurement, printing a human-readable report before the result.
func runWorkload(o options, stdout, stderr io.Writer) (*result, error) {
	s, err := setupRepeated(o, stderr)
	if err != nil {
		return nil, err
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	host, err := json.Marshal(map[string]any{"host": hostFacts(s.w.workers), "workload": o.workload, "seed": o.seed, "trace": o.trace})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", host)

	res := &result{Metrics: make(map[string]metric)}
	if o.trace {
		err = runTraced(s, o, res, out, stderr)
	} else {
		err = runTimed(s, o, res, stderr)
		res.Metrics["setup_s"] = metric{median(s.setupSeconds), "s"}
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && s.warmupErr == ""
	if s.warmupErr != "" {
		fmt.Fprintf(out, "FAIL warm-up %s: %s\n", s.w.cells[0].label(), s.warmupErr)
	}
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(out, "%-28s %14s  %s\n", "failed_frac", strconv.FormatFloat(failedFrac, 'g', 6, 64), "frac")
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-28s %14s  %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	return res, out.Flush()
}

// setup is everything built before the first timed cell.
type setup struct {
	w            *workload
	chk          *checker
	setupSeconds []float64
	warmupErr    string
}

// Set-up is repeated at least minSetups and at most maxSetups times, until
// setupBudget seconds are spent; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 0.5
)

// setupRepeated builds the workload, its checker and one untimed warm-up
// cell several times, timing each, and keeps the last.
func setupRepeated(o options, stderr io.Writer) (*setup, error) {
	var s *setup
	var secs []float64
	for spent := 0.0; len(secs) < minSetups || len(secs) < maxSetups && spent < setupBudget; {
		start := time.Now()
		var err error
		s, err = setupOnce(o)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		spent += secs[len(secs)-1]
	}
	s.setupSeconds = secs
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d cells, %d worker(s), set-up %v s\n",
		o.workload, o.seed, len(s.w.cells), s.w.workers, secs)
	return s, nil
}

func setupOnce(o options) (*setup, error) {
	ref, err := parseReference(o.ref)
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(o.workload, o.seed, ref)
	if err != nil {
		return nil, err
	}
	if o.maxCells > 0 && len(w.cells) > o.maxCells {
		w.cells = w.cells[:o.maxCells]
	}
	chk, err := newChecker(w, ref, o.root)
	if err != nil {
		return nil, err
	}
	s := &setup{w: w, chk: chk}
	// The warm-up cell is checked like any other, but against a scratch
	// pass-to-pass record so the timed passes start from a clean one.
	s.warmupErr = chk.check(0, w.cells[0].run())
	chk.first = make(map[int]fingerprint)
	return s, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
