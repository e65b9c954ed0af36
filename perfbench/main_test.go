package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sweep"
)

// benchSpec is the part of BENCHMARK.json the tests hold the output to.
type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortRun is a run of a workload's first few cells for zero seconds:
// the two passes every run makes.
func shortRun(t *testing.T, workload string, seed int64, trace bool, root string, ref []byte) (int, string, string, result) {
	t.Helper()
	o := options{
		workload: workload, seed: seed, trace: trace, root: root, ref: ref, maxCells: 2,
	}
	var stdout, stderr bytes.Buffer
	code := execute(o, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v\nstderr: %s", workload, lines[len(lines)-1], err, stderr.String())
	}
	return code, stdout.String(), stderr.String(), res
}

// TestEveryMetricPrinted holds every workload's output, end-to-end and
// traced, to the metric names and units BENCHMARK.json declares, at seed 0
// and at a nonzero seed.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, w := range workloadNames {
		for _, run := range []struct {
			seed  int64
			trace bool
		}{{0, false}, {7, false}, {0, true}} {
			code, out, stderr, res := shortRun(t, w, run.seed, run.trace, "..", referenceJSON)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s seed %d trace %v: exit %d, result %+v\nstderr: %s", w, run.seed, run.trace, code, res, stderr)
			}
			want := spec.EndToEnd
			if run.trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json has %d", w, run.trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w, run.trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name+" ") {
					t.Errorf("%s trace %v: %s has no report line", w, run.trace, m.Name)
				}
			}
			if !strings.Contains(out, "failed_frac") || !strings.Contains(out, `"gomaxprocs"`) {
				t.Errorf("%s: report lacks failed_frac or the host facts:\n%s", w, out)
			}
		}
	}
}

// TestCorruptedReferenceIsCaught moves one pinned number per workload and
// expects the run to count the cell as failed and exit non-zero.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	parsed, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		root, blob := "..", referenceJSON
		switch w {
		case wMatrixSmall:
			root = corruptBaseline(t)
		case wFaultDatapath:
			bad := *parsed.Faults
			bad.Kernels = append([]faults.KernelReport(nil), bad.Kernels...)
			bad.Kernels[0].Cells = append([]faults.CellResult(nil), bad.Kernels[0].Cells...)
			bad.Kernels[0].Cells[0].Outcome = faults.SDC
			blob = mustJSON(t, reference{Cells: parsed.Cells, Faults: &bad})
		default:
			cells := map[string][]refCell{}
			for k, v := range parsed.Cells {
				cells[k] = append([]refCell(nil), v...)
			}
			cells[w][0].Cycles++
			blob = mustJSON(t, reference{Cells: cells, Faults: parsed.Faults})
		}
		code, _, stderr, res := shortRun(t, w, 0, false, root, blob)
		if code == 0 || res.Correct || res.Failed == 0 || !strings.Contains(stderr, "FAIL ") {
			t.Errorf("%s: corrupted reference not caught: exit %d, result %+v\nstderr: %s", w, code, res, stderr)
		}
	}
}

// corruptBaseline copies bench/baseline.json into a fresh root with the
// first cell's cycles moved by one.
func corruptBaseline(t *testing.T) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "bench", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]any
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatal(err)
	}
	cell := base["simulated"].(map[string]any)["cells"].([]any)[0].(map[string]any)
	cell["cycles"] = cell["cycles"].(float64) + 1
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "bench", "baseline.json"), mustJSON(t, base), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestReplayFidelity runs the traced measurement on a few cells of every
// workload; every layer replay must pass its fidelity check, so no layer
// may be reported invalid.
func TestReplayFidelity(t *testing.T) {
	for _, w := range workloadNames {
		code, out, stderr, res := shortRun(t, w, 0, true, "..", referenceJSON)
		if code != 0 || res.Failed != 0 {
			t.Errorf("%s: exit %d, result %+v\nstderr: %s", w, code, res, stderr)
		}
		if strings.Contains(out, "INVALID") {
			t.Errorf("%s: a replay failed its fidelity check:\n%s", w, out)
		}
	}
}

// TestWorkerCountIdentity runs the first cells of every workload at 1 and
// at 2 workers; the simulated output must be byte-identical.
func TestWorkerCountIdentity(t *testing.T) {
	parsed, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 0, parsed)
		if err != nil {
			t.Fatal(err)
		}
		w.cells = w.cells[:min(4, len(w.cells))]
		var outs [2][]byte
		for i, workers := range []int{1, 2} {
			results, _ := sweep.ForEach(w.sweepCells(), sweep.Options{Workers: workers})
			var b bytes.Buffer
			for j, r := range results {
				c, err := record(r, true)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %v %s\n", mustJSON(t, c), r.Err, r.Stats.Summary())
				if f := w.cells[j].fault; f != nil {
					fmt.Fprintf(&b, "outcome %v\n", faults.Classify(r.Err, r.MemChecksum, w.cells[j].baseSum))
				}
			}
			outs[i] = b.Bytes()
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("%s: simulated output differs between 1 and 2 workers", name)
		}
	}
}
