package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// referenceJSON pins the seed-0 simulated results of scalar-default,
// vector-default and fault-datapath, generated with -pin from the
// simulator this benchmark was written against. matrix-small is pinned by
// the repository's bench/baseline.json instead.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference is the parsed pinned reference.
type reference struct {
	// Cells holds each sim workload's cells in workload order.
	Cells map[string][]refCell `json:"cells"`
	// Faults is the faults.Run report of the seed-0 fault-datapath cells.
	Faults *faults.Report `json:"faults"`
}

// refCell is the pinned record of one sim cell. Its fields follow
// eve-bench's simulated-cell schema (cmd/eve-bench SimCell), so
// bench/baseline.json decodes into it too; Derived is only present there.
type refCell struct {
	Kernel        string           `json:"kernel"`
	System        string           `json:"system"`
	Cycles        int64            `json:"cycles"`
	DynamicInstrs uint64           `json:"dynamic_instrs"`
	TotalOps      uint64           `json:"total_ops"`
	MemChecksum   string           `json:"mem_checksum"`
	Breakdown     map[string]int64 `json:"breakdown,omitempty"`
	Derived       json.RawMessage  `json:"derived,omitempty"`
}

func parseReference(blob []byte) (*reference, error) {
	var ref reference
	if err := json.Unmarshal(blob, &ref); err != nil {
		return nil, fmt.Errorf("pinned reference: %w", err)
	}
	return &ref, nil
}

// faultKernel finds one kernel's part of a faults report.
func faultKernel(rep *faults.Report, name string) (*faults.KernelReport, error) {
	for i := range rep.Kernels {
		if rep.Kernels[i].Kernel == name {
			return &rep.Kernels[i], nil
		}
	}
	return nil, fmt.Errorf("pinned faults report has no kernel %q", name)
}

// loadBaseline reads the simulated cells of bench/baseline.json, the
// eve-bench trajectory file that pins Small() × AllSystems(). The file is
// only read, never written.
func loadBaseline(root string) ([]refCell, error) {
	blob, err := os.ReadFile(filepath.Join(root, "bench", "baseline.json"))
	if err != nil {
		return nil, err
	}
	var base struct {
		Schema    string `json:"schema"`
		Simulated struct {
			Cells []refCell `json:"cells"`
		} `json:"simulated"`
	}
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("bench/baseline.json: %w", err)
	}
	if base.Schema != "eve-bench/v1" {
		return nil, fmt.Errorf("bench/baseline.json: schema %q, want eve-bench/v1", base.Schema)
	}
	return base.Simulated.Cells, nil
}

// record renders one result in the pinned schema; like eve-bench's
// toCell, the breakdown appears only for EVE cells.
func record(r sim.Result, derived bool) (refCell, error) {
	c := refCell{
		Kernel:        r.Kernel,
		System:        r.System,
		Cycles:        r.Cycles,
		DynamicInstrs: r.Mix.DynamicInstrs(),
		TotalOps:      r.Mix.TotalOps(),
		MemChecksum:   fmt.Sprintf("0x%016x", r.MemChecksum),
	}
	if r.Breakdown.Total() > 0 {
		c.Breakdown = make(map[string]int64)
		for _, s := range r.Stats.Filter("eve.breakdown.") {
			c.Breakdown[s.Name[len("eve.breakdown."):]] = s.Int
		}
	}
	if derived {
		blob, err := json.Marshal(metrics.Derive(r.Stats, r.Cycles))
		if err != nil {
			return c, err
		}
		c.Derived = blob
	}
	return c, nil
}

// checker judges every result of a workload: against the pinned reference
// at seed 0, by the kernel checker and pass-to-pass identity at any seed.
type checker struct {
	w     *workload
	pins  []refCell           // seed-0 sim cells, workload order
	fault *faults.Report      // seed-0 fault cells
	first map[int]fingerprint // each cell's first completed result
}

// fingerprint is what must repeat exactly from pass to pass.
type fingerprint struct {
	err      string
	cycles   int64
	checksum uint64
	ops      uint64
	stats    string
}

func fingerprintOf(r sim.Result) fingerprint {
	fp := fingerprint{cycles: r.Cycles, checksum: r.MemChecksum, ops: r.Mix.TotalOps(), stats: r.Stats.Summary()}
	if r.Err != nil {
		fp.err = r.Err.Error()
	}
	return fp
}

func newChecker(w *workload, ref *reference, root string) (*checker, error) {
	c := &checker{w: w, first: make(map[int]fingerprint)}
	if w.seed != 0 {
		return c, nil
	}
	switch w.name {
	case wMatrixSmall:
		cells, err := loadBaseline(root)
		if err != nil {
			return nil, err
		}
		c.pins = cells
	case wFaultDatapath:
		c.fault = ref.Faults
	default:
		c.pins = ref.Cells[w.name]
	}
	if c.fault == nil {
		// A workload cut short for a test checks the pins of its cells.
		if len(c.pins) < len(w.cells) {
			return nil, fmt.Errorf("%s: reference pins %d cells, workload has %d", w.name, len(c.pins), len(w.cells))
		}
		c.pins = c.pins[:len(w.cells)]
	}
	return c, nil
}

// check returns why cell i's result r is wrong, or "" when it is right.
func (c *checker) check(i int, r sim.Result) string {
	cl := c.w.cells[i]
	if errors.Is(r.Err, sweep.ErrSkipped) {
		return "skipped by the sweep"
	}
	if cl.fault == nil && r.Err != nil {
		return "run failed: " + r.Err.Error()
	}
	fp := fingerprintOf(r)
	if prev, ok := c.first[i]; !ok {
		c.first[i] = fp
	} else if prev != fp {
		return fmt.Sprintf("not identical to its previous pass (cycles %d vs %d, checksum %#x vs %#x, err %q vs %q)",
			r.Cycles, prev.cycles, r.MemChecksum, prev.checksum, fp.err, prev.err)
	}
	if c.fault != nil {
		return c.checkFault(cl, r)
	}
	if c.pins != nil {
		return c.checkPin(c.pins[i], r)
	}
	return ""
}

func (c *checker) checkFault(cl cell, r sim.Result) string {
	kr, err := faultKernel(c.fault, cl.kernel.Name)
	if err != nil {
		return err.Error()
	}
	for _, want := range kr.Cells {
		if want.Fault != *cl.fault {
			continue
		}
		got := faults.Classify(r.Err, r.MemChecksum, cl.baseSum)
		switch {
		case got != want.Outcome:
			return fmt.Sprintf("outcome %v, pinned %v", got, want.Outcome)
		case r.Cycles != want.Cycles:
			return fmt.Sprintf("cycles %d, pinned %d", r.Cycles, want.Cycles)
		case r.MemChecksum != want.Checksum:
			return fmt.Sprintf("mem_checksum %#x, pinned %#x", r.MemChecksum, want.Checksum)
		}
		return ""
	}
	return "fault site not in the pinned report"
}

func (c *checker) checkPin(want refCell, r sim.Result) string {
	got, err := record(r, want.Derived != nil)
	if err != nil {
		return err.Error()
	}
	switch {
	case got.Kernel != want.Kernel || got.System != want.System:
		return fmt.Sprintf("reference cell is %s/%s", want.Kernel, want.System)
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, pinned %d", got.Cycles, want.Cycles)
	case got.MemChecksum != want.MemChecksum:
		return fmt.Sprintf("mem_checksum %s, pinned %s", got.MemChecksum, want.MemChecksum)
	case got.TotalOps != want.TotalOps || got.DynamicInstrs != want.DynamicInstrs:
		return fmt.Sprintf("ops %d/%d instrs, pinned %d/%d", got.TotalOps, got.DynamicInstrs, want.TotalOps, want.DynamicInstrs)
	case !reflect.DeepEqual(got.Breakdown, want.Breakdown):
		return fmt.Sprintf("breakdown %v, pinned %v", got.Breakdown, want.Breakdown)
	}
	if want.Derived != nil {
		g, err1 := decodeNumbers(got.Derived)
		w, err2 := decodeNumbers(want.Derived)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("derived metrics %s, pinned %s", got.Derived, want.Derived)
		}
	}
	return ""
}

// decodeNumbers decodes JSON keeping numeric literals verbatim, the form
// eve-bench's canonical JSON compares in.
func decodeNumbers(blob []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}
