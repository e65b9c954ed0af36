package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// pinReference regenerates testdata/reference.json from the simulator as
// it stands: the seed-0 cells of scalar-default and vector-default, and a
// faults.Run campaign over fault-datapath's kernels and sites. Only run it
// when a change to the timing model is intended; otherwise a moved number
// is a bug the reference exists to catch.
func pinReference(root string, stderr io.Writer) error {
	ref := reference{Cells: make(map[string][]refCell)}
	for _, name := range []string{wScalarDefault, wVectorDefault} {
		w, err := buildWorkload(name, 0, nil)
		if err != nil {
			return err
		}
		results, err := sweep.ForEach(w.sweepCells(), sweep.Options{Workers: 2})
		if err != nil {
			return err
		}
		for _, r := range results {
			c, err := record(r, false)
			if err != nil {
				return err
			}
			ref.Cells[name] = append(ref.Cells[name], c)
		}
		fmt.Fprintf(stderr, "perfbench: pinned %d %s cells\n", len(results), name)
	}
	rep, err := faults.Run(faults.Config{
		System:         faultSystem,
		Kernels:        workloads.Small(),
		SitesPerKernel: sitesPerKernel,
		Kinds:          allKinds,
		Workers:        2,
		VerifyBaseline: true,
	})
	if err != nil {
		return err
	}
	ref.Faults = rep
	fmt.Fprintf(stderr, "perfbench: pinned %d fault cells %+v\n", rep.Summary.Total, rep.Summary)
	blob, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "testdata", "reference.json"), append(blob, '\n'), 0o644)
}
