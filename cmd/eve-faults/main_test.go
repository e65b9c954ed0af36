package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestReportBytesDeterministic drives the CLI's campaign + emit path twice
// with the same seed at different worker counts and requires byte-identical
// JSON — the acceptance criterion the CI smoke job checks end to end.
func TestReportBytesDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		rep, err := faults.Run(faults.Config{
			System:         sim.Config{Kind: sim.SysO3EVE, N: 32},
			Kernels:        []*workloads.Kernel{workloads.NewVVAdd(512)},
			SitesPerKernel: 8,
			Seed:           7,
			Workers:        workers,
			VerifyBaseline: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := emitReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(1), run(4)
	if !bytes.Equal(a, b) {
		t.Fatal("report JSON differs between worker counts")
	}
	if !strings.Contains(string(a), `"summary"`) {
		t.Error("report JSON is missing the summary block")
	}
}

// TestSelectKernels resolves -kernels names against the suite and rejects unknowns.
func TestSelectKernels(t *testing.T) {
	suite := workloads.Small()
	all, err := workloads.Select(suite, "")
	if err != nil || len(all) != len(suite) {
		t.Fatalf("empty selection = %d kernels, %v; want whole suite", len(all), err)
	}
	two, err := workloads.Select(suite, "vvadd, k-means")
	if err != nil || len(two) != 2 || two[0].Name != "vvadd" || two[1].Name != "k-means" {
		t.Fatalf("Select(vvadd, k-means) = %v, %v", two, err)
	}
	if _, err := workloads.Select(suite, "no-such-kernel"); err == nil {
		t.Fatal("unknown kernel name accepted")
	}
}
