package isa

// Datapath mirrors the builder's vector register file on an alternate
// functional substrate — in practice the bit-level EVE machine
// (internal/uprog over internal/circuits over internal/sram), optionally
// with faults armed (internal/faults).
//
// The builder remains the reference semantics: it computes every result in
// its golden registers first, then hands the instruction to the datapath
// and adopts the substrate's destination contents as the architectural
// result. A fault-free substrate must reproduce the golden values exactly
// (the micro-program correctness tests in internal/uprog hold that
// equivalence per operation); a faulty substrate makes its corruption
// architecturally visible to the kernel and its checker.
//
// Values leave the vector unit only through the builder — stores, scalar
// moves, gather/scatter addressing and VRU inputs — and the builder
// refreshes its mirror from the datapath at each of those points, so fault
// state that accumulated in a register since it was written is observed,
// not the stale mirror.
type Datapath interface {
	// Exec executes in on the substrate and returns the destination
	// register's live contents (HWVL elements). golden is the
	// builder-computed destination state; substrates install it directly
	// for operations the vector arrays do not execute natively (loads
	// arriving through the DTUs, VRU results, element-index streams).
	// Like Sink.Emit, Exec must not retain in past the call.
	Exec(in *Instr, golden []uint32) []uint32
	// Read returns the live contents of vector register r (HWVL elements).
	Read(r int) []uint32
}
