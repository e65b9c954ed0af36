package isa

// Instr is one dynamic vector instruction as seen by a timing model.
type Instr struct {
	Op     Op
	Kind   OperandKind
	Vd     int
	Vs1    int
	Vs2    int
	Scalar uint32 // scalar operand or immediate for KindVX
	Masked bool
	VL     int // active vector length at issue

	// Memory operands.
	Addr   uint64   // base address (unit-stride and strided)
	Stride int64    // byte stride (strided)
	Addrs  []uint64 // resolved element addresses (indexed only)
}

// EventKind distinguishes trace events.
type EventKind int

// Trace event kinds. Scalar events are batched: N consecutive simple ops
// collapse into one event with a count, which keeps traces compact without
// losing timing information for width-limited core models.
const (
	EvScalar    EventKind = iota // N simple integer/branch ops
	EvScalarMul                  // N multiply/divide ops
	EvLoad                       // one scalar load at Addr
	EvStore                      // one scalar store at Addr
	EvVector                     // one vector instruction
)

// Event is one entry of the dynamic trace.
type Event struct {
	Kind EventKind
	N    int
	Addr uint64
	V    *Instr // the vector instruction (EvVector); valid only during Emit
}

// Sink consumes the dynamic trace as it is generated. Timing models
// implement Sink; a nil sink runs the workload functionally only.
//
// Emit must not retain ev.V: the Builder reuses one Instr for every vector
// instruction, so the pointer is only valid during the call. A sink that
// records the trace copies *ev.V.
type Sink interface {
	Emit(ev Event)
}

// Mix accumulates the instruction characterization of Table IV.
type Mix struct {
	ScalarOps   uint64 // dynamic scalar instructions
	ScalarMuls  uint64
	ScalarLoads uint64
	ScalarStore uint64

	VectorInstrs uint64               // dynamic vector instructions
	VectorOps    uint64               // Σ active VL over vector instructions
	Predicated   uint64               // masked vector instructions
	ByClass      [ClassIdx + 1]uint64 // dynamic count per class
}

// DynamicInstrs reports total dynamic instructions (scalar + vector).
func (m Mix) DynamicInstrs() uint64 {
	return m.ScalarOps + m.ScalarMuls + m.ScalarLoads + m.ScalarStore + m.VectorInstrs
}

// TotalOps reports Table IV's DOp: scalar instructions plus vector
// instructions weighted by their active vector length.
func (m Mix) TotalOps() uint64 {
	return m.ScalarOps + m.ScalarMuls + m.ScalarLoads + m.ScalarStore + m.VectorOps
}

// VectorPct reports VI%: the share of dynamic instructions that are vector.
func (m Mix) VectorPct() float64 {
	d := m.DynamicInstrs()
	if d == 0 {
		return 0
	}
	return float64(m.VectorInstrs) / float64(d)
}

// VectorOpPct reports VO%: the share of operations performed by the vector
// unit.
func (m Mix) VectorOpPct() float64 {
	t := m.TotalOps()
	if t == 0 {
		return 0
	}
	return float64(m.VectorOps) / float64(t)
}

// LogicalParallelism reports VPar: total ops per dynamic instruction.
func (m Mix) LogicalParallelism() float64 {
	d := m.DynamicInstrs()
	if d == 0 {
		return 0
	}
	return float64(m.TotalOps()) / float64(d)
}
