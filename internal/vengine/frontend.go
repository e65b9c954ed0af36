package vengine

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// QueueDepth is the number of committed vector instructions the queue
// between the control core and a decoupled vector engine holds (Table III:
// 16 entries, for both EVE's VCU queue and DV's dispatch queue). A full
// queue blocks the core's commit.
const QueueDepth = 16

// Queue models that dispatch queue as a fixed ring of the last QueueDepth
// dispatch times. The zero value is an empty queue.
type Queue struct {
	slots [QueueDepth]int64
	n     int // pushes so far
}

// Push records an instruction dispatched at t and returns the time the core
// may proceed past it: 0 while the queue has room, otherwise the dispatch
// time of the instruction QueueDepth pushes earlier, whose slot this one
// takes.
func (q *Queue) Push(t int64) int64 {
	slot := &q.slots[q.n%QueueDepth]
	block := *slot // zero until the ring has wrapped once
	*slot = t
	q.n++
	return block
}

// Occupancy reports how many queue slots are in use.
func (q *Queue) Occupancy() int { return min(q.n, QueueDepth) }

// Lines expands a vector memory instruction into the cacheline request
// stream a VMU issues (§V-A, §V-C). Unit and constant strides coalesce
// consecutive elements that share a line; indexed accesses generate one
// request per element, duplicates included. The stream is written over
// buf[:0] and returned, so a caller that passes back the previous result
// grows one backing array to its longest stream and then allocates nothing.
func Lines(buf []uint64, in *isa.Instr) []uint64 {
	out := buf[:0]
	switch in.Op {
	case isa.OpLoad, isa.OpStore:
		first := in.Addr / mem.LineBytes
		last := (in.Addr + uint64(4*in.VL) - 1) / mem.LineBytes
		for l := first; l <= last; l++ {
			//evelint:allow hotalloc -- amortized: the caller's buffer grows to the longest stream once, then reuses
			out = append(out, l*mem.LineBytes)
		}
	case isa.OpLoadStride, isa.OpStoreStride:
		prev := uint64(1) << 63 // above any line index
		for i := 0; i < in.VL; i++ {
			a := uint64(int64(in.Addr)+int64(i)*in.Stride) / mem.LineBytes
			if a != prev {
				//evelint:allow hotalloc -- amortized: the caller's buffer grows to the longest stream once, then reuses
				out = append(out, a*mem.LineBytes)
				prev = a
			}
		}
	default: // indexed
		for _, a := range in.Addrs {
			//evelint:allow hotalloc -- amortized: the caller's buffer grows to the longest stream once, then reuses
			out = append(out, a/mem.LineBytes*mem.LineBytes)
		}
	}
	return out
}
