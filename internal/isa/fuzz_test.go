package isa

import (
	"testing"
)

// staticEq compares the static (encodable) part of two instructions: the
// opcode, operand kind, registers and mask bit. Runtime payload (scalar
// values, addresses, VL) never round-trips through an encoding.
func staticEq(a, b *Instr) bool {
	return a.Op == b.Op && a.Kind == b.Kind &&
		a.Vd == b.Vd && a.Vs1 == b.Vs1 && a.Vs2 == b.Vs2 &&
		a.Masked == b.Masked
}

// FuzzDecode throws arbitrary 32-bit words at the decoder. Whatever Decode
// accepts must re-encode, and the re-encoded word must decode back to the
// same static instruction — the decoder defines the canonical form, so the
// round-trip has to be a fixed point. Decode must never panic, whatever
// the word.
func FuzzDecode(f *testing.F) {
	// Seed with every encodable operation in a few register/mask shapes,
	// plus near-miss words (wrong funct6, wrong opcode, scalar opcodes).
	for _, op := range encodableOps() {
		in := &Instr{Op: op, Vd: 1, Vs1: 2, Vs2: 3}
		if op == OpVId {
			in.Vs1 = 0
		}
		if op == OpMvSX {
			in.Kind = KindVX
		}
		if word, err := Encode(in); err == nil {
			f.Add(word)
		}
		in.Masked = true
		if word, err := Encode(in); err == nil {
			f.Add(word)
		}
	}
	f.Add(uint32(0))
	f.Add(uint32(0x57))         // OP-V with funct6=0, OPIVV
	f.Add(uint32(0xFFFFFFFF))   // all-ones
	f.Add(uint32(0x0B | 1<<12)) // vmfence
	f.Add(uint32(0x13))         // scalar addi — not a vector instruction

	f.Fuzz(func(t *testing.T, word uint32) {
		in, err := Decode(word)
		if err != nil {
			return // rejecting a word is fine; panicking is not
		}
		word2, err := Encode(in)
		if err != nil {
			t.Fatalf("Decode(%#x) = %+v, but Encode rejects it: %v", word, in, err)
		}
		in2, err := Decode(word2)
		if err != nil {
			t.Fatalf("Decode(Encode(Decode(%#x)) = %#x) failed: %v", word, word2, err)
		}
		if !staticEq(in, in2) {
			t.Errorf("decode/encode round-trip not a fixed point for %#x:\n first  %+v\n second %+v",
				word, in, in2)
		}
	})
}

// FuzzAssemble throws arbitrary strings at the assembler. Whatever
// Assemble accepts must disassemble to text that re-assembles to the same
// static instruction, and Assemble must never panic on malformed input.
func FuzzAssemble(f *testing.F) {
	// Seed with the disassembly of every encodable operation, masked and
	// unmasked, plus malformed near-misses.
	for _, op := range encodableOps() {
		in := &Instr{Op: op, Vd: 1, Vs1: 2, Vs2: 3}
		if op == OpVId {
			in.Vs1 = 0
		}
		if op == OpMvSX {
			in.Kind = KindVX
		}
		f.Add(Disassemble(in))
		in.Masked = true
		f.Add(Disassemble(in))
		in.Kind = KindVX
		f.Add(Disassemble(in))
	}
	f.Add("")
	f.Add("vadd.vv v1, v2")      // missing operand
	f.Add("vadd.vv v1, v2, v99") // bad register
	f.Add("vadd v1, v2, v3")     // no suffix
	f.Add("nonsense.vv v1, v2, v3")
	f.Add("vmv.x.s x_, v7")
	f.Add("vsetvli x0, x0, e32")
	f.Add("vmfence")

	f.Fuzz(func(t *testing.T, s string) {
		in, err := Assemble(s)
		if err != nil {
			return // rejecting a line is fine; panicking is not
		}
		text := Disassemble(in)
		in2, err := Assemble(text)
		if err != nil {
			t.Fatalf("Assemble(%q) = %+v, but its disassembly %q does not re-assemble: %v",
				s, in, text, err)
		}
		if !staticEq(in, in2) {
			t.Errorf("assemble/disassemble round-trip diverges for %q (via %q):\n first  %+v\n second %+v",
				s, text, in, in2)
		}
	})
}
