package mem

import "testing"

// keyWithHome returns the first line address at or after from whose slot
// in t's current array is home, so operations can aim at one probe run: a
// shared home makes keys collide, the last slot makes their run wrap.
func keyWithHome(t *pendingTable, from uint64, home int) uint64 {
	if len(t.slots) == 0 {
		return from
	}
	for t.home(from+1) != home {
		from++
	}
	return from
}

// checkPending requires t to hold exactly ref's entries, each reachable
// from its home slot, within the ¾ load bound.
func checkPending(tb testing.TB, op int, t *pendingTable, ref map[uint64]int64) {
	tb.Helper()
	if t.len() != len(ref) {
		tb.Fatalf("op %d: len %d, reference %d", op, t.len(), len(ref))
	}
	if n := len(t.slots); n&(n-1) != 0 || 4*t.n > 3*n {
		tb.Fatalf("op %d: %d entries in %d slots", op, t.n, n)
	}
	occupied := 0
	for _, s := range t.slots {
		if s.key == 0 {
			continue
		}
		occupied++
		if _, ok := ref[s.key-1]; !ok {
			tb.Fatalf("op %d: slot holds line %#x, absent from the reference", op, s.key-1)
		}
	}
	if occupied != len(ref) {
		tb.Fatalf("op %d: %d occupied slots, reference %d", op, occupied, len(ref))
	}
	for line, want := range ref {
		if got, ok := t.get(line); !ok || got != want {
			tb.Fatalf("op %d: get(%#x) = %d, %v; reference %d", op, line, got, ok, want)
		}
	}
}

// FuzzPendingTable drives the outstanding-miss table and a Go map
// reference through the same byte-coded sequence of put, get, delete,
// bulk put and sweep operations, and requires identical contents after
// every one.
//
// Encoding: each 4-byte group is one operation. op[0] selects it; op[1]
// picks how the line address is formed from op[2] (a dense range, a key
// colliding with a dense one, a key homed in the last slot, or a sparse
// high address); op[3] is the completion time, small so sweeps find both
// completed and in-flight entries. The seed corpus is under
// testdata/fuzz/FuzzPendingTable.
func FuzzPendingTable(f *testing.F) {
	f.Fuzz(func(tb *testing.T, in []byte) {
		var t pendingTable
		ref := make(map[uint64]int64)
		for i, op := 0, in; len(op) >= 4; i, op = i+1, op[4:] {
			arg := uint64(op[2])
			var line uint64
			switch op[1] % 4 {
			case 0:
				line = arg % 64
			case 1:
				if len(t.slots) > 0 {
					line = keyWithHome(&t, 64+arg<<8, t.home(arg%64+1))
				}
			case 2:
				line = keyWithHome(&t, arg<<8, len(t.slots)-1)
			case 3:
				line = arg<<50 | uint64(op[3])
			}
			done := int64(op[3])
			switch op[0] % 8 {
			case 0, 1, 2:
				t.put(line, done)
				ref[line] = done
			case 3, 4:
				t.del(line)
				delete(ref, line)
			case 5:
				got, ok := t.get(line)
				want, wok := ref[line]
				if got != want || ok != wok {
					tb.Fatalf("op %d: get(%#x) = %d, %v; reference %d, %v", i, line, got, ok, want, wok)
				}
			case 6: // enough consecutive lines to force growth
				for k := uint64(0); k < arg; k++ {
					t.put(line+k, done+int64(k))
					ref[line+k] = done + int64(k)
				}
			case 7:
				t.sweep(done)
				for k, v := range ref {
					if v <= done {
						delete(ref, k)
					}
				}
			}
			checkPending(tb, i, &t, ref)
		}
	})
}

// TestPendingTableStartsEmpty pins that a cache which never misses pays
// nothing for the table, and that deleting from an empty table is safe.
func TestPendingTableStartsEmpty(t *testing.T) {
	c := NewCache(CacheConfig{Name: "c", SizeBytes: 1 << 14, Ways: 4, HitLatency: 2, MSHRs: 8}, DefaultDRAM())
	if c.outstanding.slots != nil {
		t.Fatalf("new cache holds %d table slots, want none", len(c.outstanding.slots))
	}
	c.outstanding.del(7)
	if _, ok := c.outstanding.get(7); ok || c.outstanding.len() != 0 {
		t.Fatal("empty table reports an entry")
	}
	c.Access(0, false, 0)
	if got := len(c.outstanding.slots); got != minPendingSlots {
		t.Fatalf("after one miss the table has %d slots, want %d", got, minPendingSlots)
	}
}
