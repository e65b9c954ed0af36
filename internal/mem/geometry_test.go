package mem

import (
	"strings"
	"testing"
)

// TestCacheGeometryValidation: NewCache rejects impossible geometries loudly
// at construction, with a message naming the cache and the broken parameter,
// instead of silently mis-indexing sets at simulation time.
func TestCacheGeometryValidation(t *testing.T) {
	dram := DefaultDRAM()
	cases := []struct {
		name    string
		cfg     CacheConfig
		wantMsg string // "" means the geometry must be accepted
	}{
		{"valid-direct-mapped", CacheConfig{Name: "l1", SizeBytes: 1 << 12, Ways: 1, HitLatency: 1, MSHRs: 2}, ""},
		{"valid-8way", CacheConfig{Name: "llc", SizeBytes: 1 << 21, Ways: 8, HitLatency: 20, MSHRs: 16}, ""},
		{"zero-ways", CacheConfig{Name: "l1", SizeBytes: 1 << 12, Ways: 0}, "ways; must be positive"},
		{"negative-ways", CacheConfig{Name: "l1", SizeBytes: 1 << 12, Ways: -2}, "ways; must be positive"},
		{"zero-size", CacheConfig{Name: "l1", SizeBytes: 0, Ways: 2}, "sets; must be a positive power of two"},
		{"size-below-one-set", CacheConfig{Name: "l1", SizeBytes: LineBytes, Ways: 2}, "sets; must be a positive power of two"},
		{"non-pow2-sets", CacheConfig{Name: "l1", SizeBytes: 3 * LineBytes, Ways: 1}, "sets; must be a positive power of two"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if tc.wantMsg == "" {
					if r != nil {
						t.Fatalf("valid geometry rejected: %v", r)
					}
					return
				}
				if r == nil {
					t.Fatalf("invalid geometry %+v accepted", tc.cfg)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value is %T, want string", r)
				}
				if !strings.Contains(msg, tc.wantMsg) || !strings.Contains(msg, tc.cfg.Name) {
					t.Errorf("panic %q does not name %q and %q", msg, tc.cfg.Name, tc.wantMsg)
				}
			}()
			c := NewCache(tc.cfg, dram)
			if c.Name() != tc.cfg.Name {
				t.Errorf("Name() = %q, want %q", c.Name(), tc.cfg.Name)
			}
		})
	}
}

// TestFlatAccessErrorFields: out-of-range accesses panic with a typed
// *AccessError carrying the offending address, length, and capacity — the
// fields fault campaigns rely on to diagnose wild gathers.
func TestFlatAccessErrorFields(t *testing.T) {
	const capacity = 1 << 10
	cases := []struct {
		name string
		addr uint64
		do   func(f *Flat, addr uint64)
	}{
		{"load-past-end", capacity, func(f *Flat, a uint64) { f.LoadU32(a) }},
		{"load-straddles-end", capacity - 2, func(f *Flat, a uint64) { f.LoadU32(a) }},
		{"store-wild", 1 << 40, func(f *Flat, a uint64) { f.StoreU32(a, 1) }},
		{"null-page", 0, func(f *Flat, a uint64) { f.LoadU32(a) }},
		{"store-past-end", capacity, func(f *Flat, a uint64) { f.StoreU32(a, 1) }},
		{"store-straddles-end", capacity - 3, func(f *Flat, a uint64) { f.StoreU32(a, 1) }},
		{"store-null-page", 0, func(f *Flat, a uint64) { f.StoreU32(a, 1) }},
		{"store-below-64", 63, func(f *Flat, a uint64) { f.StoreU32(a, 1) }},
		{"store-wraps", ^uint64(0) - 1, func(f *Flat, a uint64) { f.StoreU32(a, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := NewFlat(capacity)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("out-of-range access did not panic")
				}
				ae, ok := r.(*AccessError)
				if !ok {
					t.Fatalf("panic value is %T, want *AccessError", r)
				}
				if ae.Addr != tc.addr {
					t.Errorf("Addr = %#x, want %#x", ae.Addr, tc.addr)
				}
				if ae.Len != 4 {
					t.Errorf("Len = %d, want 4", ae.Len)
				}
				if ae.Cap != capacity {
					t.Errorf("Cap = %#x, want %#x", ae.Cap, uint64(capacity))
				}
				if !strings.Contains(ae.Error(), "out of bounds") {
					t.Errorf("Error() = %q lacks the out-of-bounds diagnosis", ae.Error())
				}
			}()
			tc.do(f, tc.addr)
		})
	}
}
