package metrics

import (
	"fmt"

	"repro/internal/probe"
)

// cacheLevels are the snapshot prefixes of the simulated cache levels.
var cacheLevels = []string{"l1d", "l2", "llc"}

// CheckLaws returns one message per conservation law the snapshot breaks,
// or nil when every law holds. The laws need no golden: at every cache
// level each access is exactly one hit or one miss, and a merged miss is a
// kind of miss. A level absent from the snapshot (a crashed cell's empty
// one) has nothing to check.
func CheckLaws(st probe.Stats) []string {
	var out []string
	for _, lvl := range cacheLevels {
		acc, ok := st.Int(lvl + ".accesses")
		if !ok {
			continue
		}
		hits, _ := st.Int(lvl + ".hits")
		misses, _ := st.Int(lvl + ".misses")
		merged, _ := st.Int(lvl + ".merged_misses")
		if hits+misses != acc {
			out = append(out, fmt.Sprintf("%s: hits %d + misses %d != accesses %d", lvl, hits, misses, acc))
		}
		if merged > misses {
			out = append(out, fmt.Sprintf("%s: merged_misses %d > misses %d", lvl, merged, misses))
		}
	}
	return out
}
