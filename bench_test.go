package hpbrcu_test

// The paper's figures are measured by cmd/smrbench over internal/bench's
// registry, in wall-clock mode, and nowhere else. What stays here is the
// one testing.B view the registry has no counterpart for: the per-node
// cost of a long read with nothing else running.

import (
	"fmt"
	"testing"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
)

// BenchmarkStep is the per-node cost of a long read, scheme by scheme, with
// nothing else running. At nodes=4096 one iteration is Get(4096) on the
// list the frozen benchmark's long_scan workload builds (4 096 nodes at the
// even keys below 2^13), which visits 2 049 nodes, all in the allocator's
// first slab: the in-tree view of that benchmark's core.step_ns rows —
// `go test -run '^$' -bench Step .` — reporting ns/step next to ns/op. At
// nodes=16384 the list fills two slabs and Get(max key) visits all of it,
// half its nodes past the first slab, where a slot costs a dependent table
// load more (DESIGN.md §11.1): the difference between the two sizes is that
// knee, plus what a list four times as long costs the caches.
func BenchmarkStep(b *testing.B) {
	for _, size := range []struct{ keyRange, key, steps int64 }{
		{1 << 13, 1 << 12, 1<<11 + 1},
		{1 << 15, 1<<15 - 2, 1 << 14},
	} {
		for _, s := range []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU, hpbrcu.RCU, hpbrcu.NBR, hpbrcu.HP} {
			b.Run(fmt.Sprintf("nodes=%d/%s", size.keyRange/2, s), func(b *testing.B) {
				m, ok := bench.NewMap(bench.LongScanStructureFor(s), s, size.keyRange, hpbrcu.Config{})
				if !ok {
					b.Skip("unsupported")
				}
				h := m.Register()
				defer h.Unregister()
				for k := size.keyRange - 2; k >= 0; k -= 2 {
					h.Insert(k, k)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v, ok := h.Get(size.key); !ok || v != size.key {
						b.Fatalf("Get(%d) = (%d,%v)", size.key, v, ok)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size.steps), "ns/step")
			})
		}
	}
}
