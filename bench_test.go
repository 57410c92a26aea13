package hpbrcu_test

// The paper's figures are measured by cmd/smrbench over internal/bench's
// registry, in wall-clock mode, and nowhere else. What stays here is the
// one testing.B view the registry has no counterpart for: the per-node
// cost of a long read with nothing else running.

import (
	"testing"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
)

// BenchmarkStep is the per-node cost of a long read, scheme by scheme, with
// nothing else running: one iteration is Get(4096) on the list the frozen
// benchmark's long_scan workload builds (4 096 nodes at the even keys below
// 2^13), which visits 2 049 nodes. It is the in-tree view of that
// benchmark's core.step_ns rows — `go test -run '^$' -bench Step .` — and
// reports ns/step next to ns/op.
func BenchmarkStep(b *testing.B) {
	const keyRange, key, steps = 1 << 13, 1 << 12, 1<<11 + 1
	for _, s := range []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU, hpbrcu.RCU, hpbrcu.NBR, hpbrcu.HP} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			m, ok := bench.NewMap(bench.LongScanStructureFor(s), s, keyRange, hpbrcu.Config{})
			if !ok {
				b.Skip("unsupported")
			}
			h := m.Register()
			defer h.Unregister()
			for k := int64(keyRange - 2); k >= 0; k -= 2 {
				h.Insert(k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, ok := h.Get(key); !ok || v != key {
					b.Fatalf("Get(%d) = (%d,%v)", key, v, ok)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
		})
	}
}
