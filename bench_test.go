package hpbrcu_test

// The paper's figures are measured by cmd/smrbench over internal/bench's
// registry, in wall-clock mode, and nowhere else. What stays here are the
// testing.B views the registry has no counterpart for: the per-node cost
// of a long read, the fixed cost of a point read and of a point write, and
// the per-operation cost of the two O(log n) descents, each with nothing
// else running.

import (
	"fmt"
	"testing"
	"time"

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

// BenchmarkPointGet is the per-operation cost of a point read, scheme by
// scheme, from one goroutine: a Get of a uniform key on a HashMap of 4 096
// keys kept half full (every even key), the map the frozen benchmark's
// point_read_mostly workload builds, without its facade and production
// posture. About two nodes a Get, so it is the fixed cost of an operation —
// entering and leaving the section, the traversal's Try and Conclude — that
// this measures: the in-tree view of that benchmark's ds.get_ns rows. The
// HP-BRCU/facade row is that workload's own path: the handle-free Get, in
// the production posture (PanicRecover and backpressure on), so
// the pooled checkout, Enter/Exit and the facade's deferred
// checkin are in it — its distance to the HP-BRCU row is what the posture
// and the facade add.
func BenchmarkPointGet(b *testing.B) {
	const keyRange = 1 << 12
	fill := func(insert func(k int64)) {
		for k := int64(0); k < keyRange; k += 2 {
			insert(k)
		}
	}
	run := func(b *testing.B, get func(k int64) (int64, bool)) {
		rng := uint64(0x9E3779B97F4A7C15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k := int64(rng % keyRange)
			if v, ok := get(k); ok != (k%2 == 0) || ok && v != k {
				b.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
			}
		}
	}
	for _, s := range []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU, hpbrcu.RCU, hpbrcu.NBR, hpbrcu.HP} {
		b.Run(s.String(), func(b *testing.B) {
			m, ok := bench.NewMap(bench.HashMap, s, keyRange, hpbrcu.Config{})
			if !ok {
				b.Skip("unsupported")
			}
			h := m.Register()
			defer h.Unregister()
			fill(func(k int64) { h.Insert(k, k) })
			run(b, h.Get)
		})
	}
	b.Run("HP-BRCU/facade", func(b *testing.B) {
		m, _ := bench.NewMap(bench.HashMap, hpbrcu.HPBRCU, keyRange, hpbrcu.Config{
			PanicPolicy:  hpbrcu.PanicRecover,
			Reaper:       hpbrcu.ReaperConfig{Enabled: true},
			Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		})
		defer hpbrcu.Close(m, 5*time.Second)
		fill(func(k int64) { m.Insert(k, k) })
		run(b, func(k int64) (int64, bool) {
			v, ok, err := m.Get(k)
			if err != nil {
				b.Fatal(err)
			}
			return v, ok
		})
	})
}

// BenchmarkPointChurn is BenchmarkPointGet's map and rows doing an Insert
// or a Remove of a uniform key, half and half, instead of a Get: the fixed
// cost of a write — its find, the CAS, the node's allocation or
// retirement — and the in-tree view of the frozen benchmark's
// ds.insert_remove_ns row (its HP-BRCU/facade row, of write_churn's path).
func BenchmarkPointChurn(b *testing.B) {
	const keyRange = 1 << 12
	run := func(b *testing.B, insert func(k int64), remove func(k int64)) {
		for k := int64(0); k < keyRange; k += 2 {
			insert(k)
		}
		rng := uint64(0x9E3779B97F4A7C15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if k := int64(rng % keyRange); rng>>63 == 0 {
				insert(k)
			} else {
				remove(k)
			}
		}
	}
	for _, s := range []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU, hpbrcu.RCU, hpbrcu.NBR, hpbrcu.HP} {
		b.Run(s.String(), func(b *testing.B) {
			m, ok := bench.NewMap(bench.HashMap, s, keyRange, hpbrcu.Config{})
			if !ok {
				b.Skip("unsupported")
			}
			h := m.Register()
			defer h.Unregister()
			run(b, func(k int64) { h.Insert(k, k) }, func(k int64) { h.Remove(k) })
		})
	}
	b.Run("HP-BRCU/facade", func(b *testing.B) {
		m, _ := bench.NewMap(bench.HashMap, hpbrcu.HPBRCU, keyRange, hpbrcu.Config{
			PanicPolicy:  hpbrcu.PanicRecover,
			Reaper:       hpbrcu.ReaperConfig{Enabled: true},
			Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		})
		defer hpbrcu.Close(m, 5*time.Second)
		check := func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		}
		run(b, func(k int64) {
			_, err := m.Insert(k, k)
			check(err)
		}, func(k int64) {
			_, _, err := m.Remove(k)
			check(err)
		})
	})
}

// BenchmarkDescent is the per-operation cost of the two structures whose
// operations are one short descent — the skip list (Figure 7d) and the NM
// tree (7c) — scheme by scheme, from one goroutine, on a 10 000-key range
// kept half full: get is a Get of a uniform key, insrem an Insert or a
// Remove of one, half and half. No benchmark/ workload reaches either
// structure; this and `smrbench fig7` are their perf coverage.
func BenchmarkDescent(b *testing.B) {
	const keyRange = 10000
	for _, st := range []struct {
		st      bench.Structure
		schemes []hpbrcu.Scheme
	}{
		{bench.SkipList, []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU, hpbrcu.RCU, hpbrcu.HP}},
		{bench.NMTree, []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU, hpbrcu.RCU, hpbrcu.NBR}},
	} {
		for _, s := range st.schemes {
			for _, op := range []string{"get", "insrem"} {
				b.Run(fmt.Sprintf("%s/%s/%s", st.st, s, op), func(b *testing.B) {
					m, ok := bench.NewMap(st.st, s, keyRange, hpbrcu.Config{})
					if !ok {
						b.Skip("unsupported")
					}
					h := m.Register()
					defer h.Unregister()
					rng := uint64(0x9E3779B97F4A7C15)
					next := func() uint64 {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						return rng
					}
					for n := 0; n < keyRange/2; {
						if k := int64(next() % keyRange); h.Insert(k, k) {
							n++
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r := next()
						k := int64(r % keyRange)
						switch {
						case op == "get":
							if v, ok := h.Get(k); ok && v != k {
								b.Fatalf("Get(%d) = %d", k, v)
							}
						case r>>63 == 0:
							h.Insert(k, k)
						default:
							h.Remove(k)
						}
					}
				})
			}
		}
	}
}
