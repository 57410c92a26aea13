package brcu

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// BenchmarkAblationPollCost measures the per-step price of the cooperative
// neutralization substitute: one atomic load of the thread's own status
// word (DESIGN.md §5). This is the cost every traversal step pays instead
// of the paper's free-until-signalled execution.
func BenchmarkAblationPollCost(b *testing.B) {
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()
	h.Enter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.Poll() {
			b.Fatal("unexpected neutralization")
		}
	}
	b.StopTimer()
	h.Exit()
}

// BenchmarkEnterExit measures the critical-section boundary cost (two
// stores), the HP-BRCU analogue of RCU's pin/unpin.
func BenchmarkEnterExit(b *testing.B) {
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enter()
		h.Exit()
	}
}

// BenchmarkMaskEmpty measures the abort-masked region overhead: two CASes
// on the thread's own status word.
func BenchmarkMaskEmpty(b *testing.B) {
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()
	h.Enter()
	body := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Mask(body)
	}
	b.StopTimer()
	h.Exit()
}

// BenchmarkDeferThroughput measures the amortized defer+advance+collect
// pipeline under no contention.
func BenchmarkDeferThroughput(b *testing.B) {
	type node struct{ v int64 }
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, _ := pool.Alloc(cache)
		pool.Hdr(slot).Retire()
		h.Defer(slot, pool)
	}
}
