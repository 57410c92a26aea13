package alloc

import (
	"math/rand"
	"testing"
)

type benchNode struct {
	key  int64
	next uint64
	pad  [5]uint64
}

// BenchmarkAblationSlotDeref measures the cost of the slot-indirection
// design (DESIGN.md §5): resolving a packed slot index to a node is a
// slab-pointer load plus two index operations, versus a plain pointer
// dereference. The slots here are independent of one another, so this is
// throughput; BenchmarkAt is the latency a traversal pays.
func BenchmarkAblationSlotDeref(b *testing.B) {
	p := NewPool[benchNode]()
	c := p.NewCache()
	const n = 1 << 16
	slots := make([]uint64, n)
	for i := range slots {
		s, nd := p.Alloc(c)
		nd.key = int64(i)
		slots[i] = s
	}
	b.Run("slot-indirect", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += p.At(slots[i&(n-1)]).key
		}
		_ = sum
	})
	b.Run("raw-pointer", func(b *testing.B) {
		ptrs := make([]*benchNode, n)
		for i, s := range slots {
			ptrs[i] = p.At(s)
		}
		var sum int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum += ptrs[i&(n-1)].key
		}
		_ = sum
	})
}

// BenchmarkAllocFree measures the pooled allocation round trip (Alloc,
// Retire, FreeLocal) from GOMAXPROCS goroutines on one pool, each with its
// own cache: the ledger's alloc.alloc_free_ns row. Run it at -cpu 1,2 —
// from two goroutines, any word the round trip writes outside the node's
// own header is a contended cache line.
func BenchmarkAllocFree(b *testing.B) {
	p := NewPool[benchNode]()
	b.RunParallel(func(pb *testing.PB) {
		c := p.NewCache()
		for pb.Next() {
			s, _ := p.Alloc(c)
			p.Hdr(s).Retire()
			p.FreeLocal(c, s)
		}
	})
}

// BenchmarkAt is the latency of At on a dependent chain — each node holds
// the slot of the next, as a list's link does — over 256 nodes (L1-resident)
// of the first slab, of the second, and of both in random alternation. The
// first two differ by the table load that the first slab keeps off the
// chain; the third is the accessor's worst case, a structure spread over
// exactly slabs 0 and 1 so that its branch cannot be predicted
// (DESIGN.md §11.1).
func BenchmarkAt(b *testing.B) {
	p := NewPool[benchNode]()
	c := p.NewCache()
	const chain = 2048
	var slots [2][]uint64 // per slab
	for i := 0; i < 2*slabSize; i++ {
		s, _ := p.Alloc(c)
		if si := (s - 1) >> slabBits; len(slots[si]) < chain {
			slots[si] = append(slots[si], s)
		}
	}
	// ring links the slots into a cycle in the given order and returns its
	// first slot.
	ring := func(order []uint64) uint64 {
		for i, s := range order {
			p.At(s).next = order[(i+1)%len(order)]
		}
		return order[0]
	}
	var mixed []uint64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < chain; i++ {
		mixed = append(mixed, slots[rng.Intn(2)][i])
	}
	for _, bc := range []struct {
		name  string
		order []uint64
	}{{"slab0", slots[0]}, {"slab1", slots[1]}, {"mixed", mixed}} {
		b.Run(bc.name, func(b *testing.B) {
			s := ring(bc.order)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = p.At(s).next
			}
			sink = s
		})
	}
}

var sink uint64
