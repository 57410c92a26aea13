package alloc

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type testNode struct {
	key  int64
	next uint64
}

func TestAllocBasic(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()

	slot, n := p.Alloc(c)
	if slot == 0 {
		t.Fatal("slot 0 must be reserved")
	}
	if p.At(slot) != n {
		t.Fatal("At must resolve to the allocated node")
	}
	h := p.Hdr(slot)
	if h.State() != StateLive {
		t.Fatalf("fresh node state = %d, want Live", h.State())
	}
	n.key = 42
	if p.At(slot).key != 42 {
		t.Fatal("write through node pointer not visible via At")
	}
}

func TestAllocReuseBumpsVersion(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()

	slot, _ := p.Alloc(c)
	v0 := p.Hdr(slot).Version()
	p.Hdr(slot).Retire()
	p.FreeSlot(slot)
	if got := p.Hdr(slot).Version(); got != v0+1 {
		t.Fatalf("version after free = %d, want %d", got, v0+1)
	}

	// Drain the cache so the freed slot (on the shared freelist) must be
	// reused eventually.
	seen := map[uint64]bool{}
	for i := 0; i < 4*cacheBatch; i++ {
		s, _ := p.Alloc(c)
		seen[s] = true
	}
	if !seen[slot] {
		t.Fatalf("freed slot %d was not reused within %d allocations", slot, 4*cacheBatch)
	}
}

func TestAllocLifecyclePanics(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()
	slot, _ := p.Alloc(c)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("free-without-retire", func() { p.FreeSlot(slot) })
	p.Hdr(slot).Retire()
	mustPanic("double retire", func() { p.Hdr(slot).Retire() })
	p.FreeSlot(slot)
	mustPanic("double free", func() { p.FreeSlot(slot) })
	mustPanic("nil deref", func() { p.At(0) })
	mustPanic("nil header", func() { p.Hdr(0) })
}

func TestAllocStats(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()
	var slots []uint64
	for i := 0; i < 100; i++ {
		s, _ := p.Alloc(c)
		slots = append(slots, s)
	}
	if p.Allocated.Load() != 100 || p.Live.Load() != 100 {
		t.Fatalf("allocated=%d live=%d, want 100/100", p.Allocated.Load(), p.Live.Load())
	}
	for _, s := range slots[:40] {
		p.Hdr(s).Retire()
		p.FreeSlot(s)
	}
	if p.Freed.Load() != 40 || p.Live.Load() != 60 {
		t.Fatalf("freed=%d live=%d, want 40/60", p.Freed.Load(), p.Live.Load())
	}
	if p.Live.Peak() != 100 {
		t.Fatalf("live peak = %d, want 100", p.Live.Peak())
	}
}

func TestAllocFreeLocal(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()
	slot, _ := p.Alloc(c)
	p.Hdr(slot).Retire()
	p.FreeLocal(c, slot)
	// Local free means the very next alloc reuses the slot.
	s2, _ := p.Alloc(c)
	if s2 != slot {
		t.Fatalf("FreeLocal slot not reused first: got %d want %d", s2, slot)
	}
}

// TestAllocConcurrent races the two free paths: every fourth free goes
// through FreeSlot (the shared freelist, which other workers refill from),
// the rest through FreeLocal; no node may change owner while it is live.
func TestAllocConcurrent(t *testing.T) {
	p := NewPool[testNode]()
	const workers = 8
	const perWorker = 5000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			c := p.NewCache()
			var mine []uint64
			frees := 0
			free := func(s uint64) {
				p.Hdr(s).Retire()
				if frees++; frees%4 == 0 {
					p.FreeSlot(s)
				} else {
					p.FreeLocal(c, s)
				}
			}
			for i := 0; i < perWorker; i++ {
				s, n := p.Alloc(c)
				n.key = id
				mine = append(mine, s)
				if i%3 == 0 && len(mine) > 1 {
					// Free an old one.
					victim := mine[0]
					mine = mine[1:]
					if p.At(victim).key != id {
						t.Errorf("node %d stolen: key=%d want %d", victim, p.At(victim).key, id)
						return
					}
					free(victim)
				}
			}
			for _, s := range mine {
				free(s)
			}
		}(int64(w))
	}
	wg.Wait()
	if p.Live.Load() != 0 {
		t.Fatalf("leak: %d live nodes after teardown", p.Live.Load())
	}
	if p.Allocated.Load() != workers*perWorker {
		t.Fatalf("allocated=%d want %d", p.Allocated.Load(), workers*perWorker)
	}
}

func TestSlabGrowth(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()
	// Allocate across several slab boundaries and check addressing.
	n := 3*slabSize + 17
	keys := make(map[uint64]int64, n)
	for i := 0; i < n; i++ {
		s, node := p.Alloc(c)
		node.key = int64(i)
		keys[s] = int64(i)
	}
	for s, k := range keys {
		if p.At(s).key != k {
			t.Fatalf("slot %d: key %d want %d", s, p.At(s).key, k)
		}
	}
}

// tableAt is the slot resolution with no first-slab case: the reference
// At and Hdr must agree with for every slot.
func tableAt(p *Pool[testNode], slot uint64) *entry[testNode] {
	idx := slot - 1
	return &p.slabs[idx>>slabBits].entries[idx&slabMask]
}

// TestAtMatchesTable checks At and Hdr against the table on both sides of
// the slab-0 boundary and beyond, before the later slabs exist and after —
// growth must not move a node — and that the nil slot, whose index wraps
// past the first-slab test, still dies with the allocator's message.
func TestAtMatchesTable(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()
	check := func(when string, slots ...uint64) {
		t.Helper()
		for _, s := range slots {
			if e := tableAt(p, s); p.At(s) != &e.val || p.Hdr(s) != &e.hdr {
				t.Fatalf("%s: slot %d: At=%p Hdr=%p, table says %p %p", when, s, p.At(s), p.Hdr(s), &e.val, &e.hdr)
			}
		}
	}
	grow := func(upTo uint64) {
		for s := uint64(0); s < upTo; {
			var n *testNode
			s, n = p.Alloc(c)
			n.key = int64(s)
		}
	}

	grow(slabSize) // slots 1 … 8192: slab 0 exactly
	if p.slabs[1] != nil {
		t.Fatal("slab 1 materialized before slot 8193 was carved")
	}
	first := []uint64{1, slabSize - 1, slabSize}
	check("one slab", first...)
	before := [3]*testNode{p.At(1), p.At(slabSize - 1), p.At(slabSize)}

	grow(2*slabSize + 100)
	check("three slabs", append(first, slabSize+1, 2*slabSize, 2*slabSize+1, 2*slabSize+100)...)
	if after := [3]*testNode{p.At(1), p.At(slabSize - 1), p.At(slabSize)}; after != before {
		t.Fatalf("growth moved slab 0's nodes: %v -> %v", before, after)
	}
	if e, l := p.At(slabSize), p.At(slabSize+1); e != &p.slabs[0].entries[slabMask].val || l != &p.slabs[1].entries[0].val {
		t.Fatal("slot 8192 is not the last entry of slab 0, or 8193 not the first of slab 1")
	}

	for name, f := range map[string]func(){"At": func() { p.At(0) }, "Hdr": func() { p.Hdr(0) }} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "nil slot") {
					t.Fatalf("%s(0) panicked with %q, want the nil-slot message", name, r)
				}
			}()
			f()
		}()
	}
}

// TestAtWhileGrowing resolves slots from two goroutines while a third
// grows the pool across the slab-0 boundary: a published slot resolves to
// the node its allocator initialized, whichever side of the boundary it is
// on and whether or not its slab existed a moment ago. Run under -race.
func TestAtWhileGrowing(t *testing.T) {
	p := NewPool[testNode]()
	const top = 2*slabSize + slabSize/2
	var published atomic.Uint64 // every slot <= published is initialized
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				hi := published.Load()
				if hi == 0 {
					continue
				}
				// The newest slots, where slabs appear, and every third
				// time one side of the boundary.
				s := hi - i%min(hi, 64)
				if i%3 == 0 && hi > slabSize {
					s = slabSize + i%2
				}
				if e := tableAt(p, s); p.At(s) != &e.val || p.Hdr(s) != &e.hdr {
					t.Errorf("slot %d resolves off the table", s)
					return
				}
				if k := p.At(s).key; k != int64(s) || p.Hdr(s).State() != StateLive {
					t.Errorf("slot %d: key %d state %d", s, k, p.Hdr(s).State())
					return
				}
				if hi >= top {
					return
				}
			}
		}()
	}
	c := p.NewCache()
	// A cache hands a carved batch out from its end, so slots initialize
	// out of order; publish the contiguous prefix.
	var ready [top + 2*cacheBatch]bool
	for next := uint64(1); next <= top; {
		s, n := p.Alloc(c)
		n.key = int64(s)
		ready[s] = true
		for ready[next] {
			next++
		}
		published.Store(next - 1)
	}
	wg.Wait()
}
