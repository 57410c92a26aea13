package alloc

import (
	"fmt"
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
	p.FreeSlots([]uint64{slot})
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
	free := func() { p.FreeSlots([]uint64{slot}) }
	mustPanic("free-without-retire", free)
	p.Hdr(slot).Retire()
	mustPanic("double retire", func() { p.Hdr(slot).Retire() })
	free()
	mustPanic("double free", free)
	mustPanic("nil deref", func() { p.At(0) })
	mustPanic("nil header", func() { p.Hdr(0) })
}

// census counts the carved slots by header state. The pool keeps no
// running counts, so the tests read the books off the headers themselves.
type census struct{ carved, free, live, retired int }

func takeCensus(p *Pool[testNode]) census {
	p.growMu.Lock()
	top := p.nextSlot
	p.growMu.Unlock()
	c := census{carved: int(top - 1)}
	for s := uint64(1); s < top; s++ {
		switch p.Hdr(s).State() {
		case StateFree:
			c.free++
		case StateLive:
			c.live++
		case StateRetired:
			c.retired++
		}
	}
	return c
}

// TestAllocStats checks the books an allocation and a free keep on the
// headers: a batch of frees moves exactly its slots Retired -> Free, and
// freed slots are reused before the pool carves more, so the footprint
// stays at the live peak.
func TestAllocStats(t *testing.T) {
	p := NewPool[testNode]()
	c := p.NewCache()
	var slots []uint64
	for i := 0; i < 100; i++ {
		s, _ := p.Alloc(c)
		slots = append(slots, s)
	}
	peak := takeCensus(p)
	if peak.live != 100 || peak.free != peak.carved-100 {
		t.Fatalf("after 100 allocs: %+v, want 100 live and the rest free", peak)
	}
	for _, s := range slots[:40] {
		p.Hdr(s).Retire()
	}
	if got := takeCensus(p); got.live != 60 || got.retired != 40 {
		t.Fatalf("after 40 retires: %+v, want 60 live, 40 retired", got)
	}
	p.FreeSlots(slots[:40])
	if got := takeCensus(p); got.live != 60 || got.retired != 0 || got.free != peak.free+40 {
		t.Fatalf("after freeing 40: %+v, want 60 live, 0 retired, %d free", got, peak.free+40)
	}
	for i := 0; i < 40; i++ {
		p.Alloc(c)
	}
	if got := takeCensus(p); got.live != 100 || got.carved != peak.carved {
		t.Fatalf("after 40 more allocs: %+v, want 100 live in the peak's %d carved slots", got, peak.carved)
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

// TestAllocConcurrent races the two free paths and the refill between
// them: every other retired node joins a batch that reaches the shared
// freelist through FreeSlots eight at a time — the freelist every other
// worker's refill draws from — and the rest go through FreeLocal, whose
// full cache spills to that freelist too. Each worker holds at most 48
// nodes, so the slots circulate between workers. No node may change owner
// while it is live, and at teardown every carved slot is Free with one
// version bump per allocation. Run under -race.
func TestAllocConcurrent(t *testing.T) {
	p := NewPool[testNode]()
	const workers = 8
	const perWorker = 5000
	const held = 48

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			c := p.NewCache()
			var mine, batch []uint64
			frees := 0
			free := func(s uint64) {
				p.Hdr(s).Retire()
				if frees++; frees%2 == 0 {
					p.FreeLocal(c, s)
					return
				}
				if batch = append(batch, s); len(batch) == 8 {
					p.FreeSlots(batch)
					batch = batch[:0]
				}
			}
			for i := 0; i < perWorker; i++ {
				s, n := p.Alloc(c)
				n.key = id
				mine = append(mine, s)
				if len(mine) > held {
					victim := mine[0]
					mine = mine[1:]
					if k := p.At(victim).key; k != id {
						t.Errorf("node %d stolen: key=%d want %d", victim, k, id)
						return
					}
					free(victim)
				}
			}
			for _, s := range mine {
				free(s)
			}
			p.FreeSlots(batch)
		}(int64(w))
	}
	wg.Wait()
	if got := takeCensus(p); got.live != 0 || got.retired != 0 {
		t.Fatalf("leak after teardown: %+v", got)
	}
	var versions uint64
	for s := uint64(1); s < p.nextSlot; s++ {
		versions += p.Hdr(s).Version()
	}
	if versions != workers*perWorker {
		t.Fatalf("version bumps = %d, want one per allocation (%d)", versions, workers*perWorker)
	}
}

// TestFreeSlotsBadSlotMidBatch: a slot in the middle of a batch that is
// not Retired — freed twice, or still Live — panics naming that slot, after
// poisoning the slots before it and without touching the ones after.
func TestFreeSlotsBadSlotMidBatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state uint32 // the bad slot's state when the batch is freed
	}{{"double free", StateFree}, {"live", StateLive}} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool[testNode]()
			c := p.NewCache()
			var batch []uint64
			for i := 0; i < 5; i++ {
				s, _ := p.Alloc(c)
				batch = append(batch, s)
			}
			bad := batch[2]
			for _, s := range batch {
				if s != bad || tc.state != StateLive {
					p.Hdr(s).Retire()
				}
			}
			if tc.state == StateFree {
				p.FreeSlots([]uint64{bad})
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					want := fmt.Sprintf("free of slot %d in state %d", bad, tc.state)
					if !strings.Contains(msg, want) {
						t.Fatalf("FreeSlots panicked with %q, want it to contain %q", msg, want)
					}
				}()
				p.FreeSlots(batch)
			}()
			for i, s := range batch {
				want := StateRetired
				switch {
				case i < 2:
					want = StateFree
				case s == bad:
					want = tc.state
				}
				if got := p.Hdr(s).State(); got != want {
					t.Errorf("slot %d (batch[%d]): state %d, want %d", s, i, got, want)
				}
			}
		})
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
