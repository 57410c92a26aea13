// Package alloc implements the simulated reclaiming allocator that stands in
// for manual memory management (the paper's testbed uses jemalloc and real
// free()). Go's garbage collector makes true use-after-free impossible, so
// "reclaiming" a node here means: mark it Reclaimed, bump its ABA version,
// and push its slot onto a freelist for reuse by subsequent allocations.
//
// This preserves everything the paper measures and proves about
// reclamation:
//
//   - the retired-but-unreclaimed block count (the robustness metric in
//     every memory figure) is exact;
//   - reuse recreates the ABA hazard — a stale reference now resolves to a
//     recycled node with a different version, so protocol violations become
//     observable (Fig. 2's use-after-free reproduces as a poison/version
//     check failure instead of memory corruption);
//   - allocation cost is a pool hit, mirroring the paper's use of jemalloc
//     to keep allocator contention out of the measurements: an allocation
//     or a free writes only the node's own header (the pool keeps no
//     running counts), and a reclaimer hands a pool a whole pass through
//     FreeSlots, one freelist lock per pass rather than per node.
//
// Nodes are addressed by slot index (see atomicx.Ref) rather than by raw
// pointer so links can carry Harris/Natarajan-Mittal tag bits without
// violating Go's pointer rules.
//
// # Resolving a slot
//
// Slot s (1-based; 0 is the nil reference) is entry (s-1)&slabMask of slab
// (s-1)>>slabBits. Slabs hold 8 192 entries, are materialized before the
// first of their slots is carved and never move, so At and Hdr need no
// lock: they load the slab's pointer from the table and index it. A
// traversal gets each slot from the previous node's link, so that table
// load — its address computed from the slot — would sit on the
// pointer-chasing chain of every step of every scheme, a cost raw pointers
// do not have. At and Hdr therefore test for slab 0 first and read
// slabs[0], whose address does not depend on the slot: behind a branch
// that predicts perfectly for a structure of up to 8 192 nodes, the table
// load leaves the chain and a slot resolves with the arithmetic of a
// pointer dereference. Slots past slab 0 still pay the dependent load
// (BenchmarkAt; DESIGN.md §11.1 has the numbers and why neither larger
// slabs nor a last-slab cache are the answer).
package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// Node lifecycle states, stored in Header.state.
const (
	// StateFree marks a slot that is on a freelist (or never allocated).
	StateFree uint32 = iota
	// StateLive marks a node reachable (or about to be linked) in a
	// structure.
	StateLive
	// StateRetired marks a node that has been unlinked and handed to a
	// reclamation scheme, but whose reclamation is still deferred.
	StateRetired
)

// Header is the per-node bookkeeping record the allocator keeps alongside
// every node. Schemes use it for lifecycle assertions; VBR uses the version
// as its birth epoch.
type Header struct {
	state atomic.Uint32
	// version counts completed alloc/free cycles of this slot. It is
	// bumped on Free, so a reference captured before a free can be
	// detected as stale by comparing versions (the ABA/VBR check).
	version atomic.Uint64
}

// State returns the node's current lifecycle state.
func (h *Header) State() uint32 { return h.state.Load() }

// Version returns the node's current ABA version.
func (h *Header) Version() uint64 { return h.version.Load() }

// Retire transitions the node Live -> Retired. It panics on a double
// retire, which is always a scheme or data-structure bug.
func (h *Header) Retire() {
	if !h.state.CompareAndSwap(StateLive, StateRetired) {
		panic(fmt.Sprintf("alloc: retire of node in state %d (double retire or retire-after-free)", h.state.Load()))
	}
}

// TryRetire attempts the Live -> Retired transition and reports whether
// this caller won it. Structures that unlink several nodes with one CAS
// (e.g. chain removal in the Natarajan-Mittal tree) use it to give exactly
// one unlinker ownership of each node's retirement.
func (h *Header) TryRetire() bool {
	return h.state.CompareAndSwap(StateLive, StateRetired)
}

// Freer releases slots back to their pool. It lets reclamation schemes hold
// heterogeneous retired records without knowing node types.
type Freer interface {
	// FreeSlots returns every slot of a reclamation pass to the pool at
	// once. The caller must guarantee each node is Retired and no longer
	// protected by any thread; the pool does not keep the slice.
	FreeSlots(slots []uint64)
}

const (
	slabBits = 13 // 8192 entries per slab
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
	maxSlabs = 1 << 15 // up to ~268M nodes per pool
)

type entry[T any] struct {
	hdr Header
	val T
}

type slab[T any] struct {
	entries [slabSize]entry[T]
}

// Pool is a grow-only slab allocator for nodes of type T with slot-indexed
// addressing and freelist reuse. At/Hdr are safe to call concurrently with
// Alloc and Free; slot 0 is reserved as the nil reference.
type Pool[T any] struct {
	// slabs[i] is written once, nil to its slab, under growMu, before the
	// first slot of slab i is handed to anyone; it is read without
	// synchronization of its own. That is race-free because a slot only
	// ever reaches another goroutine through a synchronizing operation — an
	// atomic link or shield, the freelist's mutex, a channel — so the write
	// happens before every read that a valid slot can cause. (An
	// atomic.Pointer here compiles to the same load but, as a generic
	// method call, costs At and Hdr a third of the inliner's budget: with
	// it, the first-slab case pushed vbr's per-node version check out of
	// line and VBR's long reads fell 10–30 %.)
	slabs [maxSlabs]*slab[T]

	growMu   sync.Mutex
	nextSlot uint64 // next never-used slot; guarded by growMu

	freeMu   sync.Mutex
	freeList []uint64 // guarded by freeMu
}

// Mode, its two values and NewPool's ignored argument are a shim kept only
// because the frozen benchmark/ module compiles them (its ledger names the
// rows alloc.alloc_free_ns.pool and .arena after String). There is one
// allocator and both values build it; nothing else may mention the mode.
// Delete with benchmark/'s import (ROADMAP "Parked").
type Mode int

// ModePool and ModeArena both name the one allocator (see Mode).
const (
	ModePool Mode = iota
	ModeArena
)

// String returns "pool" or "arena", the frozen ledger's row suffixes.
func (m Mode) String() string {
	if m == ModeArena {
		return "arena"
	}
	return "pool"
}

// NewPool returns an empty pool.
func NewPool[T any](_ ...Mode) *Pool[T] {
	return &Pool[T]{nextSlot: 1} // reserve slot 0 as nil
}

// cacheBatch is how many slots move between a Cache and the shared
// freelist at a time.
const cacheBatch = 64

// Cache is a per-thread allocation cache. It is not safe for concurrent
// use; each worker owns one.
type Cache[T any] struct {
	pool  *Pool[T]
	slots []uint64
	// trace records allocator growth events (nil with observability
	// off). Single-writer: the cache's owner goroutine.
	trace *obs.Trace
}

// NewCache returns a thread-local allocation cache for the pool.
func (p *Pool[T]) NewCache() *Cache[T] {
	c := &Cache[T]{pool: p, slots: make([]uint64, 0, 2*cacheBatch)}
	if obs.On {
		c.trace = obs.NewTrace("alloc")
	}
	return c
}

// At resolves a slot index to its node. It panics on the nil slot, which
// always indicates a missing IsNil check in a traversal. Slab 0 comes
// first and through a constant index (see the package comment); the nil
// slot's idx wraps, so its check is off that path. The body must stay
// inlinable into the per-node loops (TestStepInlines).
func (p *Pool[T]) At(slot uint64) *T {
	idx := slot - 1
	if idx < slabSize {
		return &p.slabs[0].entries[idx].val
	}
	if slot == 0 {
		panic("alloc: dereference of nil slot")
	}
	return &p.slabs[idx>>slabBits].entries[idx&slabMask].val
}

// Hdr resolves a slot index to its allocator header, the way At does.
func (p *Pool[T]) Hdr(slot uint64) *Header {
	idx := slot - 1
	if idx < slabSize {
		return &p.slabs[0].entries[idx].hdr
	}
	if slot == 0 {
		panic("alloc: header of nil slot")
	}
	return &p.slabs[idx>>slabBits].entries[idx&slabMask].hdr
}

// Alloc returns a Live node, reusing a freed slot when one is available.
// The node's fields hold whatever the previous occupant left; callers must
// initialize every field before publishing the node.
func (p *Pool[T]) Alloc(c *Cache[T]) (slot uint64, node *T) {
	if fault.On {
		// Stall before the slot is taken: widens the window between a
		// competitor freeing the slot and this thread recycling it.
		fault.Fire(fault.SiteAllocStall)
	}
	if len(c.slots) == 0 {
		p.refill(c)
	}
	return p.take(c)
}

// take pops one cached slot and marks it Live.
func (p *Pool[T]) take(c *Cache[T]) (slot uint64, node *T) {
	slot = c.slots[len(c.slots)-1]
	c.slots = c.slots[:len(c.slots)-1]

	h := p.Hdr(slot)
	if !h.state.CompareAndSwap(StateFree, StateLive) {
		panic(fmt.Sprintf("alloc: allocating slot %d in state %d", slot, h.state.Load()))
	}
	return slot, p.At(slot)
}

// refill moves slots into the cache from the shared freelist, growing a
// fresh slab when the freelist is empty.
func (p *Pool[T]) refill(c *Cache[T]) {
	batch := cacheBatch
	if fault.On && fault.Fire(fault.SiteAllocExhaust) {
		// Pool exhaustion: refill a single slot, maximizing freelist
		// pressure and slot-reuse (ABA) churn.
		batch = 1
	}
	p.freeMu.Lock()
	if n := len(p.freeList); n > 0 {
		take := batch
		if take > n {
			take = n
		}
		c.slots = append(c.slots, p.freeList[n-take:]...)
		p.freeList = p.freeList[:n-take]
		p.freeMu.Unlock()
		return
	}
	p.freeMu.Unlock()

	p.growMu.Lock()
	start := p.nextSlot
	// Carve fresh slots, materializing slabs as needed.
	for i := 0; i < batch; i++ {
		slot := start + uint64(i)
		idx := slot - 1
		si := idx >> slabBits
		if si >= maxSlabs {
			p.growMu.Unlock()
			panic("alloc: pool exhausted (maxSlabs reached)")
		}
		if p.slabs[si] == nil {
			p.slabs[si] = new(slab[T])
		}
		c.slots = append(c.slots, slot)
	}
	p.nextSlot = start + uint64(batch)
	p.growMu.Unlock()
	if obs.On {
		// The freelist could not satisfy the refill: the pool grew by
		// freshly carved slots — the allocator-side signal that garbage
		// is outpacing reclamation.
		c.trace.Rec(obs.EvSlabGrow, int64(batch))
	}
}

// FreeSlots reclaims a reclamation pass: every node must be Retired. Each
// is poisoned (version bumped, state Free) in order, and the whole batch
// then joins the shared freelist under one acquisition of its lock — a
// reclaimer's pass touches the pool's shared line once, not once per node.
// A slot that is not Retired (a double free, or a free without retire)
// panics naming it; the slots poisoned before it never reach the freelist.
// FreeSlots implements Freer.
func (p *Pool[T]) FreeSlots(slots []uint64) {
	if len(slots) == 0 {
		return
	}
	for _, slot := range slots {
		p.poison(slot)
	}
	p.freeMu.Lock()
	p.freeList = append(p.freeList, slots...)
	p.freeMu.Unlock()
}

// FreeLocal reclaims the slot into the thread-local cache, avoiding the
// shared freelist lock on the hot path. A full cache drains one batch to
// the pool first.
func (p *Pool[T]) FreeLocal(c *Cache[T], slot uint64) {
	p.poison(slot)
	if len(c.slots) >= cap(c.slots) {
		p.freeMu.Lock()
		p.freeList = append(p.freeList, c.slots[:cacheBatch]...)
		p.freeMu.Unlock()
		c.slots = append(c.slots[:0], c.slots[cacheBatch:]...)
	}
	c.slots = append(c.slots, slot)
}

// poison is a free's check and mark on the node's own header, the only
// word a free writes before the slot joins a freelist: the version bump
// that makes stale references detectable, then Retired -> Free.
func (p *Pool[T]) poison(slot uint64) {
	h := p.Hdr(slot)
	h.version.Add(1)
	if !h.state.CompareAndSwap(StateRetired, StateFree) {
		panic(fmt.Sprintf("alloc: free of slot %d in state %d (double free or free-without-retire)", slot, h.state.Load()))
	}
	if fault.On {
		// Stall between poisoning and the freelist push: the slot is
		// already Free/version-bumped but not yet reusable.
		fault.Fire(fault.SiteFreeStall)
	}
}
