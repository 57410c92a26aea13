// Package vbr implements a version-based-reclamation baseline (Sheffi,
// Herlihy, Petrank — SPAA 2021), the remaining robust competitor in the
// paper's evaluation (§6, §7).
//
// VBR's idea: memory is reclaimed *immediately* on retirement, with no
// grace period. Safety comes from versioning over a type-preserving
// allocator:
//
//   - every node's link word embeds the node's own current version, and a
//     reused node rewrites the word with its new version, so any write
//     CAS through a stale view fails (the ABA guard the original gets
//     from its double-word versioned pointers);
//   - readers capture a node's allocator version when they first reach it
//     and re-check it after reading its fields — the free that precedes
//     any reuse bumps the version first, so a torn read across a recycle
//     is always detected and the operation restarts from the entry point.
//
// The restart-from-entry rollback is exactly what makes VBR — like
// NBR/DEBRA+/PEBR — starve on long-running operations (Figure 6), while
// its memory footprint is the smallest of all schemes (nothing is ever
// deferred).
//
// Simplifications vs the original: validation is against the allocator's
// per-slot version rather than amortized with a global epoch (one extra
// load per step — Table 2's "usually validation only" cost class), and,
// like the original, memory is never returned to the OS (pools only
// grow). The package provides a Harris-style sorted list with the HHS
// optimistic get, the shape the paper benchmarks VBR on.
package vbr

import (
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Link-word packing: [succSlot:32][ownVersion:29][tag:3]. ownVersion is
// the version of the node HOLDING the word, truncated; tag bit 0 is the
// Harris mark.
const (
	tagBits = 3
	verBits = 29
	tagMask = (1 << tagBits) - 1
	verMask = (1 << verBits) - 1
)

const markBit = 1

// word is a node's packed link word.
type word uint64

func makeWord(succ, ownVer uint64, tag uint8) word {
	return word(succ<<(verBits+tagBits) | (ownVer&verMask)<<tagBits | uint64(tag)&tagMask)
}

func (w word) succ() uint64   { return uint64(w) >> (verBits + tagBits) }
func (w word) ownVer() uint64 { return (uint64(w) >> tagBits) & verMask }
func (w word) tag() uint8     { return uint8(w) & tagMask }

// eraBatch is how many reuses advance the global era (the original's
// epoch cadence; reclamation-batch sized like every other scheme here).
const eraBatch = 128

// List is a VBR-protected sorted linked list.
type List struct {
	pool *alloc.Pool[lnode.Node]
	head uint64
	rec  *stats.Reclamation

	// era is the global epoch of the original VBR: it advances every
	// eraBatch reuses, and an operation restarts when the era moves under
	// it — the coarse-grained rollback condition that §6 blames for
	// VBR's starvation on long-running operations.
	era    atomic.Uint64
	reuses atomic.Uint64
}

// New creates an empty VBR list.
func New() *List {
	pool := alloc.NewPool[lnode.Node]()
	return NewShared(pool, pool.NewCache(), &stats.Reclamation{})
}

// NewShared creates a list over an existing pool (hash-map buckets share
// one pool and one stats record).
func NewShared(pool *alloc.Pool[lnode.Node], cache *alloc.Cache[lnode.Node], rec *stats.Reclamation) *List {
	slot, n := pool.Alloc(cache)
	n.Key.Store(lnode.MinKey)
	n.Next.Store(atomicx.Ref(makeWord(0, pool.Hdr(slot).Version()&verMask, 0)))
	return &List{pool: pool, head: slot, rec: rec}
}

// Pool exposes the node pool (shared-bucket construction).
func (l *List) Pool() *alloc.Pool[lnode.Node] { return l.pool }

// Stats exposes reclamation statistics (Unreclaimed stays ~0: VBR frees
// at retirement).
func (l *List) Stats() *stats.Reclamation { return l.rec }

// Handle is one thread's accessor.
type Handle struct {
	l     *List
	cache *alloc.Cache[lnode.Node]
}

// Register creates a thread handle.
func (l *List) Register() *Handle {
	return &Handle{l: l, cache: l.pool.NewCache()}
}

// Rebind points the handle at another list over the same pool (a hash
// map's buckets). A handle is single-threaded, so its one allocation cache
// serves every bucket; a cache per (handle, bucket) would carve a batch of
// fresh slots for each bucket touched and scatter the nodes across slabs.
func (h *Handle) Rebind(l *List) { h.l = l }

// Unregister releases the handle.
func (h *Handle) Unregister() {}

// Barrier is a no-op: VBR never defers reclamation.
func (h *Handle) Barrier() {}

func (l *List) ver(slot uint64) uint64 { return l.pool.Hdr(slot).Version() & verMask }

// view is a validated snapshot of one node: its slot, captured version,
// and link word. A view is coherent: the word was read while the node's
// version equalled ver.
type view struct {
	slot uint64
	ver  uint64
	w    word
}

// loadView captures a coherent view of slot, expecting version ver. It
// fails (restart) if the node was recycled.
func (l *List) loadView(slot, ver uint64) (view, bool) {
	w := word(l.pool.At(slot).Next.Load())
	if w.ownVer() != ver || l.ver(slot) != ver {
		return view{}, false
	}
	return view{slot: slot, ver: ver, w: w}, true
}

// retireFree retires and immediately frees a node: VBR's defining move.
func (h *Handle) retireFree(slot uint64) {
	l := h.l
	l.rec.Retired.Inc()
	l.rec.Unreclaimed.Add(1)
	l.pool.Hdr(slot).Retire()
	l.pool.FreeLocal(h.cache, slot)
	l.rec.Reclaimed.Inc()
	l.rec.Unreclaimed.Add(-1)
	if l.reuses.Add(1)%eraBatch == 0 {
		l.era.Add(1)
		l.rec.EpochAdvances.Inc()
	}
}

// casWord swaps a node's link word; it can only succeed while the node's
// version still matches old.ownVer(), because reuse rewrites the word.
func (l *List) casWord(slot uint64, old, new word) bool {
	return l.pool.At(slot).Next.CompareAndSwap(atomicx.Ref(old), atomicx.Ref(new))
}

// search finds the (prev, cur) bracket for key as coherent views, excising
// marked nodes on the way. ok=false requests an operation restart.
func (h *Handle) search(key int64) (prev, cur view, found, ok bool) {
	l := h.l
	yc := 0
	startEra := l.era.Load()
	prev, ok = l.loadView(l.head, l.ver(l.head))
	if !ok {
		return view{}, view{}, false, false
	}
	for {
		atomicx.StepYield(&yc)
		if l.era.Load() != startEra {
			return view{}, view{}, false, false // era moved: coarse restart
		}
		curSlot := prev.w.succ()
		if curSlot == 0 {
			return prev, view{}, false, true
		}
		// Capture cur's version, then its fields, then re-validate both
		// cur (fields coherent) and prev (link still current).
		curVer := l.ver(curSlot)
		curN := l.pool.At(curSlot)
		cw := word(curN.Next.Load())
		curKey := curN.Key.Load()
		if cw.ownVer() != curVer || l.ver(curSlot) != curVer {
			return view{}, view{}, false, false
		}
		if word(l.pool.At(prev.slot).Next.Load()) != prev.w {
			return view{}, view{}, false, false
		}
		cur = view{slot: curSlot, ver: curVer, w: cw}
		if cw.tag() != 0 {
			// cur is marked: excise with a fully version-guarded CAS.
			nw := makeWord(cw.succ(), prev.ver, 0)
			if !l.casWord(prev.slot, prev.w, nw) {
				return view{}, view{}, false, false
			}
			h.retireFree(curSlot)
			prev.w = nw
			continue
		}
		if curKey >= key {
			return prev, cur, curKey == key, true
		}
		prev = cur
	}
}

// Get returns the value mapped to key (optimistic validated traversal).
func (h *Handle) Get(key int64) (int64, bool) {
	l := h.l
	for {
		yc := 0
		startEra := l.era.Load()
		w := word(l.pool.At(l.head).Next.Load())
		if w.ownVer() != l.ver(l.head) {
			l.rec.Rollbacks.Inc()
			continue
		}
		restart := false
		for {
			atomicx.StepYield(&yc)
			if l.era.Load() != startEra {
				restart = true // era moved: coarse restart
				break
			}
			succ := w.succ()
			if succ == 0 {
				return 0, false
			}
			sVer := l.ver(succ)
			sN := l.pool.At(succ)
			sw := word(sN.Next.Load())
			sKey := sN.Key.Load()
			sVal := sN.Val.Load()
			if sw.ownVer() != sVer || l.ver(succ) != sVer {
				restart = true
				break
			}
			if sKey >= key {
				if sKey == key && sw.tag() == 0 {
					return sVal, true
				}
				return 0, false
			}
			w = sw
		}
		if restart {
			l.rec.Rollbacks.Inc()
		}
	}
}

// GetOptimistic is Get (already optimistic) — interface parity.
func (h *Handle) GetOptimistic(key int64) (int64, bool) { return h.Get(key) }

// Insert maps key to val; it fails if key is already present.
func (h *Handle) Insert(key, val int64) bool {
	l := h.l
	for {
		prev, cur, found, ok := h.search(key)
		if !ok {
			l.rec.Rollbacks.Inc()
			continue
		}
		if found {
			return false
		}
		slot, n := l.pool.Alloc(h.cache)
		n.Key.Store(key)
		n.Val.Store(val)
		var succ uint64
		if cur.slot != 0 {
			succ = cur.slot
		}
		n.Next.Store(atomicx.Ref(makeWord(succ, l.ver(slot), 0)))
		// Link: the expected word carries prev's own version, so a
		// recycled prev can never be written.
		if l.casWord(prev.slot, prev.w, makeWord(slot, prev.ver, 0)) {
			return true
		}
		l.pool.Hdr(slot).Retire()
		l.pool.FreeLocal(h.cache, slot)
		l.rec.Rollbacks.Inc()
	}
}

// Remove unmaps key, returning the removed value.
func (h *Handle) Remove(key int64) (int64, bool) {
	l := h.l
	for {
		prev, cur, found, ok := h.search(key)
		if !ok {
			l.rec.Rollbacks.Inc()
			continue
		}
		if !found {
			return 0, false
		}
		val := l.pool.At(cur.slot).Val.Load()
		if l.ver(cur.slot) != cur.ver {
			l.rec.Rollbacks.Inc()
			continue
		}
		// Logical deletion: version-guarded mark CAS on cur's own word.
		if !l.casWord(cur.slot, cur.w, cur.w|markBit) {
			continue // raced: re-find
		}
		// Best-effort physical excision; searches clean up failures.
		if l.casWord(prev.slot, prev.w, makeWord(cur.w.succ(), prev.ver, 0)) {
			h.retireFree(cur.slot)
		}
		return val, true
	}
}

// LenSlow / KeysSlow: single-threaded structural checks.
func (l *List) LenSlow() int {
	n := 0
	w := word(l.pool.At(l.head).Next.Load())
	for w.succ() != 0 {
		nd := l.pool.At(w.succ())
		nw := word(nd.Next.Load())
		if nw.tag() == 0 {
			n++
		}
		w = nw
	}
	return n
}

func (l *List) KeysSlow() []int64 {
	var out []int64
	w := word(l.pool.At(l.head).Next.Load())
	for w.succ() != 0 {
		nd := l.pool.At(w.succ())
		nw := word(nd.Next.Load())
		if nw.tag() == 0 {
			out = append(out, nd.Key.Load())
		}
		w = nw
	}
	return out
}
