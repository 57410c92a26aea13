package skiplist

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/ebr"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// EBR is a skip list protected by epoch-based RCU (or nothing in NR mode).
type EBR struct {
	l   *list
	dom *ebr.Domain
}

// NewEBR creates a skip list reclaimed by epoch-based RCU.
func NewEBR(opts ...ebr.Option) *EBR {
	dom := ebr.NewDomain(nil, opts...)
	s := &EBR{l: newList(dom.AllocMode()), dom: dom}
	dom.BindPool(s.l.pool)
	return s
}

// NewNR creates the no-reclamation baseline. Options (e.g.
// ebr.WithAllocator) are applied on top of ebr.NoReclaim.
func NewNR(opts ...ebr.Option) *EBR {
	return NewEBR(append([]ebr.Option{ebr.NoReclaim()}, opts...)...)
}

// Stats exposes reclamation statistics.
func (s *EBR) Stats() *stats.Reclamation { return s.dom.Stats() }

// LenSlow / KeysSlow / CheckSlow: single-threaded checks.
func (s *EBR) LenSlow() int      { return s.l.lenSlow() }
func (s *EBR) KeysSlow() []int64 { return s.l.keysSlow() }
func (s *EBR) CheckSlow() bool   { return s.l.checkTowersSlow() }

// EBRHandle is one thread's accessor.
type EBRHandle struct {
	l     *EBR
	h     *ebr.Handle
	cache *alloc.Cache[node]
	rng   *atomicx.Rand

	preds [MaxHeight]uint64
	succs [MaxHeight]atomicx.Ref
}

// Register creates a thread handle.
func (s *EBR) Register() *EBRHandle {
	return &EBRHandle{
		l: s, h: s.dom.Register(), cache: s.l.pool.NewCache(),
		rng: atomicx.NewRand(nextSeed()),
	}
}

// Unregister releases the handle.
func (h *EBRHandle) Unregister() { h.h.Unregister() }

// Barrier drains reclamation (teardown/tests).
func (h *EBRHandle) Barrier() { h.h.Barrier() }

// find positions preds/succs around key at every level, helping unlink
// marked nodes. It reports whether key is present and whether the target
// node was encountered at any level (the deleter's clean-pass check; pass
// Nil when not deleting). Must run pinned.
func (h *EBRHandle) find(key int64, target atomicx.Ref) (found, saw bool) {
	l := h.l.l
retry:
	saw = false
	pred := l.head
	yc := 0
	for level := MaxHeight - 1; level >= 0; level-- {
		cur := l.pool.At(pred).Next[level].Load().Untagged()
		for {
			atomicx.StepYield(&yc)
			if cur.IsNil() {
				break
			}
			if cur == target {
				saw = true
			}
			n := l.at(cur)
			next := n.Next[level].Load()
			if next.Tag() != 0 {
				// cur is marked at this level: help unlink it.
				if !l.pool.At(pred).Next[level].CompareAndSwap(cur, next.Untagged()) {
					goto retry
				}
				cur = next.Untagged()
				continue
			}
			if n.Key.Load() < key {
				pred = cur.Slot()
				cur = next.Untagged()
				continue
			}
			break
		}
		h.preds[level] = pred
		h.succs[level] = cur
	}
	found = !h.succs[0].IsNil() && l.at(h.succs[0]).Key.Load() == key
	return found, saw
}

// Get is GetOptimistic — the configuration the paper evaluates on every
// scheme but plain HP; the helping find serves Insert and Remove.
func (h *EBRHandle) Get(key int64) (int64, bool) { return h.GetOptimistic(key) }

// GetOptimistic is the wait-free-style get: it skips marked nodes without
// unlinking them.
func (h *EBRHandle) GetOptimistic(key int64) (int64, bool) {
	h.h.Pin()
	defer h.h.Unpin()
	l := h.l.l
	pred := l.head
	var cur atomicx.Ref
	yc := 0
	for level := MaxHeight - 1; level >= 0; level-- {
		cur = l.pool.At(pred).Next[level].Load().Untagged()
		for !cur.IsNil() {
			atomicx.StepYield(&yc)
			n := l.at(cur)
			next := n.Next[level].Load()
			if next.Tag() != 0 {
				cur = next.Untagged() // skip marked
				continue
			}
			if n.Key.Load() < key {
				pred = cur.Slot()
				cur = next.Untagged()
				continue
			}
			break
		}
	}
	if cur.IsNil() {
		return 0, false
	}
	n := l.at(cur)
	if n.Key.Load() != key || n.Next[0].Load().Tag() != 0 {
		return 0, false
	}
	return n.Val.Load(), true
}

// Insert maps key to val; it fails if key is already present.
func (h *EBRHandle) Insert(key, val int64) bool {
	h.h.Pin()
	defer h.h.Unpin()
	l := h.l.l
	for {
		found, _ := h.find(key, atomicx.Nil)
		if found {
			return false
		}
		height := randomHeight(h.rng)
		slot, ref := l.newNode(h.cache, key, val, height, &h.succs)
		if !l.pool.At(h.preds[0]).Next[0].CompareAndSwap(h.succs[0], ref) {
			l.discard(h.cache, slot)
			continue
		}
		// Link the upper levels; a concurrent deletion of the fresh node
		// aborts the remaining links (its clean-pass scan unlinks any
		// level we did manage to link).
		n := l.pool.At(slot)
		for level := 1; level < height; level++ {
			for {
				if l.pool.At(h.preds[level]).Next[level].CompareAndSwap(h.succs[level], ref) {
					break
				}
				// Re-position and re-point the node's next at this level.
				h.find(key, atomicx.Nil)
				if h.succs[0] != ref {
					return true // node already logically removed
				}
				old := n.Next[level].Load()
				if old.Tag() != 0 {
					return true // being deleted: stop linking
				}
				if old != h.succs[level] && !n.Next[level].CompareAndSwap(old, h.succs[level]) {
					return true // marked in the meantime
				}
			}
		}
		return true
	}
}

// Remove unmaps key, returning the removed value.
func (h *EBRHandle) Remove(key int64) (int64, bool) {
	h.h.Pin()
	defer h.h.Unpin()
	l := h.l.l
	found, _ := h.find(key, atomicx.Nil)
	if !found {
		return 0, false
	}
	ref := h.succs[0]
	val := l.at(ref).Val.Load()
	if !l.markTower(ref) {
		return 0, false // a concurrent deleter won the logical deletion
	}
	// Physically remove: scan until two consecutive clean passes see the
	// node nowhere (margin against in-flight inserts re-linking it);
	// yield between dirty passes so the competing unlinkers can run.
	for clean := 0; clean < 2; {
		_, saw := h.find(key, ref)
		if saw {
			clean = 0
			runtime.Gosched()
		} else {
			clean++
		}
	}
	l.pool.Hdr(ref.Slot()).Retire()
	h.h.Defer(ref.Slot(), l.pool)
	return val, true
}
