package nmtree

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/nbr"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// NBR is a Natarajan-Mittal tree under neutralization-based reclamation.
// The tree is access-aware: the seek is a pure read phase; before any
// write the four seek-record nodes are reserved and the thread enters a
// write phase; after a write the operation restarts with a fresh seek
// from the root.
//
// Reservation slots: 0 = ancestor, 1 = successor, 2 = parent, 3 = leaf.
type NBR struct {
	tree
	dom *nbr.Domain
}

// NewNBR creates an NBR-protected tree.
func NewNBR(opts ...nbr.Option) *NBR {
	return &NBR{tree: newTree(), dom: nbr.NewDomain(nil, opts...)}
}

// Stats exposes reclamation statistics.
func (l *NBR) Stats() *stats.Reclamation { return l.dom.Stats() }

// NBRHandle is one thread's accessor.
type NBRHandle struct {
	ops
	h *nbr.Handle
}

// Register creates a thread handle.
func (l *NBR) Register() *NBRHandle {
	h := &NBRHandle{h: l.dom.Register()}
	h.init(&l.tree, h)
	return h
}

// Unregister releases the handle.
func (h *NBRHandle) Unregister() { h.h.Unregister() }

// Barrier drains reclamation (teardown/tests).
func (h *NBRHandle) Barrier() { h.h.Barrier() }

// descend runs one read-phase seek from the root. ok is false when the
// thread was neutralized on the way (restart from the root).
func (h *NBRHandle) descend(key int64) (sr seekRecord, ok bool) {
	t := h.t
	h.h.StartRead()
	c := t.seekInit()
	yc := 0
	for !t.seekStep(key, &c) {
		atomicx.StepYield(&yc)
		if !h.h.Poll() {
			h.h.RecordRestart()
			return c.sr, false
		}
	}
	return c.sr, true
}

// seek repeats the read-phase descent until one reaches a leaf, reserves
// its seek record and enters the write phase.
func (h *NBRHandle) seek(key int64) seekRecord {
	for {
		sr, ok := h.descend(key)
		if !ok {
			continue
		}
		h.h.Reserve(0, sr.ancestor)
		h.h.Reserve(1, sr.successor)
		h.h.Reserve(2, sr.parent)
		h.h.Reserve(3, sr.leaf)
		if h.h.EnterWrite() {
			return sr
		}
		h.h.RecordRestart()
	}
}

func (h *NBRHandle) retire(slot uint64) { h.h.Retire(slot, h.t.pool) }

// release ends the write phase and drops the reservations.
func (h *NBRHandle) release() {
	h.h.EndOp()
	h.h.ClearReservations()
}

// Get returns the value mapped to key in a pure read phase: nothing is
// reserved, and a neutralization before the commit discards the result.
func (h *NBRHandle) Get(key int64) (int64, bool) {
	for {
		sr, ok := h.descend(key)
		if !ok {
			continue
		}
		leaf := h.t.pool.At(sr.leaf)
		val, found := leaf.Val.Load(), leaf.Key.Load() == key
		if h.h.EndRead() {
			return val, found
		}
		h.h.RecordRestart()
	}
}
