package skiplist

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// EBR is a skip list protected by epoch-based RCU (or nothing in NR mode):
// a BRCU domain that never signals.
type EBR struct {
	list
	dom *brcu.Domain
}

// NewEBR creates a skip list reclaimed by epoch-based RCU. brcu.NeverSignal
// is added after opts, since these sections never poll.
func NewEBR(opts ...brcu.Option) *EBR {
	return &EBR{list: newList(), dom: brcu.NewDomain(nil, append(opts, brcu.NeverSignal())...)}
}

// NewNR creates the no-reclamation baseline.
func NewNR() *EBR { return NewEBR(brcu.NoReclaim()) }

// Stats exposes reclamation statistics.
func (s *EBR) Stats() *stats.Reclamation { return s.dom.Stats() }

// EBRHandle is one thread's accessor.
type EBRHandle struct {
	ops
	h *brcu.Handle
}

// Register creates a thread handle.
func (s *EBR) Register() *EBRHandle {
	h := &EBRHandle{h: s.dom.Register()}
	h.init(&s.list, h)
	return h
}

// Unregister releases the handle.
func (h *EBRHandle) Unregister() { h.h.Unregister() }

// Barrier drains reclamation (teardown/tests).
func (h *EBRHandle) Barrier() { h.h.Barrier() }

// find pins and positions preds/succs around key at every level, helping
// unlink marked nodes. The pin is what makes stepping through marked nodes
// safe, and what release drops.
func (h *EBRHandle) find(key int64, past bool) {
	h.h.Pin()
	l := h.l
retry:
	pred := l.head
	yc := 0
	for level := MaxHeight - 1; level >= 0; level-- {
		cur := l.pool.At(pred).Next[level].Load().Untagged()
		for {
			atomicx.StepYield(&yc)
			if cur.IsNil() {
				break
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
			if k := n.Key.Load(); k > key || k == key && !past {
				break
			}
			pred = cur.Slot()
			cur = next.Untagged()
		}
		h.preds[level] = pred
		h.succs[level] = cur
	}
}

func (h *EBRHandle) retire(slot uint64) { h.h.Defer(slot, h.l.pool) }
func (h *EBRHandle) release()           { h.h.Unpin() }

// Get is the wait-free-style get the paper evaluates on every scheme but
// plain HP: it skips marked nodes without unlinking them. The helping find
// serves Insert and Remove.
func (h *EBRHandle) Get(key int64) (val int64, found bool) {
	h.h.Pin()
	l := h.l
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
	if !cur.IsNil() {
		n := l.at(cur)
		if n.Key.Load() == key && n.Next[0].Load().Tag() == 0 {
			val, found = n.Val.Load(), true
		}
	}
	h.h.Unpin()
	return val, found
}
