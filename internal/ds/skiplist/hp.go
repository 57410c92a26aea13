package skiplist

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// HP is a skip list under plain hazard pointers. Every window shift at
// every level pays a validated protection (a shield store plus a re-read),
// and the traversal keeps three shields per level alive — the multi-
// pointer protection cost the paper shows degrading HP/HP++/PEBR in
// Figure 7d. Its get necessarily helps (no wait-free get under HP).
type HP struct {
	list
	dom *hp.Domain
}

// NewHP creates a hazard-pointer-protected skip list.
func NewHP(opts ...hp.Option) *HP {
	return &HP{list: newList(), dom: hp.NewDomain(nil, opts...)}
}

// Stats exposes reclamation statistics.
func (s *HP) Stats() *stats.Reclamation { return s.dom.Stats() }

// HPHandle is one thread's accessor: three shields per level.
type HPHandle struct {
	ops
	h *hp.Handle

	predS, curS, nextS [MaxHeight]*hp.Shield
}

// Register creates a thread handle.
func (s *HP) Register() *HPHandle {
	d := s.dom.Register()
	h := &HPHandle{h: d}
	for i := 0; i < MaxHeight; i++ {
		h.predS[i] = d.NewShield()
		h.curS[i] = d.NewShield()
		h.nextS[i] = d.NewShield()
	}
	h.init(&s.list, h)
	return h
}

// Unregister releases the handle.
func (h *HPHandle) Unregister() { h.h.Unregister() }

// Barrier drains this thread's retired batch where possible.
func (h *HPHandle) Barrier() { h.h.Reclaim() }

// find positions preds/succs around key with validated per-level
// protection. On return preds[l] is protected by predS[l] (or is the
// immortal head) and succs[l] by curS[l], until the next find.
func (h *HPHandle) find(key int64, past bool) {
	l := h.l
retry:
	pred := l.head
	yc := 0
	for level := MaxHeight - 1; level >= 0; level-- {
		// pred is either head or protected by an upper level's shields;
		// copying the protection down is always safe.
		h.predS[level].ProtectSlot(pred)
		cur := hp.ProtectFrom(h.curS[level], &l.pool.At(pred).Next[level])
		if cur.Tag() != 0 {
			goto retry // pred marked at this level
		}
		for {
			atomicx.StepYield(&yc)
			if cur.IsNil() {
				break
			}
			n := l.at(cur)
			next := n.Next[level].Load()
			if next.Tag() != 0 {
				// cur is marked here: help unlink, re-protect.
				if !l.pool.At(pred).Next[level].CompareAndSwap(cur, next.Untagged()) {
					goto retry
				}
				cur = hp.ProtectFrom(h.curS[level], &l.pool.At(pred).Next[level])
				if cur.Tag() != 0 {
					goto retry
				}
				continue
			}
			if k := n.Key.Load(); k > key || k == key && !past {
				break
			}
			// Shift the window: protect the successor validated from
			// the (protected) cur, then rotate the level's shields.
			nextv := hp.ProtectFrom(h.nextS[level], &n.Next[level])
			if nextv.Tag() != 0 {
				continue // cur got marked; redo this iteration
			}
			pred = cur.Slot()
			h.predS[level], h.curS[level], h.nextS[level] =
				h.curS[level], h.nextS[level], h.predS[level]
			cur = nextv
		}
		h.preds[level] = pred
		h.succs[level] = cur
	}
}

func (h *HPHandle) retire(slot uint64) { h.h.Retire(slot, h.l.pool) }

// release is a no-op: the shields hold the position until the next find
// overwrites them.
func (h *HPHandle) release() {}

// Get returns the value mapped to key. Plain HP cannot skip marked nodes
// without validation, so there is no cheaper read path than the helping
// find (Table 1's ▲).
func (h *HPHandle) Get(key int64) (int64, bool) {
	if !h.locate(key) {
		return 0, false
	}
	return h.l.at(h.succs[0]).Val.Load(), true // still shielded: release is a no-op
}
