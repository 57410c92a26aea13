package hlist

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// HP is a Harris-Michael list or hash map protected by plain hazard
// pointers (Michael's original algorithm): every traversed node is
// individually protected and validated against its predecessor, restarting
// from the head when validation fails. Robust, but each step pays a shield
// store plus a validating re-read (§2.1) — the per-node overhead
// HP-RCU/HP-BRCU eliminate. The validation only means something while the
// predecessor is unmarked, so the search may never step past a marked
// node: the kind is always HarrisMichael (Figure 2, Table 1).
type HP struct {
	set
	dom *hp.Domain
}

// NewHPOf creates a hazard-pointer-protected Harris-Michael list with the
// given number of head sentinels (1 = a list, n = a hash map).
func NewHPOf(heads int, opts ...hp.Option) *HP {
	return &HP{set: newSet(HarrisMichael, heads), dom: hp.NewDomain(nil, opts...)}
}

// Domain exposes the underlying reclamation domain.
func (l *HP) Domain() *hp.Domain { return l.dom }

// Stats exposes reclamation statistics.
func (l *HP) Stats() *stats.Reclamation { return l.dom.Stats() }

// HPHandle is one thread's accessor. It owns three shields: predecessor,
// current, and a spare used when shifting the protection window.
type HPHandle struct {
	ops
	h *hp.Handle

	prevS, curS, nextS *hp.Shield
}

// Register creates a thread handle.
func (l *HP) Register() *HPHandle {
	d := l.dom.Register()
	h := &HPHandle{h: d, prevS: d.NewShield(), curS: d.NewShield(), nextS: d.NewShield()}
	h.init(&l.set, h)
	return h
}

// Unregister releases the handle.
func (h *HPHandle) Unregister() { h.h.Unregister() }

// Barrier drains this thread's retired batch where possible.
func (h *HPHandle) Barrier() { h.h.Reclaim() }

// find locates key, protecting prev and cur with validated shields. On
// return cur (if non-nil) is protected by curS and prev — when it is not
// the immortal head sentinel — by prevS, until the next find.
func (h *HPHandle) find(key int64) (prev uint64, cur atomicx.Ref, found bool) {
	l := &h.l
retry:
	prev = l.Head
	h.prevS.Clear()
	cur = hp.ProtectFrom(h.curS, &l.Pool.At(prev).Next)
	yc := 0
	for {
		atomicx.StepYield(&yc)
		if cur.IsNil() {
			return prev, cur, false
		}
		curN := l.At(cur)
		next := curN.Next.Load()
		if next.Tag() != 0 {
			// cur is marked: help unlink. The CAS both validates that
			// cur is still reachable from prev and removes it.
			next = next.Untagged()
			if !l.Pool.At(prev).Next.CompareAndSwap(cur, next) {
				goto retry
			}
			l.Pool.Hdr(cur.Slot()).Retire()
			h.retire(cur.Slot())
			// Re-protect the new current from prev (validated).
			cur = hp.ProtectFrom(h.curS, &l.Pool.At(prev).Next)
			// prev.next may have changed again; ProtectFrom revalidated
			// against the live prev, so simply continue.
			if cur.Tag() != 0 {
				goto retry // prev itself got marked
			}
			continue
		}
		if k := curN.Key.Load(); k >= key {
			return prev, cur, k == key
		}
		// Shift the window: cur becomes prev; protect next as new cur,
		// validated against (the still-protected) cur.
		nextRef := hp.ProtectFrom(h.nextS, &curN.Next)
		if nextRef.Tag() != 0 {
			continue // cur got marked; handle it in the next iteration
		}
		if nextRef != next {
			next = nextRef
			continue
		}
		prev = cur.Slot()
		h.prevS, h.curS, h.nextS = h.curS, h.nextS, h.prevS
		cur = next
	}
}

func (h *HPHandle) retire(slot uint64) { h.h.Retire(slot, h.l.Pool) }

// release is a no-op: the shields hold the position until the next find
// overwrites them, exactly as in Michael's algorithm.
func (h *HPHandle) release() {}

// Get returns the value mapped to key.
func (h *HPHandle) Get(key int64) (int64, bool) { return h.helpingGet(key) }
