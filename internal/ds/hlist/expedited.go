package hlist

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a list or hash map protected by HP-RCU or HP-BRCU
// (Algorithm 8). This is the combination plain HP cannot express (Figure
// 2): traversal follows links out of marked — possibly retired — nodes,
// protected coarsely by the (bounded) critical section with periodic HP
// checkpoints, and the physical deletion of marked nodes — the write that
// defeats NBR on Harris-Michael — runs inside an abort-masked region.
type Expedited struct {
	set
	dom *core.Domain
}

// NewExpeditedOf creates a member of the family with the given number of
// head sentinels under HP-RCU (§3) or HP-BRCU (§4).
func NewExpeditedOf(backend core.Backend, k Kind, heads int, cfg core.Config) *Expedited {
	return &Expedited{set: newSet(k, heads), dom: core.NewDomain(backend, cfg)}
}

// NewHPRCU creates a Harris list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	return NewExpeditedOf(core.BackendRCU, Harris, 1, cfg)
}

// NewHPBRCU creates a Harris list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	return NewExpeditedOf(core.BackendBRCU, Harris, 1, cfg)
}

// Stats exposes reclamation statistics.
func (l *Expedited) Stats() *stats.Reclamation { return l.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain (for bound checks).
func (l *Expedited) Domain() *core.Domain { return l.dom }

// cursor is the search cursor (Algorithm 8's ListCursor): predecessor
// slot + current reference.
type cursor struct {
	prev uint64
	cur  atomicx.Ref
}

// protector checkpoints a cursor into two shields (Algorithm 8's
// ListCursorProtector).
type protector struct{ prevS, curS *hp.Shield }

func newProtector(h *core.Handle) *protector {
	return &protector{prevS: h.NewShield(), curS: h.NewShield()}
}

// Protect implements core.Protector.
func (p *protector) Protect(c *cursor) {
	p.prevS.ProtectSlot(c.prev)
	p.curS.Protect(c.cur)
}

// ClearProtection releases both shields (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *protector) ClearProtection() {
	p.prevS.Clear()
	p.curS.Clear()
}

// getCursor is the read-only optimistic traversal cursor (HHS get).
type getCursor struct{ cur atomicx.Ref }

type getProtector struct{ curS *hp.Shield }

func (p *getProtector) Protect(c *getCursor) { p.curS.Protect(c.cur) }

// ClearProtection releases the shield (core.ProtectionClearer).
func (p *getProtector) ClearProtection() { p.curS.Clear() }

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	ops
	h *core.Handle

	prot, backup       *protector
	getProt, getBackup *getProtector
	maskPrevS          *hp.Shield
	maskRunS           *hp.Shield
	maskEndS           *hp.Shield

	// Handle-owned traversal state, one buffer per traversal, so
	// traversals never heap-allocate their cursors.
	searchBuf core.CursorBuf[cursor]
	getBuf    core.CursorBuf[getCursor]
}

// Register creates a thread handle.
func (l *Expedited) Register() *ExpeditedHandle {
	d := l.dom.Register()
	h := &ExpeditedHandle{
		h:         d,
		prot:      newProtector(d),
		backup:    newProtector(d),
		getProt:   &getProtector{curS: d.NewShield()},
		getBackup: &getProtector{curS: d.NewShield()},
		maskPrevS: d.NewShield(),
		maskRunS:  d.NewShield(),
		maskEndS:  d.NewShield(),
	}
	h.searchBuf.Init(d, h.prot, h.backup)
	h.getBuf.Init(d, h.getProt, h.getBackup)
	h.init(&l.set, h)
	return h
}

// Unregister releases the handle (and, through hp.Handle.Unregister, every
// shield it owns).
func (h *ExpeditedHandle) Unregister() { h.h.Unregister() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer can arrange its adoption (core.AdoptWhenUnreachable).
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// search runs the expedited Harris search (Algorithm 8's TrySearch) once:
// ok is false when the operation must be retried (failed revalidation or a
// lost helping CAS, §4.3); otherwise the position is HP-protected. It is
// ebr.go's loop with Step before every node: a marked node, a failed poll
// or a spent countdown goes to the buffer's Walk — which excises the run in
// its masked region, rolls back or checkpoints — and at the destination
// prev and cur are shielded before Conclude's poll commits them, so the
// position outlives the section.
func (h *ExpeditedHandle) search(key int64) (uint64, atomicx.Ref, bool, bool) {
	l := &h.l
	a := h.searchBuf.Try()
	c := h.entry()
	for {
		if !a.Step() {
			var ok bool
			if c, ok = h.searchBuf.Walk(&a, c, h.entry, h.resumable, nil); !ok {
				return 0, atomicx.Nil, false, false
			}
		}
		found := false
		if !c.cur.IsNil() {
			curN := l.At(c.cur)
			next := curN.Next.Load()
			if next.Tag() != 0 {
				var ok bool
				if c, ok = h.searchBuf.Walk(&a, c, h.entry, h.resumable, h.excise); !ok {
					return 0, atomicx.Nil, false, false
				}
				continue
			}
			k := curN.Key.Load()
			if k < key {
				c = cursor{prev: c.cur.Slot(), cur: next}
				continue
			}
			found = k == key
		}
		h.searchBuf.Shield(c)
		if a.Conclude() {
			return c.prev, c.cur, found, true
		}
	}
}

// entry is search's init: the head's link.
func (h *ExpeditedHandle) entry() cursor {
	return cursor{prev: h.l.Head, cur: h.l.Pool.At(h.l.Head).Next.Load()}
}

// resumable is search's valid: resuming is safe while cur is not logically
// deleted (§3.3). A nil cur cannot be marked, so prev stands in for it.
func (h *ExpeditedHandle) resumable(c *cursor) bool {
	l := &h.l
	if c.cur.IsNil() {
		return l.Pool.At(c.prev).Next.Load().Tag() == 0
	}
	return l.At(c.cur).Next.Load().Tag() == 0
}

// excise unlinks the marked run starting at c.cur from c.prev inside an
// abort-masked region — physical deletion is rollback-safe but not
// abort-rollback-safe, it retires — and moves c.cur past it. The run is
// captured into a buffer before the masked writes so retirement never
// re-reads a link after a retire, and the excision operands (predecessor,
// run head, excision target) are protected by outliving shields beforehand
// so the masked CAS can never act on recycled slots (the ABA guard the
// paper notes in footnote 6). It reports whether the CAS won; Walk's poll
// after it tells whether the section was neutralized before or during the
// region.
func (h *ExpeditedHandle) excise(c *cursor) bool {
	l := &h.l
	end := h.runEnd(c.cur)
	h.maskPrevS.ProtectSlot(c.prev)
	h.maskRunS.Protect(c.cur)
	h.maskEndS.Protect(end)
	ok := false
	h.h.Mask(func() {
		if l.Pool.At(c.prev).Next.CompareAndSwap(c.cur, end) {
			h.retireRun()
			ok = true
		}
	})
	if ok {
		c.cur = end
	}
	return ok
}

// find repeats search until a traversal finishes: the position it returns
// is HP-protected by prot, so the caller's CASes run outside the critical
// section exactly as with plain hazard pointers.
func (h *ExpeditedHandle) find(key int64) (uint64, atomicx.Ref, bool) {
	for attempt := 0; ; attempt++ {
		if prev, cur, found, ok := h.search(key); ok {
			return prev, cur, found
		}
		if attempt > 0 {
			runtime.Gosched() // break single-CPU retry ping-pongs
		}
	}
}

// retire is the two-step retirement; legal outside critical sections.
func (h *ExpeditedHandle) retire(slot uint64) { h.h.Retire(slot, h.l.Pool) }

// release is a no-op: prot holds the position until the next traversal.
func (h *ExpeditedHandle) release() {}

// Get returns the value mapped to key: the helping search, or the
// optimistic contains on an HHS list.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	if h.hhs {
		return h.GetOptimistic(key)
	}
	return h.helpingGet(key)
}

// GetOptimistic is the HHSList wait-free-style contains (see contains): a
// pure read traversal through marked nodes. Under HP-BRCU it is only
// lock-free (rollbacks may retry it), matching the paper's footnote 9.
// It repeats contains until a traversal finishes: a checkpoint that no
// longer validates restarts it.
func (h *ExpeditedHandle) GetOptimistic(key int64) (int64, bool) {
	h.bind(key)
	for attempt := 0; ; attempt++ {
		if val, found, ok := h.contains(key); ok {
			return val, found
		}
		if attempt > 0 {
			runtime.Gosched() // checkpointed on a node that got marked; rare
		}
	}
}

// contains runs the optimistic read once: ok is false when it must be
// retried from scratch. It is ebr.go's loop with Step before every node;
// the value is read whole before Conclude's poll commits it.
func (h *ExpeditedHandle) contains(key int64) (int64, bool, bool) {
	l := &h.l
	a := h.getBuf.Try()
	c := h.getEntry()
	for {
		if !a.Step() {
			var ok bool
			if c, ok = h.getBuf.Walk(&a, c, h.getEntry, h.getResumable, nil); !ok {
				return 0, false, false
			}
		}
		var n *lnode.Node
		if !c.cur.IsNil() {
			if n = l.At(c.cur); n.Key.Load() < key {
				c.cur = n.Next.Load().Untagged()
				continue
			}
		}
		val, found := answer(n, key)
		if a.Conclude() {
			return val, found, true
		}
	}
}

// getEntry is contains's init.
func (h *ExpeditedHandle) getEntry() getCursor {
	return getCursor{cur: h.l.Pool.At(h.l.Head).Next.Load().Untagged()}
}

// getResumable is contains's valid.
func (h *ExpeditedHandle) getResumable(c *getCursor) bool {
	return c.cur.IsNil() || h.l.At(c.cur).Next.Load().Tag() == 0
}

// answer is what a read returns from the node its traversal stopped at.
func answer(n *lnode.Node, key int64) (val int64, found bool) {
	if found = n != nil && n.Key.Load() == key && n.Next.Load().Tag() == 0; found {
		val = n.Val.Load()
	}
	return val, found
}
