package hlist

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// EBR is a list or hash map protected by epoch-based RCU (or by nothing in
// NR mode): every operation runs inside one critical section, so traversal
// needs no per-node protection, but a stalled or long-running reader
// blocks all reclamation (§2.2). The RCU is a BRCU domain that never
// signals, the one under HP-RCU too.
type EBR struct {
	set
	dom *brcu.Domain
}

// NewEBROf creates a member of the family with the given number of head
// sentinels (1 = a list, n = a hash map), reclaimed by epoch-based RCU;
// brcu.NoReclaim among opts makes it the NR baseline. brcu.NeverSignal
// is added after opts: a signal would let the advance free nodes a
// section still reads, since these sections never poll.
func NewEBROf(k Kind, heads int, opts ...brcu.Option) *EBR {
	return &EBR{set: newSet(k, heads), dom: brcu.NewDomain(nil, append(opts, brcu.NeverSignal())...)}
}

// NewEBR creates a Harris list reclaimed by epoch-based RCU.
func NewEBR(opts ...brcu.Option) *EBR { return NewEBROf(Harris, 1, opts...) }

// NewNR creates the no-reclamation baseline.
func NewNR() *EBR { return NewEBR(brcu.NoReclaim()) }

// Domain exposes the underlying reclamation domain.
func (l *EBR) Domain() *brcu.Domain { return l.dom }

// Stats exposes reclamation statistics.
func (l *EBR) Stats() *stats.Reclamation { return l.dom.Stats() }

// EBRHandle is one thread's accessor.
type EBRHandle struct {
	ops
	h *brcu.Handle
}

// Register creates a thread handle.
func (l *EBR) Register() *EBRHandle {
	h := &EBRHandle{h: l.dom.Register()}
	h.init(&l.set, h)
	return h
}

// Unregister releases the handle.
func (h *EBRHandle) Unregister() { h.h.Unregister() }

// Barrier drains reclamation (teardown/tests).
func (h *EBRHandle) Barrier() { h.h.Barrier() }

// find pins and runs Harris's search: it returns an unmarked (prev, cur)
// bracketing key, excising the marked runs it meets. The pin is what makes
// following links out of marked nodes safe, and what release drops.
func (h *EBRHandle) find(key int64) (prev uint64, cur atomicx.Ref, found bool) {
	h.h.Enter()
	l := &h.l
retry:
	prev = l.Head
	cur = l.Pool.At(prev).Next.Load() // head is never marked
	yc := 0
	for {
		atomicx.StepYield(&yc)
		if cur.IsNil() {
			return prev, cur, false
		}
		curN := l.At(cur)
		next := curN.Next.Load()
		if next.Tag() != 0 {
			// cur starts a marked run: excise [cur, end) in one CAS —
			// Harris's optimistic deletion (one node under run bound 1,
			// the helping write that keeps NBR off Harris-Michael).
			end := h.runEnd(cur)
			if !l.Pool.At(prev).Next.CompareAndSwap(cur, end) {
				goto retry
			}
			h.retireRun()
			cur = end
			continue
		}
		if k := curN.Key.Load(); k >= key {
			return prev, cur, k == key
		}
		prev = cur.Slot()
		cur = next
	}
}

func (h *EBRHandle) retire(slot uint64) { h.h.Defer(slot, h.l.Pool) }
func (h *EBRHandle) release()           { h.h.Exit() }

// Get returns the value mapped to key: the helping search, or the
// optimistic contains on an HHS list.
func (h *EBRHandle) Get(key int64) (int64, bool) {
	if h.hhs {
		return h.GetOptimistic(key)
	}
	return h.helpingGet(key)
}

// GetOptimistic is the HHSList wait-free-style contains: a pure read
// traversal through marked nodes, no helping, mark checked at the end.
func (h *EBRHandle) GetOptimistic(key int64) (val int64, found bool) {
	h.bind(key)
	h.h.Enter()
	l := &h.l
	cur := l.Pool.At(l.Head).Next.Load().Untagged()
	yc := 0
	for !cur.IsNil() && l.At(cur).Key.Load() < key {
		atomicx.StepYield(&yc)
		cur = l.At(cur).Next.Load().Untagged()
	}
	if !cur.IsNil() {
		n := l.At(cur)
		if n.Key.Load() == key && n.Next.Load().Tag() == 0 {
			val, found = n.Val.Load(), true
		}
	}
	h.h.Exit()
	return val, found
}
