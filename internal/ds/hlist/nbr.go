package hlist

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/nbr"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// NBR is a Harris list or hash map protected by neutralization-based
// reclamation. The list is access-aware here because every write — run
// excision, insertion, marking — happens in a write phase on reserved
// nodes, and after a write the traversal restarts from the entry point
// (§2.3). A neutralization at any point in the read phase restarts the
// whole operation, which is what starves long-running operations. The
// restart after every helping write is also why NBR does not apply to the
// Harris-Michael kind (Table 1): a traversal that unlinks as it goes
// would never get past a marked prefix.
//
// Reservation slots: 0 = prev, 1 = cur/run head, 2 = run end.
type NBR struct {
	set
	dom *nbr.Domain
}

// NewNBROf creates a member of the family with the given number of head
// sentinels under NBR. Its Get is a pure read for every kind.
func NewNBROf(k Kind, heads int, opts ...nbr.Option) *NBR {
	return &NBR{set: newSet(k, heads), dom: nbr.NewDomain(nil, opts...)}
}

// NewNBR creates an NBR-protected Harris list (batch 128).
func NewNBR(opts ...nbr.Option) *NBR { return NewNBROf(Harris, 1, opts...) }

// NewNBRLarge creates the paper's NBR-Large configuration (batch 8192);
// the batch size is applied on top of opts.
func NewNBRLarge(opts ...nbr.Option) *NBR {
	return NewNBR(append(opts[:len(opts):len(opts)], nbr.WithBatchSize(nbr.LargeBatchSize))...)
}

// Domain exposes the underlying reclamation domain.
func (l *NBR) Domain() *nbr.Domain { return l.dom }

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
	h.init(&l.set, h)
	return h
}

// Unregister releases the handle.
func (h *NBRHandle) Unregister() { h.h.Unregister() }

// Barrier drains reclamation (teardown/tests).
func (h *NBRHandle) Barrier() { h.h.Barrier() }

// searchResult is what one read-phase traversal attempt produces.
type searchResult int

const (
	srRestart searchResult = iota // neutralized or helped: start over
	srFound
	srNotFound
)

// searchOnce runs one read phase from the entry point. When it meets a
// marked run it reserves the excision operands, transitions to a write
// phase, excises, and asks for a restart (access-aware discipline: reads
// resume only from entry points after a write). On srFound/srNotFound the
// thread is in a write phase with prev (slot 0) and cur (slot 1) reserved.
func (h *NBRHandle) searchOnce(key int64) (prev uint64, cur atomicx.Ref, res searchResult) {
	l := &h.l
	h.h.StartRead()
	prev = l.Head
	cur = l.Pool.At(prev).Next.Load()
	yc := 0
	for {
		atomicx.StepYield(&yc)
		if !h.h.Poll() {
			h.h.RecordRestart()
			return 0, atomicx.Nil, srRestart
		}
		if cur.IsNil() {
			h.h.Reserve(0, prev)
			h.h.Reserve(1, 0)
			if !h.h.EnterWrite() {
				h.h.RecordRestart()
				return 0, atomicx.Nil, srRestart
			}
			return prev, cur, srNotFound
		}
		curN := l.At(cur)
		next := curN.Next.Load()
		if next.Tag() != 0 {
			// Marked run: reserve operands, excise in a write phase,
			// then restart from the entry point.
			end := h.runEnd(cur)
			h.h.Reserve(0, prev)
			h.h.Reserve(1, cur.Slot())
			h.h.Reserve(2, end.Slot())
			if !h.h.EnterWrite() {
				h.h.RecordRestart()
				return 0, atomicx.Nil, srRestart
			}
			if l.Pool.At(prev).Next.CompareAndSwap(cur, end) {
				h.retireRun()
			}
			h.release()
			return 0, atomicx.Nil, srRestart
		}
		if k := curN.Key.Load(); k >= key {
			h.h.Reserve(0, prev)
			h.h.Reserve(1, cur.Slot())
			if !h.h.EnterWrite() {
				h.h.RecordRestart()
				return 0, atomicx.Nil, srRestart
			}
			if k == key {
				return prev, cur, srFound
			}
			return prev, cur, srNotFound
		}
		prev = cur.Slot()
		cur = next
	}
}

// find repeats searchOnce until one read phase reaches key's position and
// enters its write phase.
func (h *NBRHandle) find(key int64) (uint64, atomicx.Ref, bool) {
	for {
		if prev, cur, res := h.searchOnce(key); res != srRestart {
			return prev, cur, res == srFound
		}
	}
}

func (h *NBRHandle) retire(slot uint64) { h.h.Retire(slot, h.l.Pool) }

// release ends the write phase and drops the reservations.
func (h *NBRHandle) release() {
	h.h.EndOp()
	h.h.ClearReservations()
}

// Get returns the value mapped to key. The traversal is a pure read
// phase; a broadcast anywhere during it restarts it from the entry point.
func (h *NBRHandle) Get(key int64) (int64, bool) {
	h.bind(key)
	l := &h.l
	for {
		h.h.StartRead()
		cur := l.Pool.At(l.Head).Next.Load().Untagged()
		yc := 0
		for !cur.IsNil() && l.At(cur).Key.Load() < key {
			atomicx.StepYield(&yc)
			if !h.h.Poll() {
				break
			}
			cur = l.At(cur).Next.Load().Untagged()
		}
		if !h.h.Poll() {
			h.h.RecordRestart()
			continue
		}
		var val int64
		found := false
		if !cur.IsNil() {
			n := l.At(cur)
			if n.Key.Load() == key && n.Next.Load().Tag() == 0 {
				val = n.Val.Load()
				found = true
			}
		}
		if !h.h.EndRead() {
			h.h.RecordRestart()
			continue // neutralized before commit: discard the result
		}
		return val, found
	}
}

// GetOptimistic is identical to Get for NBR (its get is already a pure
// read traversal); provided for interface parity with the other variants.
func (h *NBRHandle) GetOptimistic(key int64) (int64, bool) { return h.Get(key) }
