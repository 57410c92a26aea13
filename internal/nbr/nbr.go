// Package nbr implements NBR(+) — neutralization-based reclamation (Singh,
// Brown, Mashtizadeh, PPoPP 2021 / TPDS 2024) — the signal-based-rollback
// baseline the paper compares against (§2.3).
//
// Operations on access-aware data structures alternate read phases and
// write phases. A read phase traverses without per-node protection; before
// transitioning to a write phase the thread publishes *reservations*
// (HP-style slots) for the nodes the write phase will touch. A reclaimer
// whose retired batch reaches the threshold *broadcasts* a neutralization
// signal to every other thread — this is NBR's coarse policy, versus
// BRCU's selective, threshold-gated targeting — and may then free all
// nodes retired before the broadcast that no reservation covers. A
// neutralized thread restarts its operation from the data structure's
// entry point, which is what starves long-running operations (Figure 1).
//
// NBR+ adds signal piggybacking: a reclaimer that observes a broadcast by
// someone else since its batch began skips its own broadcast.
//
// Signals use the same cooperative-neutralization substitution as
// internal/brcu (see that package and DESIGN.md §2): delivery is a CAS on
// the victim's status word, observed at the victim's next poll; results
// and writes commit only through polls/phase transitions, so the
// no-acknowledgement protocol preserves NBR's non-blocking robustness.
package nbr

import (
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/registry"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Thread phases.
const (
	phaseOut uint64 = iota
	phaseRead
	phaseWrite
	phaseNeut
)

// DefaultBatchSize matches the paper's evaluation: reclamation is
// triggered per 128 retirements; NBR-Large uses 8192.
const (
	DefaultBatchSize = 128
	LargeBatchSize   = 8192
)

// MaxReservations is the number of reservation slots per thread. The
// structures NBR applies to need at most four (list excision: prev, run
// head, run end; tree: ancestor/successor/parent/leaf).
const MaxReservations = 8

// Domain is one NBR reclamation domain.
type Domain struct {
	handles   registry.Registry[Handle]
	rec       *stats.Reclamation
	batchSize int

	// broadcastSeq counts neutralization broadcasts; retired records are
	// stamped with it so a record is freeable once a broadcast happened
	// after its retirement (and no reservation covers it).
	broadcastSeq atomic.Uint64

	// held collects retired records that were reserved at scan time;
	// future reclaim passes retry them.
	heldMu sync.Mutex
	held   []stamped
}

type stamped struct {
	r   alloc.Retired
	seq uint64
}

// Option configures a Domain.
type Option func(*Domain)

// WithBatchSize sets the retire batch threshold.
func WithBatchSize(n int) Option {
	return func(d *Domain) {
		if n > 0 {
			d.batchSize = n
		}
	}
}

// NewDomain creates an NBR domain reporting into rec (nil allocates one).
func NewDomain(rec *stats.Reclamation, opts ...Option) *Domain {
	if rec == nil {
		rec = &stats.Reclamation{}
	}
	d := &Domain{rec: rec, batchSize: DefaultBatchSize}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Stats returns the domain's reclamation statistics.
func (d *Domain) Stats() *stats.Reclamation { return d.rec }

// Handle is one thread's participation record: its phase word, its
// reservation slots and its private retire batch. Not safe for concurrent
// use by multiple goroutines; only the status word and the reservations
// are read by other threads (reclaimers).
type Handle struct {
	status atomic.Uint64
	_      atomicx.PadAfter
	resv   [MaxReservations]atomic.Uint64
	_      atomicx.PadAfter

	d     *Domain
	batch []stamped
	frees alloc.Frees // a pass's freeable nodes, freed per pool at once
}

// Register adds a thread to the domain.
func (d *Domain) Register() *Handle {
	h := &Handle{d: d}
	d.handles.Add(h)
	return h
}

// Unregister removes the thread, handing pending retired records to the
// domain.
func (h *Handle) Unregister() {
	h.ClearReservations()
	h.status.Store(phaseOut)
	if len(h.batch) > 0 {
		h.d.heldMu.Lock()
		h.d.held = append(h.d.held, h.batch...)
		h.d.heldMu.Unlock()
		h.batch = nil
	}
	h.d.handles.Remove(h)
}

// StartRead begins (or restarts) a read phase. Any pending neutralization
// is absorbed: the caller is starting over from the entry point anyway.
func (h *Handle) StartRead() {
	h.status.Store(phaseRead)
}

// Poll reports false when this thread has been neutralized; the operation
// must then restart from the entry point (via StartRead).
func (h *Handle) Poll() bool {
	return h.status.Load() != phaseNeut
}

// Reserve publishes a reservation for slot in reservation slot i. It must
// be called during the read phase, before EnterWrite, for every node the
// write phase will touch.
func (h *Handle) Reserve(i int, slot uint64) {
	h.resv[i].Store(slot)
}

// ClearReservations drops all reservations.
func (h *Handle) ClearReservations() {
	for i := range h.resv {
		h.resv[i].Store(0)
	}
}

// EnterWrite transitions read phase → write phase. It fails — and the
// operation must restart — if the thread was neutralized; on success the
// reservations published before the call are visible to every future
// reclaimer, and the write phase can no longer be aborted.
func (h *Handle) EnterWrite() bool {
	return h.status.CompareAndSwap(phaseRead, phaseWrite)
}

// EndRead concludes a read-only operation. It fails if the thread was
// neutralized, in which case the result must be discarded and the
// operation restarted (the cooperative analogue of the signal landing just
// before the operation's end).
func (h *Handle) EndRead() bool {
	return h.status.CompareAndSwap(phaseRead, phaseOut)
}

// EndOp concludes an operation after a write phase.
func (h *Handle) EndOp() {
	h.status.Store(phaseOut)
}

// RecordRestart counts one neutralization-forced restart.
func (h *Handle) RecordRestart() { h.d.rec.Rollbacks.Inc() }

// Retire schedules a node for reclamation. Must be called in a write
// phase (or outside any operation): retirement is not abortable.
func (h *Handle) Retire(slot uint64, pool alloc.Freer) {
	d := h.d
	d.rec.Retired.Inc()
	d.rec.Unreclaimed.Add(1)
	h.batch = append(h.batch, stamped{r: alloc.Retired{Slot: slot, Pool: pool}, seq: d.broadcastSeq.Load()})
	if len(h.batch) < d.batchSize {
		return
	}
	h.reclaim()
}

// reclaim broadcasts (or piggybacks on) a neutralization and frees every
// sufficiently old, unreserved retired node.
func (h *Handle) reclaim() {
	d := h.d
	seq := d.broadcastSeq.Load()

	// NBR+ piggybacking: if every record in the batch predates the latest
	// broadcast, someone else's signal already covers it — skip ours.
	needBroadcast := false
	for _, s := range h.batch {
		if s.seq >= seq {
			needBroadcast = true
			break
		}
	}
	if needBroadcast {
		// Broadcast: neutralize EVERY other thread in a read phase —
		// NBR's coarse policy (§2.3).
		for _, other := range d.handles.Snapshot() {
			if other == h {
				continue
			}
			for {
				st := other.status.Load()
				if st != phaseRead {
					break // Out, Write (not abortable), or already Neut
				}
				if other.status.CompareAndSwap(phaseRead, phaseNeut) {
					d.rec.Signals.Inc()
					break
				}
			}
		}
		seq = d.broadcastSeq.Add(1)
		d.rec.EpochAdvances.Inc() // broadcast counter, for uniform reporting
	}

	// Adopt held records and free everything stamped before the latest
	// broadcast that no reservation covers.
	d.heldMu.Lock()
	work := make([]stamped, 0, len(h.batch)+len(d.held))
	work = append(append(work, h.batch...), d.held...)
	d.held = nil
	d.heldMu.Unlock()
	h.batch = h.batch[:0]

	reserved := make(map[uint64]struct{})
	for _, other := range d.handles.Snapshot() {
		for i := range other.resv {
			if s := other.resv[i].Load(); s != 0 {
				reserved[s] = struct{}{}
			}
		}
	}

	var keep []stamped
	freed := int64(0)
	for _, s := range work {
		if s.seq >= seq {
			keep = append(keep, s) // no broadcast since its retirement yet
			continue
		}
		if _, ok := reserved[s.r.Slot]; ok {
			keep = append(keep, s)
			continue
		}
		h.frees.Add(s.r)
		freed++
	}
	h.frees.Flush()
	if len(keep) > 0 {
		d.heldMu.Lock()
		d.held = append(d.held, keep...)
		d.heldMu.Unlock()
	}
	if freed > 0 {
		d.rec.Reclaimed.Add(freed)
		d.rec.Unreclaimed.Add(-freed)
	}
}

// Barrier forces broadcasts until this thread's pending records drain.
// Teardown/tests only.
func (h *Handle) Barrier() {
	for i := 0; i < 4; i++ {
		// Force a broadcast by stamping a sentinel need.
		d := h.d
		for _, other := range d.handles.Snapshot() {
			if other == h {
				continue
			}
			for {
				st := other.status.Load()
				if st != phaseRead {
					break
				}
				if other.status.CompareAndSwap(phaseRead, phaseNeut) {
					d.rec.Signals.Inc()
					break
				}
			}
		}
		d.broadcastSeq.Add(1)
		h.reclaim()
	}
}
