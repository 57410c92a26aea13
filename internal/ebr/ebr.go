// Package ebr implements epoch-based RCU (Fraser 2004; §2.2 of the paper):
// a global epoch, per-thread pinned local epochs, deferred tasks tagged with
// the epoch at which they were scheduled, and the e+2 execution rule — a
// task deferred at global epoch e runs only once the global epoch has
// reached e+2, because every critical section pinned at e or e-1 must have
// exited by then.
//
// The same package provides the NR (no reclamation) baseline: a domain in
// NR mode counts retires but never frees, reproducing the paper's leaking
// upper-bound baseline.
//
// It serves those two baselines and nothing else: the RCU under HP-RCU is
// internal/brcu's with signals off (internal/core), so a node deferred here
// is simply freed once its grace period has elapsed.
package ebr

import (
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/registry"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// DefaultBatchSize is the per-thread deferred-task count that triggers a
// flush and an epoch-advance attempt (the paper advances per 128 retires).
const DefaultBatchSize = 128

// unpinned is the local-epoch value of a thread outside any critical
// section. Pinned threads store epoch+1 so that 0 can mean "unpinned".
const unpinned = 0

type taggedBatch struct {
	epoch uint64
	tasks []alloc.Retired
}

// Domain is one epoch-reclamation domain, typically owned by a single data
// structure instance.
type Domain struct {
	epoch     atomic.Uint64
	_         atomicx.PadAfter
	handles   registry.Registry[Handle]
	rec       *stats.Reclamation
	batchSize int
	noReclaim bool // NR mode: count, never free

	tasksMu sync.Mutex
	tasks   []taggedBatch
}

// Option configures a Domain.
type Option func(*Domain)

// WithBatchSize overrides the per-thread defer batch size.
func WithBatchSize(n int) Option {
	return func(d *Domain) {
		if n > 0 {
			d.batchSize = n
		}
	}
}

// NoReclaim turns the domain into the NR baseline: Defer counts the node as
// retired but the node is never freed and never reused.
func NoReclaim() Option {
	return func(d *Domain) { d.noReclaim = true }
}

// NewDomain creates a domain reporting into rec (nil allocates a private
// one).
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

// Epoch returns the current global epoch.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// Handle is one thread's participation record; not safe for concurrent use
// by multiple goroutines.
type Handle struct {
	local atomic.Uint64 // 0 = unpinned, else epoch+1
	_     atomicx.PadAfter

	d     *Domain
	batch []alloc.Retired
	frees alloc.Frees // per-pool free batches for reclaim
}

// Register adds a thread to the domain.
func (d *Domain) Register() *Handle {
	h := &Handle{d: d}
	d.handles.Add(h)
	return h
}

// reclaim frees one expired batch, a pool's share at a time, and books it
// once.
func (h *Handle) reclaim(rs []alloc.Retired) {
	h.frees.FreeAll(rs)
	n := int64(len(rs))
	h.d.rec.Reclaimed.Add(n)
	h.d.rec.Unreclaimed.Add(-n)
}

// Unregister removes the thread, flushing its pending batch to the global
// task list first so nothing leaks.
func (h *Handle) Unregister() {
	if h.local.Load() != unpinned {
		panic("ebr: unregister while pinned")
	}
	if len(h.batch) > 0 {
		h.flush()
	}
	h.d.handles.Remove(h)
}

// Pin enters a critical section (CriticalSection's prologue, §2.2): the
// thread announces the current global epoch. All loads/stores are SC, which
// gives the required store-load ordering against reclaimers.
func (h *Handle) Pin() {
	e := h.d.epoch.Load()
	h.local.Store(e + 1)
}

// Unpin leaves the critical section.
func (h *Handle) Unpin() {
	h.local.Store(unpinned)
}

// Defer schedules the node for reclamation after a grace period
// (Algorithm 2's Defer specialized to retirement). Must not be called while
// the effect could be lost on rollback; see package brcu for the bounded
// variant.
func (h *Handle) Defer(slot uint64, pool alloc.Freer) {
	d := h.d
	d.rec.Retired.Inc()
	d.rec.Unreclaimed.Add(1)
	if d.noReclaim {
		return // NR baseline: leak
	}
	h.batch = append(h.batch, alloc.Retired{Slot: slot, Pool: pool})
	if len(h.batch) >= d.batchSize {
		h.flush()
		h.tryAdvance()
		h.collect()
	}
}

// flush migrates the local batch to the global task list tagged with the
// current global epoch (Algorithm 5 line 26's analogue for plain RCU).
func (h *Handle) flush() {
	d := h.d
	e := d.epoch.Load()
	tasks := make([]alloc.Retired, len(h.batch))
	copy(tasks, h.batch)
	h.batch = h.batch[:0]

	d.tasksMu.Lock()
	d.tasks = append(d.tasks, taggedBatch{epoch: e, tasks: tasks})
	d.tasksMu.Unlock()
}

// tryAdvance increments the global epoch if every pinned thread has
// announced the current epoch; otherwise it gives up (plain RCU never
// forces — that is BRCU's job).
func (h *Handle) tryAdvance() bool {
	d := h.d
	e := d.epoch.Load()
	for _, other := range d.handles.Snapshot() {
		l := other.local.Load()
		if l != unpinned && l-1 != e {
			return false
		}
	}
	if d.epoch.CompareAndSwap(e, e+1) {
		d.rec.EpochAdvances.Inc()
		return true
	}
	return false
}

// collect executes every globally queued task whose epoch is at least two
// behind the current global epoch (the e+2 rule).
func (h *Handle) collect() {
	d := h.d
	e := d.epoch.Load()
	if e < 2 {
		return
	}
	limit := e - 2

	d.tasksMu.Lock()
	var run []taggedBatch
	kept := d.tasks[:0] // in-place filter: kept elements only move left
	for _, b := range d.tasks {
		if b.epoch <= limit {
			run = append(run, b)
		} else {
			kept = append(kept, b)
		}
	}
	// Drop the moved-out tail: an expired batch left in the spare capacity
	// would keep its backing array reachable for as long as the domain idles.
	clear(d.tasks[len(kept):])
	d.tasks = kept
	d.tasksMu.Unlock()

	for _, b := range run {
		h.reclaim(b.tasks)
	}
}

// Barrier flushes this handle's pending deferred tasks and repeatedly
// advances the epoch until they have all executed. It must be called while
// unpinned; other threads must also be unpinned for it to terminate. Tests
// and teardown paths use it to drain the domain.
func (h *Handle) Barrier() {
	if h.d.noReclaim {
		return
	}
	h.flush()
	for i := 0; i < 4; i++ {
		h.tryAdvance()
		h.collect()
	}
}
