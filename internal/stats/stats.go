// Package stats provides the counters and high-watermark gauges used to
// report the paper's memory metric: the peak number of retired yet
// unreclaimed blocks (Figures 1b, 6b, 7 right column, and the appendix
// grids). Counters are deliberately simple atomics, one shared word each,
// so where they are bumped decides what they cost once two goroutines
// write.
//
// One update site is per node, on purpose: the retire entry points
// (core.Retire, hp.Retire, brcu.Defer, nbr.Retire) add to
// Retired and to the Unreclaimed gauge, whose peak is the §5 bound check
// and must therefore be exact at every retire. (VBR frees a node where it
// retires it, so it books Reclaimed there too.) Every other book is kept
// per batch: a reclamation pass — hp's scan, nbr's reclaim, and the BRCU
// drain's default executor, which runs one expired batch at a time —
// adds its freed count to Reclaimed and subtracts it from
// Unreclaimed once, and the handle pool flushes checkouts by 64. The
// allocator keeps no counts at all: an allocation or a free writes only
// the node's own header (internal/alloc).
package stats

import "sync/atomic"

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset sets the counter to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge tracks a signed level together with the highest level ever
// observed. It is used for the retired-but-unreclaimed block count: Retire
// adds, reclamation subtracts, and Peak reports the paper's metric.
type Gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add moves the gauge by delta and updates the recorded peak.
func (g *Gauge) Add(delta int64) {
	v := g.cur.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.cur.Load() }

// Peak returns the highest level observed since the last Reset.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// Reset zeroes both the level and the peak.
func (g *Gauge) Reset() {
	g.cur.Store(0)
	g.peak.Store(0)
}

// ResetPeak re-bases the peak at the current level, keeping the level
// itself. Benchmarks call this after prefilling so that the reported peak
// reflects only the measured interval.
//
// Ordering contract: ResetPeak only ever *lowers* the peak, and it does so
// with a CAS against the value it observed. A peak concurrently published
// by Add's CAS-max loop therefore can never be overwritten by a stale
// read: if Add raises the peak between ResetPeak's load and its CAS, the
// CAS fails and the rebase re-evaluates against the fresh peak and level.
// Under concurrent positive Adds the peak ends at least at the value of
// every Add that completes after ResetPeak returns.
func (g *Gauge) ResetPeak() {
	for {
		p := g.peak.Load()
		cur := g.cur.Load()
		if p <= cur || g.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// Reclamation aggregates the reclamation-related event counts a scheme
// exposes. All schemes share this shape so the benchmark harness can print
// uniform rows.
type Reclamation struct {
	// Retired counts nodes handed to the scheme for eventual reclamation.
	Retired Counter
	// Reclaimed counts nodes actually returned to the allocator.
	Reclaimed Counter
	// Unreclaimed tracks retired-not-yet-reclaimed nodes and their peak.
	Unreclaimed Gauge
	// Signals counts neutralization requests sent (BRCU/NBR only).
	Signals Counter
	// Rollbacks counts critical-section rollbacks taken (BRCU) or
	// operation restarts forced by neutralization (NBR).
	Rollbacks Counter
	// EpochAdvances counts successful global epoch advances.
	EpochAdvances Counter
	// ForcedAdvances counts epoch advances that required signalling.
	ForcedAdvances Counter
	// ReapedHandles counts adopted handles: dropped without Unregister
	// and found unreachable by the garbage collector, or poisoned and
	// handed over (internal/core's Adopt).
	ReapedHandles Counter
	// AdoptedNodes counts retired/deferred nodes adoption moved from
	// those handles into the domain-global reclamation paths.
	AdoptedNodes Counter
	// BackpressureThrottles counts allocations that were delayed by the
	// tiered-backpressure throttle before being admitted.
	BackpressureThrottles Counter
	// BackpressureRejects counts allocations refused with
	// ErrMemoryPressure because unreclaimed garbage reached the ceiling.
	BackpressureRejects Counter
	// PanicsRecovered counts panics that escaped user code inside a
	// critical section and were contained by the recover barrier: the
	// handle was driven through the normal abort path (or poisoned) and
	// the panic re-raised or converted per the panic policy.
	PanicsRecovered Counter
	// PoolCheckouts counts handle checkouts served by the handle pool
	// (internal/pool). The hot path accumulates per-entry and flushes in
	// batches, so the counter is exact only after the pool quiesces
	// (Close) — live reads may lag by up to one flush interval per entry.
	PoolCheckouts Counter
	// PoolExhausted counts facade operations refused with
	// ErrHandleExhausted because every pooled handle stayed checked out
	// through the bounded acquisition wait.
	PoolExhausted Counter

	// Service counters: a network service built over the facade
	// (internal/server, cmd/smrcached) records its overload-ladder
	// decisions here, on the same Reclamation its map already exposes —
	// so the cache service and the benchmark harness share one snapshot
	// and one expvar/metrics exporter.

	// AcceptedConns counts connections the server accepted into service
	// (over-capacity accepts refused at the door are not counted here).
	AcceptedConns Counter
	// ShedScans counts SCAN requests refused because the degradation
	// ladder reached its first rung (shed optional work).
	ShedScans Counter
	// RejectedWrites counts write requests refused with a protocol-level
	// busy reply — the ladder's second rung, or a load-shed error
	// (memory pressure, handle exhaustion) surfacing from the facade.
	RejectedWrites Counter
	// ClosedByLadder counts connections the server closed to shed load:
	// over-capacity accepts turned away at the door.
	ClosedByLadder Counter
	// DrainNanos accumulates the wall-clock nanoseconds graceful drains
	// took, from shutdown start to balanced books.
	DrainNanos Counter

	// The histograms below record only while the observability layer
	// (internal/obs) is enabled; see the Histogram doc comment.

	// PollLag is the epoch lag (global epoch minus announced handle
	// epoch) observed at sampled BRCU poll points, in epochs.
	PollLag Histogram
	// CSNanos is the duration of (B)RCU critical sections, in nanoseconds,
	// measured from the last Enter to the Exit: an attempt that rolls back
	// re-Enters without an Exit, so its time is not recorded separately.
	CSNanos Histogram
	// GraceNanos is the grace-period length: the age of a deferred batch
	// from its flush into the global task set until the drain that
	// executes it, in nanoseconds.
	GraceNanos Histogram
	// ReclaimAgeNanos is the retire→reclaim age of individual nodes, from
	// the outer Retire to the free, in nanoseconds.
	ReclaimAgeNanos Histogram
}

// Snapshot is a point-in-time copy of a Reclamation, safe to compare and
// print after the workers have stopped.
type Snapshot struct {
	Retired         int64
	Reclaimed       int64
	Unreclaimed     int64
	PeakUnreclaimed int64
	Signals         int64
	Rollbacks       int64
	EpochAdvances   int64
	ForcedAdvances  int64

	ReapedHandles         int64
	AdoptedNodes          int64
	BackpressureThrottles int64
	BackpressureRejects   int64
	PanicsRecovered       int64
	PoolCheckouts         int64
	PoolExhausted         int64

	AcceptedConns  int64
	ShedScans      int64
	RejectedWrites int64
	ClosedByLadder int64
	DrainNanos     int64

	// Histogram digests; all-zero unless the observability layer was
	// enabled during the run. Summaries are scalar-only, so Snapshot
	// remains comparable.
	PollLag         HistSummary
	CSNanos         HistSummary
	GraceNanos      HistSummary
	ReclaimAgeNanos HistSummary
}

// Snapshot captures the current values.
func (r *Reclamation) Snapshot() Snapshot {
	return Snapshot{
		Retired:         r.Retired.Load(),
		Reclaimed:       r.Reclaimed.Load(),
		Unreclaimed:     r.Unreclaimed.Load(),
		PeakUnreclaimed: r.Unreclaimed.Peak(),
		Signals:         r.Signals.Load(),
		Rollbacks:       r.Rollbacks.Load(),
		EpochAdvances:   r.EpochAdvances.Load(),
		ForcedAdvances:  r.ForcedAdvances.Load(),

		ReapedHandles:         r.ReapedHandles.Load(),
		AdoptedNodes:          r.AdoptedNodes.Load(),
		BackpressureThrottles: r.BackpressureThrottles.Load(),
		BackpressureRejects:   r.BackpressureRejects.Load(),
		PanicsRecovered:       r.PanicsRecovered.Load(),
		PoolCheckouts:         r.PoolCheckouts.Load(),
		PoolExhausted:         r.PoolExhausted.Load(),

		AcceptedConns:  r.AcceptedConns.Load(),
		ShedScans:      r.ShedScans.Load(),
		RejectedWrites: r.RejectedWrites.Load(),
		ClosedByLadder: r.ClosedByLadder.Load(),
		DrainNanos:     r.DrainNanos.Load(),

		PollLag:         r.PollLag.Summary(),
		CSNanos:         r.CSNanos.Summary(),
		GraceNanos:      r.GraceNanos.Summary(),
		ReclaimAgeNanos: r.ReclaimAgeNanos.Summary(),
	}
}

// Reset zeroes every counter and gauge.
func (r *Reclamation) Reset() {
	r.Retired.Reset()
	r.Reclaimed.Reset()
	r.Unreclaimed.Reset()
	r.Signals.Reset()
	r.Rollbacks.Reset()
	r.EpochAdvances.Reset()
	r.ForcedAdvances.Reset()
	r.ReapedHandles.Reset()
	r.AdoptedNodes.Reset()
	r.BackpressureThrottles.Reset()
	r.BackpressureRejects.Reset()
	r.PanicsRecovered.Reset()
	r.PoolCheckouts.Reset()
	r.PoolExhausted.Reset()
	r.AcceptedConns.Reset()
	r.ShedScans.Reset()
	r.RejectedWrites.Reset()
	r.ClosedByLadder.Reset()
	r.DrainNanos.Reset()
	r.PollLag.Reset()
	r.CSNanos.Reset()
	r.GraceNanos.Reset()
	r.ReclaimAgeNanos.Reset()
}
