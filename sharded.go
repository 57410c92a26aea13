package hpbrcu

// Fault-isolated sharded maps (DESIGN.md §15). A sharded map runs Count
// complete, independent scheme instances — per-shard epoch clock, handle
// registry, janitor, backpressure books and facade handle pool — and pins
// every key to one shard by hash. The pinning invariant does all
// the safety work: a node is allocated, read, retired and reclaimed
// entirely within the shard that owns its key, so each shard's books
// balance independently, the global §5 bound is the sum of the per-shard
// bounds, and a wedged shard (dead janitor goroutine, stalled epoch) can
// only pin its own slice of garbage. Nothing watches the shards: each
// one answers a stalled epoch with what every domain runs — its workers'
// own advances and its backpressure tiers.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// shardedMap implements Map over independent per-shard mapImpl instances.
type shardedMap struct {
	scheme Scheme
	shards []*mapImpl

	// rec carries the service counters an embedding server records
	// through Stats(). Per-shard reclamation lives on each shard's own
	// Reclamation; AggregateSnapshot merges all of them.
	rec *stats.Reclamation

	closeOnce sync.Once
	closeErr  error
}

// shardFor routes a key to its owning shard: splitmix64 over the key so
// adjacent keys (the common benchmark and cache pattern) spread evenly.
func (m *shardedMap) shardFor(key int64) int {
	x := uint64(key) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(len(m.shards)))
}

func (m *shardedMap) Stats() *Stats  { return m.rec }
func (m *shardedMap) Scheme() Scheme { return m.scheme }

// Register returns a composite handle that lazily registers one inner
// handle per shard it touches. Each inner handle is pinned to its shard
// for life: a retire performed through it lands in that shard's defer
// batch, never another's — the cross-shard routing the books depend on.
func (m *shardedMap) Register() MapHandle {
	return &shardedHandle{m: m, hs: make([]MapHandle, len(m.shards))}
}

// --- facade (handle-free) operations -----------------------------------

func (m *shardedMap) Get(key int64) (int64, bool, error) {
	return m.shards[m.shardFor(key)].Get(key)
}

func (m *shardedMap) GetCtx(ctx context.Context, key int64) (int64, bool, error) {
	return m.shards[m.shardFor(key)].GetCtx(ctx, key)
}

func (m *shardedMap) Insert(key, val int64) (bool, error) {
	return m.shards[m.shardFor(key)].Insert(key, val)
}

func (m *shardedMap) TryInsert(key, val int64) (bool, error) {
	return m.shards[m.shardFor(key)].TryInsert(key, val)
}

func (m *shardedMap) Remove(key int64) (int64, bool, error) {
	return m.shards[m.shardFor(key)].Remove(key)
}

func (m *shardedMap) Barrier() error {
	var first error
	for _, sh := range m.shards {
		if err := sh.Barrier(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- registered composite handle ---------------------------------------

// shardedHandle is the registered-API accessor of a sharded map: one
// lazily created inner handle per shard, each pinned to its shard. Like
// every MapHandle it is owned by a single goroutine.
type shardedHandle struct {
	m  *shardedMap
	hs []MapHandle
}

func (h *shardedHandle) inner(s int) MapHandle {
	if h.hs[s] == nil {
		h.hs[s] = h.m.shards[s].Register()
	}
	return h.hs[s]
}

// latched returns the first lifecycle error latched on an inner handle
// and, when take is set, clears every inner latch (HandleErr,
// TakeHandleErr).
func (h *shardedHandle) latched(take bool) error {
	var first error
	for _, inner := range h.hs {
		if g, ok := inner.(*guardedHandle); ok && g.err != nil {
			if first == nil {
				first = g.err
			}
			if take {
				g.err = nil
			}
		}
	}
	return first
}

func (h *shardedHandle) Get(key int64) (int64, bool) {
	return h.inner(h.m.shardFor(key)).Get(key)
}

func (h *shardedHandle) Insert(key, val int64) bool {
	return h.inner(h.m.shardFor(key)).Insert(key, val)
}

func (h *shardedHandle) Remove(key int64) (int64, bool) {
	return h.inner(h.m.shardFor(key)).Remove(key)
}

// TryInsert implements TryInserter through the owning shard's
// backpressure gate.
func (h *shardedHandle) TryInsert(key, val int64) (bool, error) {
	return TryInsert(h.inner(h.m.shardFor(key)), key, val)
}

// GetCtx implements ContextHandle.
func (h *shardedHandle) GetCtx(ctx context.Context, key int64) (int64, bool, error) {
	return GetCtx(ctx, h.inner(h.m.shardFor(key)), key)
}

// BarrierCtx implements ContextHandle over every registered inner handle.
func (h *shardedHandle) BarrierCtx(ctx context.Context) error {
	for _, inner := range h.hs {
		if inner == nil {
			continue
		}
		if err := BarrierCtx(ctx, inner); err != nil {
			return err
		}
	}
	return ctx.Err()
}

func (h *shardedHandle) Barrier() {
	for _, inner := range h.hs {
		if inner != nil {
			inner.Barrier()
		}
	}
}

func (h *shardedHandle) Unregister() {
	for i, inner := range h.hs {
		if inner != nil {
			inner.Unregister()
			h.hs[i] = nil
		}
	}
}

// --- construction ------------------------------------------------------

// newSharded builds cfg.Shards.Count independent instances through build
// (one per shard, each labelled with its shard id) and assembles the
// composite map.
func newSharded(s Scheme, cfg Config, build func(Config) (Map, error)) (Map, error) {
	n := cfg.Shards.Count
	inner := cfg
	inner.Shards = ShardsConfig{} // the per-shard builds must not recurse

	m := &shardedMap{
		scheme: s,
		shards: make([]*mapImpl, n),
		rec:    &stats.Reclamation{},
	}
	for i := 0; i < n; i++ {
		sc := inner
		sc.shardID = i
		built, err := build(sc)
		if err != nil {
			return nil, err
		}
		impl, ok := built.(*mapImpl)
		if !ok {
			return nil, fmt.Errorf("hpbrcu: sharded build returned %T, not an internal map", built)
		}
		m.shards[i] = impl
	}
	return m, nil
}

// --- lifecycle ---------------------------------------------------------

// doClose is Close for sharded maps: close every shard against the shared
// deadline concurrently — one wedged shard's drain must not eat the
// others' budget.
func (m *shardedMap) doClose(timeout time.Duration) error {
	errs := make([]error, len(m.shards))
	done := make(chan int, len(m.shards))
	for i, sh := range m.shards {
		go func(i int, sh *mapImpl) {
			errs[i] = Close(sh, timeout)
			done <- i
		}(i, sh)
	}
	for range m.shards {
		<-done
	}
	return errors.Join(errs...)
}

// --- aggregation helpers ----------------------------------------------

// ShardCount reports how many independent shards back m (1 for unsharded
// maps).
func ShardCount(m Map) int {
	if sm, ok := m.(*shardedMap); ok {
		return len(sm.shards)
	}
	return 1
}

// ShardOf reports which shard owns key (always 0 for unsharded maps).
// Tests and load generators use it to target traffic at one shard.
func ShardOf(m Map, key int64) int {
	if sm, ok := m.(*shardedMap); ok {
		return sm.shardFor(key)
	}
	return 0
}

// ShardSnapshots returns one reclamation snapshot per shard, in shard
// order. For an unsharded map it returns the map's single snapshot.
func ShardSnapshots(m Map) []StatsSnapshot {
	if sm, ok := m.(*shardedMap); ok {
		out := make([]StatsSnapshot, len(sm.shards))
		for i, sh := range sm.shards {
			out[i] = sh.st().Snapshot()
		}
		return out
	}
	return []StatsSnapshot{m.Stats().Snapshot()}
}

// AggregateSnapshot returns the whole map's reclamation snapshot. For an
// unsharded map this is Stats().Snapshot(); for a sharded map it merges
// every shard's snapshot with the map's own service counters: counters
// and the unreclaimed gauge sum across shards, PeakUnreclaimed sums the
// per-shard peaks (an upper bound on the true global peak — the shards
// need not have peaked simultaneously), and histogram digests merge
// conservatively (counts and sums add, quantiles take the worst shard).
func AggregateSnapshot(m Map) StatsSnapshot {
	sm, ok := m.(*shardedMap)
	if !ok {
		return m.Stats().Snapshot()
	}
	agg := sm.rec.Snapshot()
	for _, sh := range sm.shards {
		s := sh.st().Snapshot()
		agg.Retired += s.Retired
		agg.Reclaimed += s.Reclaimed
		agg.Unreclaimed += s.Unreclaimed
		agg.PeakUnreclaimed += s.PeakUnreclaimed
		agg.Signals += s.Signals
		agg.Rollbacks += s.Rollbacks
		agg.EpochAdvances += s.EpochAdvances
		agg.ForcedAdvances += s.ForcedAdvances
		agg.ReapedHandles += s.ReapedHandles
		agg.AdoptedNodes += s.AdoptedNodes
		agg.BackpressureThrottles += s.BackpressureThrottles
		agg.BackpressureRejects += s.BackpressureRejects
		agg.PanicsRecovered += s.PanicsRecovered
		agg.CancelledOps += s.CancelledOps
		agg.PoolCheckouts += s.PoolCheckouts
		agg.PoolExhausted += s.PoolExhausted
		agg.PoolLeaksReclaimed += s.PoolLeaksReclaimed
		agg.AcceptedConns += s.AcceptedConns
		agg.ShedScans += s.ShedScans
		agg.RejectedWrites += s.RejectedWrites
		agg.ClosedByLadder += s.ClosedByLadder
		agg.DrainNanos += s.DrainNanos
		agg.PollLag = mergeHist(agg.PollLag, s.PollLag)
		agg.CSNanos = mergeHist(agg.CSNanos, s.CSNanos)
		agg.GraceNanos = mergeHist(agg.GraceNanos, s.GraceNanos)
		agg.ReclaimAgeNanos = mergeHist(agg.ReclaimAgeNanos, s.ReclaimAgeNanos)
	}
	return agg
}

// mergeHist combines two histogram digests conservatively: counts and
// sums add, the extrema widen, and each quantile takes the worse (larger)
// of the two — a safe over-approximation for alerting, not an exact
// quantile of the union.
func mergeHist(a, b stats.HistSummary) stats.HistSummary {
	if b.Count == 0 {
		return a
	}
	if a.Count == 0 {
		return b
	}
	out := a
	out.Count += b.Count
	out.Sum += b.Sum
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	if b.P50 > out.P50 {
		out.P50 = b.P50
	}
	if b.P90 > out.P90 {
		out.P90 = b.P90
	}
	if b.P99 > out.P99 {
		out.P99 = b.P99
	}
	if b.P999 > out.P999 {
		out.P999 = b.P999
	}
	return out
}

// ResetUnreclaimedPeaks re-bases every shard's PeakUnreclaimed at its
// current level (Gauge.ResetPeak); benchmarks call it after prefilling so
// reported peaks cover only the measured interval.
func ResetUnreclaimedPeaks(m Map) {
	if sm, ok := m.(*shardedMap); ok {
		for _, sh := range sm.shards {
			sh.st().Unreclaimed.ResetPeak()
		}
		return
	}
	m.Stats().Unreclaimed.ResetPeak()
}
