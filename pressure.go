package hpbrcu

// Load-shed composition surface: the helpers an embedding service (a
// cache server, a request handler) uses to turn the library's two
// fail-fast signals — ErrMemoryPressure from the backpressure ladder and
// ErrHandleExhausted from the facade's handle pool — into one shed
// decision, plus a read-only view of the backpressure rung so a service
// can degrade *before* operations start failing. internal/server builds
// its two-rung degradation ladder on exactly these two primitives.

import (
	"errors"

	"github.com/smrgo/hpbrcu/internal/reap"
)

// IsLoadShed reports whether err is one of the library's load-shed
// signals: ErrMemoryPressure (the backpressure reject tier) or
// ErrHandleExhausted (every pooled facade handle stayed checked out
// through the bounded wait). Both mean "the operation was refused to
// protect the §5 garbage bound — back off and retry"; they are always
// returned, never panicked. ErrClosed is NOT a load-shed signal: a closed
// map will never accept the retry, so callers must tell the two apart,
// and this predicate is how.
func IsLoadShed(err error) bool {
	return errors.Is(err, ErrMemoryPressure) || errors.Is(err, ErrHandleExhausted)
}

// PressureLevel is a rung of the tiered-backpressure ladder
// (Config.Backpressure), as observed through Pressure. The ordering is
// meaningful: higher levels are strictly more loaded, so services
// compare with >= to pick a degradation response.
type PressureLevel int

// The pressure rungs, in increasing severity. The values mirror the
// internal reap.Level ladder one-to-one (converted, not aliased, so the
// internal package stays internal).
const (
	// PressureOK: unreclaimed garbage is comfortably below the base
	// (the §5 bound or the configured Ceiling).
	PressureOK PressureLevel = iota
	// PressureDrain: the drain tier — the retire path is running inline
	// emergency drains. A service can start shedding optional work
	// (e.g. expensive scans) here, before anything fails.
	PressureDrain
	// PressureThrottle: admissions are backing off before proceeding;
	// TryInsert still succeeds but pays a delay.
	PressureThrottle
	// PressureReject: TryInsert fails fast with ErrMemoryPressure. A
	// service should be rejecting writes at the edge by now.
	PressureReject
)

// String returns the rung's name (ok, drain, throttle, reject).
func (l PressureLevel) String() string {
	return reap.Level(l).String()
}

// Pressure returns the current backpressure rung of m. It is cheap
// enough for per-request use: the underlying ladder caches its
// thresholds and re-samples the gauge every few hundred calls. Maps
// without tiered backpressure (Config.Backpressure disabled, or a
// scheme without an HP-BRCU domain) always report PressureOK — such
// services still degrade reactively via IsLoadShed on operation errors.
//
// For a sharded map Pressure is the worst shard's rung — the
// conservative signal for decisions that touch every shard (shedding a
// SCAN, for instance, which reads all of them). KeyPressure scopes the
// signal to one key's owning shard, so a service can degrade one slice
// of traffic instead of the whole map.
func Pressure(m Map) PressureLevel {
	switch impl := m.(type) {
	case *mapImpl:
		if impl.bp != nil {
			return PressureLevel(impl.bp.Level())
		}
	case *shardedMap:
		worst := PressureOK
		for _, sh := range impl.shards {
			worst = max(worst, Pressure(sh))
		}
		return worst
	}
	return PressureOK
}

// KeyPressure returns the backpressure rung of the shard that owns key —
// the right signal for proactive per-request decisions (rejecting a
// write early) on a sharded map, where one wedged shard must not shed
// every key's traffic. For unsharded maps it equals Pressure(m).
func KeyPressure(m Map, key int64) PressureLevel {
	if sm, ok := m.(*shardedMap); ok {
		if sh := sm.shards[sm.shardFor(key)]; sh.bp != nil {
			return PressureLevel(sh.bp.Level())
		}
		return PressureOK
	}
	return Pressure(m)
}

// ShardPressure is one shard's externally visible pressure and janitor
// row, as reported by ShardPressures.
type ShardPressure struct {
	// Shard is the shard id.
	Shard int
	// Level is the shard's own backpressure rung.
	Level PressureLevel
	// Unreclaimed is the shard's retired-not-yet-reclaimed gauge.
	Unreclaimed int64
	// JanitorTicks and ParkedHandles come from the shard janitor's last
	// published report (both 0 when the shard runs no janitor): the number
	// of ticks it has completed — a count that stands still names a wedged
	// janitor — and how many handles the lease scan found standing still
	// past the lease timeout with nothing to adopt, which it leaves
	// registered instead of reaping (they are not in ReapedHandles).
	JanitorTicks  int64
	ParkedHandles int
}

// ShardPressures returns one pressure/janitor row per shard, in shard
// order — the data behind smrcached's per-shard STATS and /metrics rows.
// For an unsharded map it returns a single row (shard 0).
func ShardPressures(m Map) []ShardPressure {
	sm, ok := m.(*shardedMap)
	if !ok {
		row := ShardPressure{Level: Pressure(m), Unreclaimed: m.Stats().Unreclaimed.Load()}
		if impl, ok := m.(*mapImpl); ok {
			row.readJanitor(impl)
		}
		return []ShardPressure{row}
	}
	out := make([]ShardPressure, len(sm.shards))
	for i, sh := range sm.shards {
		out[i] = ShardPressure{
			Shard:       i,
			Level:       Pressure(sh),
			Unreclaimed: sh.st().Unreclaimed.Load(),
		}
		out[i].readJanitor(sh)
	}
	return out
}

// readJanitor fills the janitor-report columns of the row from m's
// janitor, when it runs one.
func (p *ShardPressure) readJanitor(m *mapImpl) {
	if m.jan != nil {
		r := m.jan.Report()
		p.JanitorTicks, p.ParkedHandles = r.Ticks, r.Parked
	}
}
