// Package hpbrcu is a Go implementation of the memory-reclamation schemes
// from "Expediting Hazard Pointers with Bounded RCU Critical Sections"
// (Kim, Jung, Kang — SPAA 2024), together with the concurrent data
// structures and baselines of the paper's evaluation.
//
// The headline schemes are:
//
//   - HP-RCU (§3): hazard pointers whose traversals are expedited by RCU
//     critical sections — most links are followed under coarse epoch
//     protection, with the cursor periodically checkpointed into shields.
//     Robust against long-running operations.
//   - HP-BRCU (§4): HP-RCU with RCU replaced by Bounded RCU, which
//     neutralizes (selectively, and only past a failure threshold) the
//     threads that block epoch advance. Robust against stalled threads
//     and long-running operations, while retaining RCU-like speed.
//
// Baselines from the paper's evaluation: NR (leak), RCU/EBR, HP, NBR(+)
// and NBR-Large.
//
// # Signal substitution
//
// The paper aborts critical sections with POSIX signals; Go's runtime owns
// signal handling, so this library substitutes cooperative neutralization
// — a CAS on the victim's status word observed at bounded poll points.
// See internal/brcu and DESIGN.md §2 for why this preserves the paper's
// robustness and safety arguments.
//
// # Using the schemes with your own data structure
//
// Nodes live in slot-addressed pools (alloc.Pool) so links can carry mark
// bits; a structure integrates HP-BRCU by implementing a cursor, a
// Protector, and its traversal as a loop of its own with a core.Attempt's
// Step before every node and its CursorBuf's Walk, handed the cursor's
// init and validate functions, when Step says so. See
// examples/quickstart and internal/ds/hlist: expedited.go there is the
// whole of what the sorted-list family writes for HP-RCU/HP-BRCU, next to
// the one-file searches of the other schemes (DESIGN.md §3.1).
package hpbrcu

import (
	"context"
	"fmt"
	"time"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/reap"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Scheme identifies a safe-memory-reclamation scheme from the paper's
// evaluation (§6).
type Scheme int

const (
	// NR is the no-reclamation baseline: retired nodes leak.
	NR Scheme = iota
	// RCU is epoch-based RCU (Fraser): fast, not robust.
	RCU
	// HP is classic hazard pointers: robust, per-node overhead.
	HP
	// NBR is neutralization-based reclamation (batch 128).
	NBR
	// NBRLarge is NBR with the large batch threshold (8192).
	NBRLarge
	// HPRCU is the paper's partial solution (§3).
	HPRCU
	// HPBRCU is the paper's full solution (§4).
	HPBRCU
	// VBR is version-based reclamation (Sheffi et al.): immediate
	// reclamation with version-validated accesses and restart-on-conflict.
	VBR
)

// Schemes lists every scheme in presentation order.
var Schemes = []Scheme{NR, RCU, HP, NBR, NBRLarge, VBR, HPRCU, HPBRCU}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case NR:
		return "NR"
	case RCU:
		return "RCU"
	case HP:
		return "HP"
	case NBR:
		return "NBR"
	case NBRLarge:
		return "NBR-Large"
	case HPRCU:
		return "HP-RCU"
	case HPBRCU:
		return "HP-BRCU"
	case VBR:
		return "VBR"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Robust reports whether the scheme bounds the number of retired yet
// unreclaimed nodes against stalled threads (Table 2).
func (s Scheme) Robust() bool {
	switch s {
	case HP, NBR, NBRLarge, VBR, HPBRCU:
		return true
	}
	return false
}

// Config tunes a scheme instance. The zero value selects the paper's
// evaluation parameters.
type Config struct {
	// BackupPeriod is the HP-RCU/HP-BRCU checkpoint distance in traversal
	// steps (default 64).
	BackupPeriod int
	// BatchSize is the retire/defer batch that triggers reclamation or an
	// epoch-advance attempt (default 128; the paper's per-128-retires).
	BatchSize int
	// ForceThreshold is BRCU's failed-advance budget before neutralizing
	// laggards (default 2).
	ForceThreshold int
	// Reaper is ignored. A handle Register returned on an HP-RCU or
	// HP-BRCU map is adopted once the garbage collector finds it
	// unreachable without Unregister: its deferred garbage and shields go
	// to the domain-global reclamation paths (DESIGN.md §7). The field
	// stays so that configurations setting Reaper.Enabled still compile.
	Reaper ReaperConfig
	// Backpressure enables tiered memory backpressure on HP-BRCU maps,
	// keyed to the §5 garbage bound (or an absolute ceiling): inline
	// emergency drains, then allocation throttling, then fail-fast
	// ErrMemoryPressure from TryInsert. Ignored for every other scheme.
	Backpressure BackpressureConfig
	// PanicPolicy selects what HP-RCU/HP-BRCU maps do with a panic that
	// escapes user code inside a critical section, after the recovery
	// barrier has restored the handle through the abort path: PanicRethrow
	// (default) re-raises it, PanicRecover latches it on the handle as a
	// *PanicError and keeps going. Ignored for every other scheme.
	PanicPolicy PanicPolicy
	// Pool tunes the handle pool behind the handle-free facade (the
	// error-returning Get/Insert/Remove methods on Map); see PoolConfig.
	// The zero value selects the defaults — the facade needs no opt-in.
	Pool PoolConfig
	// Shards is ignored: a map is one domain (DESIGN.md §15). The field
	// stays so that configurations setting Shards.Count still compile.
	Shards struct{ Count int }
}

// PoolConfig tunes the handle pool behind the handle-free facade (see
// the Map interface and DESIGN.md §12). Zero fields select the defaults.
type PoolConfig struct {
	// Size is the hard ceiling on pooled handles — and thereby the N the
	// §5 garbage bound scales with, independent of how many goroutines
	// call the facade. Default 4×GOMAXPROCS.
	Size int
	// AcquireTimeout bounds how long a facade operation waits for a
	// handle when all Size are checked out before failing with
	// ErrHandleExhausted. Default 1ms.
	AcquireTimeout time.Duration
}

// ReaperConfig is the type of the ignored Config.Reaper.
type ReaperConfig struct {
	// Enabled is ignored.
	Enabled bool
}

// BackpressureConfig configures the backpressure tiers (see
// Config.Backpressure). The zero value disables them. Past 0.75 of the
// base TryInsert backs off before admitting the allocation, and past 0.9
// it fails fast with ErrMemoryPressure.
type BackpressureConfig struct {
	// Enabled turns the tiers on.
	Enabled bool
	// DrainFraction of the base triggers inline emergency drains on the
	// retire path (zero selects 0.5). A value above 1 disables inline
	// drains without affecting the throttle and reject tiers.
	DrainFraction float64
	// Ceiling, when positive, replaces the §5 bound as the base — an
	// absolute unreclaimed-node budget.
	Ceiling int64
}

// ErrMemoryPressure is returned by TryInsert when unreclaimed garbage has
// reached the reject tier of the backpressure ladder. It is always
// returned, never panicked; callers decide whether to shed load, retry,
// or escalate.
var ErrMemoryPressure = reap.ErrMemoryPressure

// coreBackpressureConfig lowers the public backpressure options.
func (c Config) coreBackpressureConfig() reap.BackpressureConfig {
	return reap.BackpressureConfig{
		DrainFraction: c.Backpressure.DrainFraction,
		Ceiling:       c.Backpressure.Ceiling,
	}
}

// CoreConfig lowers the public options to the internal scheme config.
func (c Config) CoreConfig() core.Config {
	return core.Config{
		BackupPeriod:   c.BackupPeriod,
		MaxLocalTasks:  c.BatchSize,
		ForceThreshold: c.ForceThreshold,
		ScanThreshold:  c.BatchSize,
		PanicPolicy:    c.PanicPolicy,
	}
}

// Stats is a scheme's reclamation statistics (live counters).
type Stats = stats.Reclamation

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot = stats.Snapshot

// MapHandle is a single thread's accessor to a Map. Handles are not safe
// for concurrent use; each goroutine registers its own and should
// Unregister when done.
type MapHandle interface {
	// Get returns the value mapped to key.
	Get(key int64) (int64, bool)
	// Insert maps key to val; it fails if key is present.
	Insert(key, val int64) bool
	// Remove unmaps key, returning the removed value.
	Remove(key int64) (int64, bool)
	// Unregister releases the handle.
	Unregister()
	// Barrier makes a best effort to drain this thread's deferred
	// reclamation (teardown and tests).
	Barrier()
}

// Map is a concurrent ordered or hashed int64→int64 map protected by one
// of the reclamation schemes.
//
// It can be used two ways. The registered-handle API (Register) gives a
// long-lived worker goroutine its own accessor — the paper's model, and
// the fastest path. The handle-free facade (the error-returning methods
// below) works from any goroutine with zero setup: each operation checks
// a handle out of an internal pool (Config.Pool), runs, and returns it
// on every path — including panics and context cancellation. The pool is
// hard-capped, so the §5 garbage bound scales with the pool size, not
// the goroutine count; when every handle stays checked out through the
// bounded wait, operations fail fast with ErrHandleExhausted instead of
// blocking forever. After Close every facade operation reports ErrClosed.
type Map interface {
	// Register creates a thread-local accessor.
	Register() MapHandle
	// Stats returns the underlying scheme's reclamation statistics.
	Stats() *Stats
	// Scheme reports which reclamation scheme protects this map.
	Scheme() Scheme

	// Get returns the value mapped to key, through a pooled handle.
	Get(key int64) (int64, bool, error)
	// GetCtx is Get under a context: ctx bounds the wait for a pooled
	// handle, and a done ctx returns its error instead of a lookup.
	GetCtx(ctx context.Context, key int64) (int64, bool, error)
	// Insert maps key to val (failing if key is present), through a
	// pooled handle.
	Insert(key, val int64) (bool, error)
	// TryInsert is Insert through the backpressure admission gate when
	// the map has one (see TryInserter); it may additionally fail with
	// ErrMemoryPressure.
	TryInsert(key, val int64) (bool, error)
	// Remove unmaps key, returning the removed value, through a pooled
	// handle.
	Remove(key int64) (int64, bool, error)
	// Barrier makes a best effort to drain deferred reclamation through
	// a pooled handle.
	Barrier() error
}

// TryInserter is implemented by handles of maps with backpressure
// enabled: TryInsert is Insert behind the admission gate.
type TryInserter interface {
	// TryInsert maps key to val like Insert, but first passes the
	// backpressure ladder: it may back off briefly (throttle tier) and
	// returns ErrMemoryPressure instead of inserting at the reject tier.
	TryInsert(key, val int64) (bool, error)
}

// TryInsert inserts through h's backpressure gate when the map has one,
// and falls back to a plain Insert otherwise — so callers can be written
// against TryInsert regardless of configuration.
func TryInsert(h MapHandle, key, val int64) (bool, error) {
	if ti, ok := h.(TryInserter); ok {
		return ti.TryInsert(key, val)
	}
	return h.Insert(key, val), nil
}

// ErrUnsupported is returned (via panic-free constructors' second result)
// when a scheme does not apply to a data structure (Table 1).
type ErrUnsupported struct {
	Structure string
	Scheme    Scheme
}

// Error formats the unsupported combination with a pointer to Table 1.
func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("hpbrcu: %s does not support %s (see Table 1 of the paper)", e.Structure, e.Scheme)
}
