package core

// This file is the operation-lifecycle robustness layer: panic
// containment for the entry points that run user code, cooperative
// cancellation plumbing, and the unified-shutdown drain. The design
// rides the §4 rollback machinery — a contained panic and a cancelled
// context both leave the handle exactly as a neutralization-driven abort
// would, so the §4.3 validity invariant ("at every moment at least one
// protector buffer holds a complete protected cursor") is preserved by
// construction. See DESIGN.md §10.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/smrgo/hpbrcu/internal/obs"
)

// PanicPolicy selects what the recover barrier does with a panic that
// escaped user code inside a critical section, after restoring the
// handle through the normal abort path.
type PanicPolicy int

const (
	// PanicRethrow (the default) re-raises the original panic value once
	// the handle is restored: the caller sees the same panic it would
	// have seen without the scheme in the stack, minus the corrupted
	// handle.
	PanicRethrow PanicPolicy = iota
	// PanicRecover raises a *PanicError instead, which the public map
	// layer (maps.go) converts into an error latched on the handle; the
	// operation returns zero values and the handle stays usable.
	PanicRecover
)

// PanicError wraps a panic contained by the recover barrier. Under
// PanicRecover it is what the map layer latches; under PanicRethrow it
// appears only for poisoned-handle reuse.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Op names the entry point the panic escaped from.
	Op string
	// Handle describes the handle (id, generation, phase, epoch) at
	// containment time.
	Handle string
	// Poisoned reports that restoring the handle failed: the handle must
	// not be reused — its status word stops moving and the reaper, when
	// running, adopts its garbage.
	Poisoned bool
}

// Error formats the contained panic: entry point, handle state at
// containment time, whether the handle survived, and the panic value.
func (e *PanicError) Error() string {
	state := "handle restored"
	if e.Poisoned {
		state = "handle poisoned"
	}
	return fmt.Sprintf("hpbrcu: panic in %s contained (%s; %s): %v", e.Op, e.Handle, state, e.Value)
}

// ProtectionClearer is implemented by protectors whose shields can be
// released wholesale. The recover barrier uses it to drop the
// protections a panicked traversal left behind; protectors that do not
// implement it keep their (safe, merely conservative) protections until
// the next operation overwrites them.
type ProtectionClearer interface{ ClearProtection() }

func clearProtection[C any](p Protector[C]) {
	if c, ok := Protector[C](p).(ProtectionClearer); ok {
		c.ClearProtection()
	}
}

// checkUsable refuses operations on a handle a previous panic left
// unrestorable, per the panic policy: a *PanicError panic under
// PanicRecover (converted to an error by the map layer), a plain panic
// otherwise. It never silently proceeds — a poisoned handle's status
// word is untrustworthy and reusing it could corrupt the domain.
func (h *Handle) checkUsable() {
	if h.poisoned == nil {
		return
	}
	if h.d.policy == PanicRecover {
		panic(h.poisoned)
	}
	panic("core: operation on a poisoned handle (" + h.poisoned.Error() + ")")
}

// contain is the recover barrier's second half, called with a recovered
// panic value: restore the handle to a reusable state — clear the
// traversal protectors and unwind the status word to Out (resolving any
// reaper phase exactly as Enter would) — account the recovery, and
// re-raise per the panic policy. If restoration itself panics the handle
// is poisoned instead: every subsequent operation refuses it up front.
//
// The defer batch stays where it is. A restored handle fills and pushes
// it like any other, counted against ForceThreshold; pushing it here
// would be a push outside Algorithm 5's budget, and a handle that panics
// more often than it fills a batch would then never signal the laggards
// holding the epoch, growing garbage past the §5 bound. A handle its
// owner abandons hands the batch on through Unregister, the facade's
// Discard or the reaper's adoption.
func (h *Handle) contain(r any, op string, clear func()) {
	h.d.rec.PanicsRecovered.Inc()
	pe := &PanicError{Value: r, Op: op}
	restored := false
	func() {
		defer func() {
			if !restored {
				_ = recover() // the restore panic; the original value wins
			}
		}()
		pe.Handle = h.brcu.Describe()
		h.brcu.ForceOut()
		if clear != nil {
			clear()
		}
		restored = true
	}()
	if !restored {
		pe.Poisoned = true
		h.poisoned = pe
	}
	arg := int64(0)
	if pe.Poisoned {
		arg = 1
	}
	h.brcu.TraceEvent(obs.EvPanic, arg)
	if h.d.policy == PanicRecover {
		panic(pe)
	}
	panic(r)
}

// Poisoned reports whether a previous panic left this handle
// unrestorable.
func (h *Handle) Poisoned() bool { return h.poisoned != nil }

// BarrierCtx is Barrier with cooperative cancellation: between forced
// drain rounds it checks ctx and, when done, returns its error with the
// remaining rounds undone. The rounds already run keep their effect —
// draining is idempotent, so a later Barrier simply finishes the job.
func (h *Handle) BarrierCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	claimed := h.brcu.BeginMut()
	for i := 0; i < 4; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		h.brcu.ForceFlush()
		h.HP.Reclaim()
	}
	if claimed {
		h.brcu.EndMut()
	}
	if err != nil {
		h.d.rec.CancelledOps.Inc()
		h.brcu.TraceEvent(obs.EvCancel, 0)
	}
	return err
}

// MarkClosed flips the domain into the closed state; it reports whether
// this call was the one that closed it. The domain itself keeps working
// (drains must still run) — admission control lives in the public map
// layer, which checks Closed before every operation.
func (d *Domain) MarkClosed() bool { return d.closed.CompareAndSwap(false, true) }

// Closed reports whether MarkClosed has run.
func (d *Domain) Closed() bool { return d.closed.Load() }

// closeDrainPause is the back-off between unsuccessful drain rounds of
// CloseDrain: long enough not to spin a core against a generous
// deadline, short enough not to stretch a drain that is one worker
// Unregister away from balancing.
const closeDrainPause = 100 * time.Microsecond

// CloseDrain stops the janitor and forces drain rounds until the books
// balance (Unreclaimed == 0) or the deadline passes, returning the
// remaining unreclaimed count. The rounds go through the janitor's own
// service handle, so they reach what its drain stage parked there (nodes
// a then-live shield protected) as well as the global paths; between
// rounds the janitor's tick keeps running on this goroutine at its usual
// cadence, so garbage abandoned by leaked or panicked workers is still
// adopted and freed. A domain without a janitor drains through a
// temporary exempt handle. Nodes still held in live workers' local
// batches or shields drain only once those workers Unregister, which is
// why the loop keeps retrying until the deadline rather than giving up
// after a fixed round count.
func (d *Domain) CloseDrain(deadline time.Time) int64 {
	j := d.jan
	var h *Handle
	if j != nil {
		j.halt() // its handle and tick state are ours from here on
		defer j.Stop()
		h = j.h
	} else {
		h = d.register(true) // exempt: this handle idles past any lease timeout on purpose
		defer h.Unregister()
	}
	h.brcu.TraceEvent(obs.EvClose, d.rec.Unreclaimed.Load())
	var nextTick time.Time
	for {
		now := time.Now()
		if j != nil && !now.Before(nextTick) {
			j.tick(now.UnixNano())
			nextTick = now.Add(j.interval)
		}
		h.Barrier()
		left := d.rec.Unreclaimed.Load()
		if left == 0 || !now.Before(deadline) {
			if j != nil {
				j.publish() // the closing state, for readers of the report
			}
			return left
		}
		runtime.Gosched()
		time.Sleep(closeDrainPause)
	}
}
