package core

// This file is the operation-lifecycle robustness layer: panic
// containment for the entry points that run user code, the adoption of
// handles whose owner is gone, and the unified-shutdown drain. The design
// rides the §4 rollback machinery — a contained panic leaves the handle
// exactly as a neutralization-driven abort would, so the §4.3 validity
// invariant ("at every moment at least one protector buffer holds a
// complete protected cursor") is preserved by construction. See DESIGN.md
// §10.

import (
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
	// Handle describes the handle (id, phase, epoch) at containment
	// time.
	Handle string
	// Poisoned reports that restoring the handle failed: the handle must
	// not be reused; its garbage is adopted when it is dropped (see
	// Adopt).
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
// panic value: account the recovery, restore the handle to a reusable
// state — unwind the status word to Out (discarding any pending rollback
// request) and clear the traversal protectors — and re-raise per the
// panic policy. If restoration itself panics the handle
// is poisoned instead: every subsequent operation refuses it up front.
//
// The defer batch stays where it is. A restored handle fills and pushes
// it like any other, counted against ForceThreshold; pushing it here
// would be a push outside Algorithm 5's budget, and a handle that panics
// more often than it fills a batch would then never signal the laggards
// holding the epoch, growing garbage past the §5 bound. A handle its
// owner abandons hands the batch on through Unregister or adoption.
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
		h.brcu.Exit()
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

// MarkClosed flips the domain into the closed state; it reports whether
// this call was the one that closed it. The domain itself keeps working
// (drains must still run) — admission control lives in the public map
// layer, which checks Closed before every operation.
func (d *Domain) MarkClosed() bool { return d.closed.CompareAndSwap(false, true) }

// Closed reports whether MarkClosed has run.
func (d *Domain) Closed() bool { return d.closed.Load() }

// AdoptWhenUnreachable arranges for h to be adopted once the garbage
// collector finds owner unreachable: owner is the object a goroutine holds
// to use h (hpbrcu's guardedHandle), and the one whose finalizer runs
// Adopt. Nothing reachable from owner may reference owner again — a
// finalizer never runs on an object inside a cycle — and every method of
// owner that uses h must keep owner alive to its end (runtime.KeepAlive),
// or the collector may find it dead while an operation still runs on h.
// An owner that unregisters h first clears the finalizer with
// runtime.SetFinalizer(owner, nil).
func AdoptWhenUnreachable[T any](owner *T, h *Handle) {
	runtime.SetFinalizer(owner, func(*T) { h.Adopt() })
}

// Adopt hands the state of a handle whose owner is gone to the domain, as
// Unregister would have: a section the owner never left is forced Out, the
// BRCU batch joins the global task set tagged with the current epoch, the
// HP retired list becomes orphans, the shields are cleared and the handle
// leaves both registries. One drain round through the domain's adopter
// handle then runs what that allows; only then does ReapedHandles count
// the adoption, and AdoptedNodes the nodes it moved. It runs on the
// finalizer goroutine (AdoptWhenUnreachable) or for an owner that hands
// over a poisoned handle, and never while a goroutine can still operate
// on h.
func (h *Handle) Adopt() {
	d := h.d
	n := h.brcu.Adopt() + h.HP.PendingRetired()
	h.HP.Unregister()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.adopter.brcu.TraceEvent(obs.EvAdopt, int64(n))
	d.adopter.Barrier()
	d.rec.AdoptedNodes.Add(int64(n))
	d.rec.ReapedHandles.Inc()
}

// closeDrainPause is the back-off between unsuccessful drain rounds of
// CloseDrain: long enough not to spin a core against a generous
// deadline, short enough not to stretch a drain that is one worker
// Unregister away from balancing.
const closeDrainPause = 100 * time.Microsecond

// CloseDrain forces drain rounds through the domain's adopter handle until
// the books balance (Unreclaimed == 0) or the deadline passes, returning
// the remaining unreclaimed count. The first round that leaves garbage
// runs a garbage collection, so that handles dropped without Unregister
// are adopted (Adopt) while the loop still waits. Nodes still held in live
// workers' local batches or shields drain only once those workers
// Unregister, which is why the loop keeps retrying until the deadline
// rather than giving up after a fixed round count.
func (d *Domain) CloseDrain(deadline time.Time) int64 {
	for round := 0; ; round++ {
		d.mu.Lock()
		if round == 0 {
			d.adopter.brcu.TraceEvent(obs.EvClose, d.rec.Unreclaimed.Load())
		}
		d.adopter.Barrier()
		d.mu.Unlock()
		left := d.rec.Unreclaimed.Load()
		if left == 0 || !time.Now().Before(deadline) {
			return left
		}
		if round == 0 {
			runtime.GC()
		}
		runtime.Gosched()
		time.Sleep(closeDrainPause)
	}
}
