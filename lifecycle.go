package hpbrcu

// Public operation-lifecycle layer: unified shutdown (Close), the
// per-handle guard that latches lifecycle errors (MapHandle methods have
// no error results) and the panic-policy surface. The mechanisms live in
// internal/core (see DESIGN.md §10); this file adapts them to the
// Map/MapHandle interfaces.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/smrgo/hpbrcu/internal/core"
)

// ErrClosed is reported by handle operations attempted after Close has
// begun. It is latched on the handle (HandleErr/TakeHandleErr) because
// Get/Insert/Remove have no error results; TryInsert returns it
// directly. Post-Close operations never panic.
var ErrClosed = errors.New("hpbrcu: map is closed")

// PanicPolicy selects what HP-RCU/HP-BRCU maps do with a panic escaping
// user code inside a critical section (Config.PanicPolicy). Under either
// policy the handle is first restored through the normal abort path —
// masks unwound, protectors cleared, status returned to quiescent, defer
// batch flushed — so a panic never strands a critical section or leaks
// the handle's deferred garbage.
type PanicPolicy = core.PanicPolicy

const (
	// PanicRethrow (the default) re-raises the original panic value after
	// restoring the handle.
	PanicRethrow = core.PanicRethrow
	// PanicRecover converts the panic into a *PanicError latched on the
	// handle (TakeHandleErr); the operation returns zero values and the
	// handle stays usable — unless restoration failed, in which case the
	// handle is poisoned and every later operation reports the error.
	PanicRecover = core.PanicRecover
)

// PanicError wraps a panic contained by the recovery barrier; see
// PanicRecover.
type PanicError = core.PanicError

// Close shuts a map down: it stops admitting operations (every later
// operation reports ErrClosed) and forces drain rounds until the books
// balance (Stats().Unreclaimed == 0) or the timeout passes. A round that
// leaves garbage runs one garbage collection, so handles dropped without
// Unregister are adopted and their garbage freed while Close waits.
//
// Close is idempotent and safe to call concurrently: one caller performs
// the shutdown, the rest block until it finishes and return the same
// result. A non-nil error means nodes were still unreclaimed at the
// deadline (typically a worker that never unregistered its handle while
// holding a local batch); the map is closed regardless.
//
// Handles survive Close: in-flight operations complete, later ones
// report ErrClosed, and Unregister keeps working so workers can release
// cleanly after shutdown. For maps without an HP-RCU/HP-BRCU domain
// there are no drain books; Close just stops admission.
func Close(m Map, timeout time.Duration) error {
	impl, ok := m.(*mapImpl)
	if !ok {
		return nil
	}
	impl.closeOnce.Do(func() { impl.closeErr = impl.doClose(timeout) })
	return impl.closeErr
}

func (m *mapImpl) doClose(timeout time.Duration) error {
	m.closed.Store(true)
	deadline := time.Now().Add(timeout)
	// Drain the handle pool first: retiring its idle handles flushes
	// their deferred batches into the domain-global task set, so the
	// domain drain below sees everything the facade deferred. Outstanding
	// checkouts are waited for until the deadline; past it they retire
	// themselves on return — the books still balance, just later.
	if p := m.hpool.Load(); p != nil {
		p.Close(deadline)
	}
	if m.dom == nil {
		return nil
	}
	m.dom.MarkClosed()
	if left := m.dom.CloseDrain(deadline); left != 0 {
		return fmt.Errorf("hpbrcu: close: %d nodes still unreclaimed after %s (a stalled or leaked worker may hold them)", left, timeout)
	}
	return nil
}

// HandleErr returns the lifecycle error latched on h, if any: ErrClosed
// after a rejected post-Close operation, or a *PanicError under
// PanicRecover. It returns nil for handles of maps created before this
// layer existed (plain MapHandles).
func HandleErr(h MapHandle) error {
	if g, ok := h.(*guardedHandle); ok {
		return g.err
	}
	return nil
}

// TakeHandleErr returns the latched lifecycle error and clears it, so a
// retry loop can consume one containment per observation. The error of a
// poisoned handle re-latches on the next operation — poisoning is
// permanent.
func TakeHandleErr(h MapHandle) error {
	g, ok := h.(*guardedHandle)
	if !ok {
		return nil
	}
	err := g.err
	g.err = nil
	return err
}

// guardedHandle is the lifecycle guard Register wraps every handle in:
// it rejects operations after Close (latching ErrClosed), converts
// contained panics into latched errors under PanicRecover, refuses to
// reuse or unregister a poisoned handle and passes TryInsert through the
// map's backpressure gate. Like the handle it wraps it is owned by one
// goroutine; only the closed flag is cross-thread.
//
// On an HP-RCU or HP-BRCU map Register attaches a finalizer that adopts
// the inner handle once the guard is unreachable (core.AdoptWhenUnreachable).
// Every method that reaches inner therefore ends with runtime.KeepAlive(g):
// without it the collector may find g dead after its last use, mid-operation,
// and adopt the handle the operation is still running on.
type guardedHandle struct {
	m     *mapImpl
	inner MapHandle // the structure handle; nil for a post-Close registration stub

	err      error // latched lifecycle error (owner-read, see HandleErr)
	poisoned bool  // a contained panic left inner unrestorable
}

// admit gates mutating and reading operations: closed maps and poisoned
// handles reject up front, latching the reason.
func (g *guardedHandle) admit() bool {
	if g.poisoned {
		// err already holds the poisoning *PanicError; re-latch it in
		// case a TakeHandleErr consumed it.
		if g.err == nil {
			g.err = errors.New("hpbrcu: operation on a poisoned handle (a contained panic left it unrestorable)")
		}
		return false
	}
	if g.inner == nil || g.m.closed.Load() {
		g.err = ErrClosed
		return false
	}
	return true
}

// latch recovers a *PanicError raised by the containment layer under
// PanicRecover and latches it — also into *errp, for the operations that
// have an error result; any other panic value passes through. It must be
// the deferred call itself. Callers defer it only when the map's policy is
// PanicRecover, so the common path stays defer-free; the operation's other
// named results are still zero when a panic unwinds through it.
func (g *guardedHandle) latch(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	pe, ok := r.(*PanicError)
	if !ok {
		panic(r)
	}
	if pe.Poisoned {
		g.poisoned = true
	}
	g.err = pe
	if errp != nil {
		*errp = pe
	}
}

func (g *guardedHandle) Get(key int64) (v int64, ok bool) {
	if !g.admit() {
		return 0, false
	}
	if g.m.rec {
		defer g.latch(nil)
	}
	v, ok = g.inner.Get(key)
	runtime.KeepAlive(g)
	return v, ok
}

func (g *guardedHandle) Insert(key, val int64) (ok bool) {
	if !g.admit() {
		return false
	}
	if g.m.rec {
		defer g.latch(nil)
	}
	ok = g.inner.Insert(key, val)
	runtime.KeepAlive(g)
	return ok
}

func (g *guardedHandle) Remove(key int64) (v int64, ok bool) {
	if !g.admit() {
		return 0, false
	}
	if g.m.rec {
		defer g.latch(nil)
	}
	v, ok = g.inner.Remove(key)
	runtime.KeepAlive(g)
	return v, ok
}

// Barrier is allowed after Close on purpose: a worker's local batch only
// drains through its own flush paths, and shutting down is exactly when
// that drain matters.
func (g *guardedHandle) Barrier() {
	if g.inner == nil || g.poisoned {
		return
	}
	if g.m.rec {
		defer g.latch(nil)
	}
	g.inner.Barrier()
	runtime.KeepAlive(g)
}

// Unregister is also allowed after Close, so workers release cleanly
// during shutdown. It clears the finalizer Register attached. A poisoned
// handle is adopted instead of unregistered: its status word is
// untrustworthy, and adoption forces it Out rather than reading it.
func (g *guardedHandle) Unregister() {
	if g.inner == nil {
		return
	}
	runtime.SetFinalizer(g, nil)
	if !g.poisoned {
		g.inner.Unregister()
	} else if c, ok := g.inner.(coreHandle); ok {
		c.Core().Adopt()
	}
}

// TryInsert implements TryInserter for every guarded handle: through the
// backpressure admission ladder when the map has one, as a plain Insert
// otherwise. Contained panics surface directly in the error result.
func (g *guardedHandle) TryInsert(key, val int64) (ok bool, err error) {
	if !g.admit() {
		return false, g.err
	}
	if g.m.rec {
		defer g.latch(&err)
	}
	if g.m.bp != nil {
		if err := g.m.bp.Admit(); err != nil {
			return false, err
		}
	}
	ok = g.inner.Insert(key, val)
	runtime.KeepAlive(g)
	return ok, nil
}
