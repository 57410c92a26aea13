package hpbrcu

// Handle-free facade: the error-returning operation methods of the Map
// interface. Each operation checks a registered handle out of a
// lock-free tiered pool (internal/pool), runs through its lifecycle guard
// — backpressure gate, panic containment — and returns the handle on
// every path, including panics and context cancellation. The §5 garbage
// bound thereby scales with the pool size, not the goroutine count; see
// DESIGN.md §12 for the safety argument.

import (
	"context"
	"time"

	"github.com/smrgo/hpbrcu/internal/pool"
)

// ErrHandleExhausted is returned by facade operations when every pooled
// handle stayed checked out through the bounded acquisition wait
// (PoolConfig.AcquireTimeout). Like ErrMemoryPressure it is a load-shed
// signal, always returned and never panicked: the pool refuses to block
// forever or to register handles past its ceiling, because unbounded
// registration would grow the §5 garbage bound with the goroutine count
// — the failure mode the pool exists to prevent.
var ErrHandleExhausted = pool.ErrExhausted

// handlePool aliases the instantiated pool so mapImpl can hold an
// atomic.Pointer to it. The pooled resource is the guarded handle itself.
type handlePool = pool.Pool[*guardedHandle]

// pool returns the map's handle pool, creating it on first use. Lazy
// creation keeps registered-handle-only users at zero cost and lets the
// facade work without any opt-in configuration.
func (m *mapImpl) pool() *handlePool {
	if p := m.hpool.Load(); p != nil {
		return p
	}
	m.poolMu.Lock()
	defer m.poolMu.Unlock()
	if p := m.hpool.Load(); p != nil {
		return p
	}
	p := pool.New(pool.Config[*guardedHandle]{
		Size:           m.poolCfg.Size,
		AcquireTimeout: m.poolCfg.AcquireTimeout,
		Rec:            m.st(),
		New:            func() *guardedHandle { return m.Register().(*guardedHandle) },
		// Retire owns the disposal of a handle the pool (or the borrower)
		// holds outright. The guard's Unregister already refuses poisoned
		// handles — their garbage is the lease reaper's to adopt — and
		// works after Close, which is exactly when the drain runs.
		Retire: (*guardedHandle).Unregister,
	})
	m.hpool.Store(p)
	if m.closed.Load() {
		// Lost a race with Close (which only drains the pool it can see):
		// close this one immediately so no checkout ever succeeds on it.
		p.Close(time.Now())
	}
	return p
}

// checkout acquires a pooled handle, translating pool errors into the
// package's lifecycle vocabulary. ctx may be nil.
func (m *mapImpl) checkout(ctx context.Context) (*pool.Entry[*guardedHandle], error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	e, err := m.pool().Acquire(ctx)
	if err == nil {
		return e, nil
	}
	// An acquire that lost its bounded wait while Close was already in
	// flight must report the truthful cause: the wait ended because the
	// pool was draining, not because capacity ran out — callers treat
	// ErrHandleExhausted as "retry later", which a closed map will never
	// honour. Context errors stay the caller's own.
	if err == pool.ErrClosed || err == pool.ErrExhausted && m.closed.Load() {
		return nil, ErrClosed
	}
	return nil, err
}

// checkin returns a checkout on every completion path. completed is
// false only when a panic is unwinding through the facade frame
// (PanicRethrow, or a non-library panic): the handle was restored
// through the abort path before the rethrow, but a handle that just
// carried a panic is conservatively retired rather than recycled —
// panics are rare, capacity is re-mintable, and a poisoned handle must
// not be reused at all.
func (m *mapImpl) checkin(e *pool.Entry[*guardedHandle], completed bool) {
	g := e.Res()
	if !completed || g.poisoned {
		m.pool().Discard(e)
		return
	}
	// Never hand a latched error to the next borrower: facade callers get
	// their errors in return values, so the latch must be clean on reuse.
	g.err = nil
	m.pool().Release(e)
}

// Get implements the handle-free Map.Get.
func (m *mapImpl) Get(key int64) (v int64, ok bool, err error) {
	e, cerr := m.checkout(nil)
	if cerr != nil {
		return 0, false, cerr
	}
	completed := false
	defer func() { m.checkin(e, completed) }()
	g := e.Res()
	v, ok = g.Get(key)
	completed = true
	return v, ok, g.err
}

// GetCtx implements the handle-free Map.GetCtx: ctx bounds both the
// handle acquisition and (on schemes that support it) the lookup itself,
// via cooperative self-neutralization.
func (m *mapImpl) GetCtx(ctx context.Context, key int64) (v int64, ok bool, err error) {
	e, cerr := m.checkout(ctx)
	if cerr != nil {
		return 0, false, cerr
	}
	completed := false
	defer func() { m.checkin(e, completed) }()
	v, ok, err = e.Res().GetCtx(ctx, key)
	completed = true
	return v, ok, err
}

// Insert implements the handle-free Map.Insert.
func (m *mapImpl) Insert(key, val int64) (ok bool, err error) {
	e, cerr := m.checkout(nil)
	if cerr != nil {
		return false, cerr
	}
	completed := false
	defer func() { m.checkin(e, completed) }()
	g := e.Res()
	ok = g.Insert(key, val)
	completed = true
	return ok, g.err
}

// TryInsert implements the handle-free Map.TryInsert: Insert through the
// backpressure admission gate when the map has one, so both load-shed
// signals (ErrMemoryPressure, ErrHandleExhausted) surface on one call —
// callers test them with IsLoadShed instead of enumerating the
// sentinels by hand.
func (m *mapImpl) TryInsert(key, val int64) (ok bool, err error) {
	e, cerr := m.checkout(nil)
	if cerr != nil {
		return false, cerr
	}
	completed := false
	defer func() { m.checkin(e, completed) }()
	ok, err = e.Res().TryInsert(key, val)
	completed = true
	return ok, err
}

// Remove implements the handle-free Map.Remove.
func (m *mapImpl) Remove(key int64) (v int64, ok bool, err error) {
	e, cerr := m.checkout(nil)
	if cerr != nil {
		return 0, false, cerr
	}
	completed := false
	defer func() { m.checkin(e, completed) }()
	g := e.Res()
	v, ok = g.Remove(key)
	completed = true
	return v, ok, g.err
}

// Barrier implements the handle-free Map.Barrier.
func (m *mapImpl) Barrier() (err error) {
	e, cerr := m.checkout(nil)
	if cerr != nil {
		return cerr
	}
	completed := false
	defer func() { m.checkin(e, completed) }()
	g := e.Res()
	g.Barrier()
	completed = true
	return g.err
}
