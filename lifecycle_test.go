package hpbrcu_test

// Lifecycle tests: unified shutdown (Close), the ErrClosed admission
// gate, and panic containment under both policies. The close-while-busy
// soak is the acceptance scenario for ISSUE 4's shutdown leg: workers
// hammer an HP-BRCU map with the janitor running, Close
// lands mid-flight, and afterwards the books balance, every service
// goroutine has exited, and every post-Close operation reports ErrClosed
// without panicking.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/fault"
)

func lifecycleConfig() hpbrcu.Config {
	return hpbrcu.Config{
		BatchSize:    8,
		BackupPeriod: 8,
		Reaper: hpbrcu.ReaperConfig{
			Enabled:      true,
			LeaseTimeout: 50 * time.Millisecond,
			Interval:     2 * time.Millisecond,
		},
	}
}

// waitGoroutines polls until the goroutine count settles back to at most
// base (service goroutines exit asynchronously after Close returns their
// joined state; runtime bookkeeping goroutines can lag a tick).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCloseWhileBusy(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := hpbrcu.NewHList(hpbrcu.HPBRCU, lifecycleConfig())
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	sawClosed := make([]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			for i := int64(0); ; i++ {
				k := (int64(w)*1000 + i) % 128
				switch i % 3 {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Get(k)
				case 2:
					h.Remove(k)
				}
				if err := hpbrcu.TakeHandleErr(h); err != nil {
					if !errors.Is(err, hpbrcu.ErrClosed) {
						t.Errorf("worker %d: unexpected handle error: %v", w, err)
					}
					sawClosed[w] = true
					return
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	if err := hpbrcu.Close(m, 10*time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	for w, saw := range sawClosed {
		if !saw {
			t.Errorf("worker %d never observed ErrClosed", w)
		}
	}

	if left := m.Stats().Snapshot().Unreclaimed; left != 0 {
		t.Fatalf("unreclaimed = %d after Close", left)
	}

	// Post-Close: registration returns an inert handle; every operation
	// reports ErrClosed, never panics, and never touches the structure.
	h := m.Register()
	if v, ok := h.Get(1); v != 0 || ok {
		t.Fatalf("post-Close Get = (%d,%v)", v, ok)
	}
	if !errors.Is(hpbrcu.TakeHandleErr(h), hpbrcu.ErrClosed) {
		t.Fatal("post-Close Get did not latch ErrClosed")
	}
	if ok := h.Insert(1, 1); ok {
		t.Fatal("post-Close Insert succeeded")
	}
	if _, err := hpbrcu.TryInsert(h, 1, 1); !errors.Is(err, hpbrcu.ErrClosed) {
		t.Fatalf("post-Close TryInsert err = %v, want ErrClosed", err)
	}
	if _, _, err := hpbrcu.GetCtx(context.Background(), h, 1); !errors.Is(err, hpbrcu.ErrClosed) {
		t.Fatalf("post-Close GetCtx err = %v, want ErrClosed", err)
	}
	h.Unregister() // must be a clean no-op

	// The janitor must have exited.
	waitGoroutines(t, base)
}

func TestCloseIdempotentConcurrent(t *testing.T) {
	m, err := hpbrcu.NewHMList(hpbrcu.HPBRCU, lifecycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := m.Register()
	for k := int64(0); k < 64; k++ {
		h.Insert(k, k)
	}
	h.Unregister()

	const closers = 8
	errs := make([]error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = hpbrcu.Close(m, 5*time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent Close %d: %v", i, err)
		}
	}
	// A late Close reports the same settled result.
	if err := hpbrcu.Close(m, time.Millisecond); err != nil {
		t.Errorf("late Close: %v", err)
	}
}

// TestCloseNonDomainMap: a map without an HP-(B)RCU domain — an RCU list —
// still latches ErrClosed where HandleErr sees it, and TakeHandleErr
// clears it.
func TestCloseNonDomainMap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme hpbrcu.Scheme
		cfg    hpbrcu.Config
	}{
		{"RCU", hpbrcu.RCU, hpbrcu.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := hpbrcu.NewHList(tc.scheme, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := m.Register()
			h.Insert(1, 2)
			if err := hpbrcu.Close(m, time.Second); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, ok := h.Get(1); ok {
				t.Fatal("post-Close Get succeeded on existing handle")
			}
			if !errors.Is(hpbrcu.HandleErr(h), hpbrcu.ErrClosed) {
				t.Fatalf("HandleErr = %v after a rejected post-Close Get, want ErrClosed", hpbrcu.HandleErr(h))
			}
			if !errors.Is(hpbrcu.TakeHandleErr(h), hpbrcu.ErrClosed) {
				t.Fatal("post-Close Get did not latch ErrClosed")
			}
			if err := hpbrcu.HandleErr(h); err != nil {
				t.Fatalf("HandleErr = %v after TakeHandleErr, want nil", err)
			}
			h.Unregister()
		})
	}
}

func TestGetCtxFallbackAndCancellation(t *testing.T) {
	// A scheme with no native context support still honours GetCtx via
	// the fallback, including pre-flight rejection of a cancelled ctx.
	m, err := hpbrcu.NewHList(hpbrcu.RCU, hpbrcu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Register()
	defer h.Unregister()
	h.Insert(7, 11)

	if v, ok, err := hpbrcu.GetCtx(context.Background(), h, 7); err != nil || !ok || v != 11 {
		t.Fatalf("GetCtx = (%d,%v,%v), want (11,true,nil)", v, ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := hpbrcu.GetCtx(ctx, h, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if err := hpbrcu.BarrierCtx(ctx, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("BarrierCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if err := hpbrcu.BarrierCtx(context.Background(), h); err != nil {
		t.Fatalf("BarrierCtx = %v", err)
	}
}

// TestGetCtxCancelledHPBRCU covers both expedited schemes, whose walks
// cancel the same way. A context already done ends GetCtx before it enters
// a section. A context cancelled while the walk is in its section ends it
// at the next poll: under HP-RCU too, whose section is never signalled but
// neutralizes itself like HP-BRCU's. The list is shorter than
// BackupPeriod, so no checkpoint could be what notices.
func TestGetCtxCancelledHPBRCU(t *testing.T) {
	for _, s := range []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU} {
		t.Run(s.String(), func(t *testing.T) {
			const n = 512
			m, err := hpbrcu.NewHList(s, hpbrcu.Config{BackupPeriod: 1 << 20, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			h := m.Register()
			for k := int64(0); k < n; k++ {
				h.Insert(k, 3*k)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := hpbrcu.GetCtx(ctx, h, 3); !errors.Is(err, context.Canceled) {
				t.Fatalf("GetCtx(cancelled) err = %v, want context.Canceled", err)
			}
			// The rejection was pre-flight: the very next operation works.
			if v, ok, err := hpbrcu.GetCtx(context.Background(), h, 3); err != nil || !ok || v != 9 {
				t.Fatalf("GetCtx = (%d,%v,%v), want (9,true,nil)", v, ok, err)
			}

			// The context is cancelled at the walk's first poll, and the
			// poll waits until the watcher the walk armed has delivered it:
			// the walk must end right there, at that poll.
			ctx2 := &pollCancelledCtx{Context: context.Background(), done: make(chan struct{})}
			polls := 0
			defer func(p int) { atomicx.YieldPeriod, core.StepHook = p, nil }(atomicx.YieldPeriod)
			atomicx.YieldPeriod = 1 // instruments the walk, so the hook runs
			core.StepHook = func(b *brcu.Handle) {
				if polls++; polls == 1 {
					close(ctx2.done)
					for b.Poll() {
						runtime.Gosched()
					}
				}
			}
			if v, ok, err := hpbrcu.GetCtx(ctx2, h, n-1); !errors.Is(err, context.Canceled) {
				t.Fatalf("GetCtx cancelled at its first poll = (%d,%v,%v), want context.Canceled", v, ok, err)
			}
			if polls != 1 {
				t.Fatalf("the walk ran %d steps, want it ended at the poll the cancel landed before", polls)
			}
			core.StepHook = nil
			if got := m.Stats().CancelledOps.Load(); got != 1 {
				t.Fatalf("CancelledOps = %d, want the 1 walk the watcher ended", got)
			}
			if v, ok, err := hpbrcu.GetCtx(context.Background(), h, n-1); err != nil || !ok || v != 3*(n-1) {
				t.Fatalf("GetCtx after the cancel = (%d,%v,%v), want (%d,true,nil)", v, ok, err, 3*(n-1))
			}
			h.Unregister()
			if err := hpbrcu.Close(m, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// pollCancelledCtx is a context the test cancels by closing done: its Err
// reads nil until then, so the operation's pre-flight check passes and
// the cancel reaches the walk only through the watcher the walk arms.
type pollCancelledCtx struct {
	context.Context
	done chan struct{}
}

func (c *pollCancelledCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelledCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// oneShotPanic activates a fault schedule whose panic site fires exactly
// once (period 1, cooldown beyond any test's arrival count).
func oneShotPanic(t *testing.T) {
	t.Helper()
	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePanic] = fault.Plan{Period: 1, Cooldown: 1 << 62}
	fault.Activate(fault.New(fault.Config{Seed: 1, Plans: plans}))
	t.Cleanup(fault.Deactivate)
}

func TestPanicRecoverLatchesAndHandleStaysUsable(t *testing.T) {
	m, err := hpbrcu.NewHList(hpbrcu.HPBRCU, hpbrcu.Config{
		BackupPeriod: 8, BatchSize: 8, PanicPolicy: hpbrcu.PanicRecover,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Register()
	for k := int64(0); k < 50; k++ {
		h.Insert(k, k*2)
	}

	oneShotPanic(t)
	if v, ok := h.Get(25); v != 0 || ok {
		t.Fatalf("panicked Get = (%d,%v), want zero values", v, ok)
	}
	err = hpbrcu.TakeHandleErr(h)
	var pe *hpbrcu.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("latched error = %v, want *PanicError", err)
	}
	if pe.Value != fault.ErrInjectedPanic {
		t.Fatalf("PanicError.Value = %v, want the injected panic", pe.Value)
	}
	if pe.Poisoned {
		t.Fatal("restorable containment reported poisoned")
	}
	if pe.Handle == "" {
		t.Fatal("PanicError.Handle is empty (want id/gen/phase diagnostics)")
	}
	fault.Deactivate()

	// The same handle keeps working: the recovery barrier restored it
	// through the abort path.
	if v, ok := h.Get(25); !ok || v != 50 {
		t.Fatalf("Get(25) after containment = (%d,%v), want (50,true)", v, ok)
	}
	if !h.Insert(100, 200) {
		t.Fatal("Insert after containment failed")
	}
	if err := hpbrcu.TakeHandleErr(h); err != nil {
		t.Fatalf("clean op latched %v", err)
	}
	if got := m.Stats().Snapshot().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	h.Unregister()
	if err := hpbrcu.Close(m, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPanicRethrowPropagatesButRestores(t *testing.T) {
	m, err := hpbrcu.NewHList(hpbrcu.HPBRCU, hpbrcu.Config{BackupPeriod: 8, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Register()
	for k := int64(0); k < 50; k++ {
		h.Insert(k, k*2)
	}

	oneShotPanic(t)
	func() {
		defer func() {
			if r := recover(); r != fault.ErrInjectedPanic {
				t.Fatalf("recovered %v, want the original injected panic value", r)
			}
		}()
		h.Get(25)
		t.Fatal("injected panic did not propagate under PanicRethrow")
	}()
	fault.Deactivate()

	// Even under rethrow the handle was restored before the re-raise.
	if v, ok := h.Get(25); !ok || v != 50 {
		t.Fatalf("Get(25) after rethrow = (%d,%v), want (50,true)", v, ok)
	}
	if got := m.Stats().Snapshot().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	h.Unregister()
	if err := hpbrcu.Close(m, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
