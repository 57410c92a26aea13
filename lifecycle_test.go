package hpbrcu_test

// Lifecycle tests: unified shutdown (Close), the ErrClosed admission
// gate, and panic containment under both policies. The close-while-busy
// soak is the acceptance scenario for the shutdown leg: workers hammer an
// HP-BRCU map, Close lands mid-flight, and afterwards the books balance,
// no goroutine is left behind, and every post-Close operation reports
// ErrClosed without panicking.

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
	return hpbrcu.Config{BatchSize: 8, BackupPeriod: 8}
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
	h.Unregister() // must be a clean no-op

	// Nothing the map started may outlive Close.
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

// TestGetCtxFallbackAndCancellation: the facade's GetCtx on the hash map,
// under every scheme. A live context gets Get's answer, a done one its own
// error, and a closed map ErrClosed. Every scheme takes the one path that
// was once only the fallback of the non-neutralizing ones: the context is
// checked at the operation's boundary.
func TestGetCtxFallbackAndCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	live := context.Background()
	for _, s := range hpbrcu.Schemes {
		t.Run(s.String(), func(t *testing.T) {
			m, err := hpbrcu.NewHashMap(s, 16, hpbrcu.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := m.Insert(7, 11); !ok || err != nil {
				t.Fatalf("Insert(7) = (%v,%v)", ok, err)
			}
			for _, c := range []struct {
				name   string
				ctx    context.Context
				key    int64
				closed bool // Close the map before this row
				v      int64
				ok     bool
				err    error
			}{
				{name: "live/present", ctx: live, key: 7, v: 11, ok: true},
				{name: "live/absent", ctx: live, key: 8},
				{name: "cancelled", ctx: cancelled, key: 7, err: context.Canceled},
				{name: "expired", ctx: expired, key: 7, err: context.DeadlineExceeded},
				{name: "closed", ctx: live, key: 7, closed: true, err: hpbrcu.ErrClosed},
			} {
				if c.closed {
					if err := hpbrcu.Close(m, 5*time.Second); err != nil {
						t.Fatal(err)
					}
				}
				if v, ok, err := m.GetCtx(c.ctx, c.key); v != c.v || ok != c.ok || !errors.Is(err, c.err) {
					t.Errorf("%s: GetCtx(%d) = (%d,%v,%v), want (%d,%v,%v)", c.name, c.key, v, ok, err, c.v, c.ok, c.err)
				}
			}
		})
	}
}

// TestGetCtxCancelledHPBRCU covers both expedited schemes. A context
// already done ends GetCtx before the lookup, and the very next operation
// works. A context cancelled while the walk is in its section does not
// reach the walk: only a reclaimer's signal or an injected fault rolls a
// section back, so the walk runs to its answer with no rollback.
func TestGetCtxCancelledHPBRCU(t *testing.T) {
	for _, s := range []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU} {
		t.Run(s.String(), func(t *testing.T) {
			const n = 512
			m, err := hpbrcu.NewHList(s, hpbrcu.Config{BackupPeriod: 1 << 20, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < n; k++ {
				if ok, err := m.Insert(k, 3*k); !ok || err != nil {
					t.Fatalf("Insert(%d) = (%v,%v)", k, ok, err)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := m.GetCtx(ctx, 3); !errors.Is(err, context.Canceled) {
				t.Fatalf("GetCtx(cancelled) err = %v, want context.Canceled", err)
			}
			if v, ok, err := m.GetCtx(context.Background(), 3); err != nil || !ok || v != 9 {
				t.Fatalf("GetCtx = (%d,%v,%v), want (9,true,nil)", v, ok, err)
			}

			// Cancel at the walk's first step; the walk must go on.
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			steps := 0
			defer func(p int) { atomicx.YieldPeriod, core.StepHook = p, nil }(atomicx.YieldPeriod)
			atomicx.YieldPeriod = 1 // instruments the walk, so the hook runs
			core.StepHook = func(*brcu.Handle) {
				if steps++; steps == 1 {
					cancel2()
				}
			}
			rollbacks := m.Stats().Rollbacks.Load()
			if v, ok, err := m.GetCtx(ctx2, n-1); err != nil || !ok || v != 3*(n-1) {
				t.Fatalf("GetCtx cancelled mid-walk = (%d,%v,%v), want (%d,true,nil)", v, ok, err, 3*(n-1))
			}
			core.StepHook = nil
			if steps <= 1 {
				t.Fatalf("the walk ran %d steps, want it to run on past the cancel", steps)
			}
			if got := m.Stats().Rollbacks.Load() - rollbacks; got != 0 {
				t.Fatalf("%d rollbacks, want none: a cancel does not neutralize a section", got)
			}
			if err := hpbrcu.Close(m, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
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
