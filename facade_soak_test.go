package hpbrcu

// Facade soak: the handle-free API's reason to exist is that 100k+
// short-lived goroutines — each spawning, running one operation, and
// exiting — keep the §5 garbage bound a function of the pool size, not
// the goroutine count, and leave nothing behind after Close.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// facadeSoakConfig is a deliberately tiny pool under a reaper tuned for
// test-speed leases, so exhaustion genuinely happens within the soak.
func facadeSoakConfig(poolSize int) Config {
	return Config{
		BatchSize:      64,
		ForceThreshold: 2,
		BackupPeriod:   16,
		Pool: PoolConfig{
			Size:           poolSize,
			AcquireTimeout: 2 * time.Millisecond,
		},
		Reaper: ReaperConfig{
			Enabled:      true,
			LeaseTimeout: 15 * time.Millisecond,
			Interval:     2 * time.Millisecond,
		},
	}
}

// runFacadeSoak fires `total` one-shot goroutines (at most `inflight`
// concurrently) at the facade and returns how many operations succeeded
// and how many were load-shed with ErrHandleExhausted. Any other error —
// or any panic — fails the test.
func runFacadeSoak(t *testing.T, m Map, total, inflight int) (served, shed int64) {
	t.Helper()
	var okOps, shedOps atomic.Int64
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			key := int64(i % 4096)
			var err error
			switch i % 4 {
			case 0, 1:
				_, err = m.Insert(key, key*2)
			case 2:
				_, _, err = m.Get(key)
			default:
				_, _, err = m.Remove(key)
			}
			switch {
			case err == nil:
				okOps.Add(1)
			case errors.Is(err, ErrHandleExhausted):
				shedOps.Add(1)
			default:
				t.Errorf("goroutine %d: unexpected facade error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	return okOps.Load(), shedOps.Load()
}

func TestFacadeSoakTransientGoroutines(t *testing.T) {
	total := 100_000
	if testing.Short() {
		total = 20_000
	}
	const poolSize = 16
	goroutinesBefore := runtime.NumGoroutine()

	m, err := NewHList(HPBRCU, facadeSoakConfig(poolSize))
	if err != nil {
		t.Fatal(err)
	}
	served, shed := runFacadeSoak(t, m, total, 256)
	if served == 0 {
		t.Fatal("no facade operation ever succeeded")
	}

	// The §5 bound must be a function of the pool size, not of the 100k
	// goroutines that came and went: the pool registers at most Size
	// handles, plus the reaper's service handle and one spare.
	impl := m.(*mapImpl)
	bound := impl.dom.GarbageBoundFor(poolSize+2, (poolSize+2)*8)
	if err := Close(m, 10*time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := m.Stats().Snapshot()
	if s.Unreclaimed != 0 {
		t.Fatalf("books unbalanced after Close: unreclaimed=%d", s.Unreclaimed)
	}
	if s.PeakUnreclaimed > bound {
		t.Fatalf("peak unreclaimed %d exceeds the pool-sized §5 bound %d", s.PeakUnreclaimed, bound)
	}
	if s.PoolCheckouts != served {
		t.Fatalf("PoolCheckouts = %d, want %d (one per served op, exact after quiesce)", s.PoolCheckouts, served)
	}
	if p := impl.hpool.Load(); p == nil || p.Live() != 0 {
		t.Fatalf("pool not drained to balanced books after Close")
	}

	// Zero goroutine leaks: the soak workers, the reaper and the pool must
	// all be gone once Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before soak, %d after Close",
				goroutinesBefore, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Logf("served=%d shed=%d peak=%d bound=%d", served, shed, s.PeakUnreclaimed, bound)
}
