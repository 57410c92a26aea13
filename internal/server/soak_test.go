package server

// The server chaos soak: every failure mode at once, for 30 seconds
// (3 under -short) — injected critical-section panics under
// PanicRecover, stalled network reads and writes, injected server-side
// disconnects — under an open-loop client mix that itself
// misbehaves (slow readers, mid-request disconnects, connection churn).
// The exit criteria are the PR's headline robustness claims:
//
//	books balance      — Shutdown drains to zero unreclaimed nodes;
//	containment exact  — recoveries == injected panic fires;
//	nothing leaks      — goroutine count returns to the baseline.

import (
	"context"
	"runtime"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/server/loadgen"
)

func TestServerChaosSoak(t *testing.T) {
	duration := 30 * time.Second
	if testing.Short() {
		duration = 3 * time.Second
	}
	goroutinesBefore := runtime.NumGoroutine()

	// Activate before the map exists so the reaper goroutine (started by
	// the constructor) observes the gate via its creation edge — the
	// same ordering the chaos harness uses. Everything after this line,
	// prefill included, runs under fire.
	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePanic] = fault.Plan{Period: 300, Cooldown: 10}
	plans[fault.SiteNetRead] = fault.Plan{Period: 97, StallYields: 200}
	plans[fault.SiteNetWrite] = fault.Plan{Period: 89, StallYields: 200}
	plans[fault.SiteNetDrop] = fault.Plan{Period: 211, Cooldown: 5}
	inj := fault.New(fault.Config{Seed: 0x50AC, Plans: plans})
	fault.Activate(inj)
	defer fault.Deactivate()

	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, hpbrcu.Config{
		BatchSize:   64,
		PanicPolicy: hpbrcu.PanicRecover,
		Pool: hpbrcu.PoolConfig{
			Size:           16,
			AcquireTimeout: 2 * time.Millisecond,
		},
		Reaper: hpbrcu.ReaperConfig{
			Enabled:      true,
			LeaseTimeout: 15 * time.Millisecond,
			Interval:     2 * time.Millisecond,
		},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Prefill under fire: injected panics surface as errors here
	// (PanicRecover), so tolerate and retry — they are part of the soak.
	for k := int64(0); k < 256; k++ {
		for attempt := 0; attempt < 5; attempt++ {
			if _, ierr := m.Insert(k, k*3); ierr == nil {
				break
			}
		}
	}

	s, err := New(Config{
		Map:          m,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		RetryAfter:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	res, err := loadgen.Run(loadgen.Config{
		Addr:      addr.String(),
		Rate:      4000,
		Conns:     8,
		Duration:  duration,
		Keys:      512,
		SetFrac:   0.3,
		DelFrac:   0.1,
		ScanFrac:  0.05,
		ScanCount: 16,
		Churn:     500 * time.Millisecond,
		SlowFrac:  0.25,
		DropFrac:  0.02,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK+res.Miss == 0 {
		t.Fatalf("no request ever completed: %v", res)
	}
	if res.Disconnects == 0 {
		t.Fatalf("chaos client never disconnected mid-request: %v", res)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.Shutdown(ctx); serr != nil {
		t.Fatalf("Shutdown after soak: %v", serr)
	}

	snap := m.Stats().Snapshot()
	if snap.Unreclaimed != 0 {
		t.Fatalf("books unbalanced after soak drain: unreclaimed=%d", snap.Unreclaimed)
	}
	// Containment accounting is exact: every injected panic was recovered
	// by the library's recover barrier, none escaped past it (the
	// per-connection barrier saw zero, because PanicRecover converts
	// in-critical-section panics to errors before they can unwind).
	if fired := int64(inj.Fired(fault.SitePanic)); snap.PanicsRecovered != fired {
		t.Fatalf("PanicsRecovered = %d, want %d (injected panic fires)", snap.PanicsRecovered, fired)
	}
	if s.ConnPanics() != 0 {
		t.Fatalf("ConnPanics = %d, want 0 under PanicRecover", s.ConnPanics())
	}

	// Zero goroutine leaks: handlers, accept loop, reaper and loadgen
	// workers must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before soak, %d after drain",
				goroutinesBefore, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}

	t.Logf("soak: %v", res)
	t.Logf("soak: panics=%d netRead=%d netWrite=%d netDrop=%d shedScans=%d rejectedWrites=%d closedByLadder=%d",
		inj.Fired(fault.SitePanic), inj.Fired(fault.SiteNetRead), inj.Fired(fault.SiteNetWrite), inj.Fired(fault.SiteNetDrop),
		snap.ShedScans, snap.RejectedWrites, snap.ClosedByLadder)
}
