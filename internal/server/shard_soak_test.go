package server

// The shard-quarantine soak: a sharded smrcached store under live
// client load while shard 0's janitors (reaper and epoch watchdog) are
// deterministically wedged. The service-level claims under test:
//
//	quarantine surfaces   — writes owned by the wedged shard come back
//	                        -BUSY (ErrShardQuarantined is a load-shed
//	                        signal, same retry contract as backpressure);
//	degradation is partial — completed request throughput does not
//	                        collapse, because reads pass through and the
//	                        healthy shards keep full write service;
//	recovery is clean     — after the wedge lifts the shard rejoins,
//	                        writes succeed again, and the drain still
//	                        balances the books to zero unreclaimed nodes.

import (
	"context"
	"runtime"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/server/loadgen"
)

func TestServerShardQuarantineSoak(t *testing.T) {
	phase := 3 * time.Second
	if testing.Short() {
		phase = time.Second
	}
	goroutinesBefore := runtime.NumGoroutine()

	// One plan: wedge shard 0's janitors on every pass. The site starts
	// disabled so the baseline phase runs clean; SetSiteEnabled flips it
	// mid-run without violating the Activate/Deactivate quiescence
	// contract (Activate must precede map creation, Deactivate must
	// follow Close).
	var plans [fault.NumSites]fault.Plan
	plans[fault.SiteShardStall] = fault.Plan{Period: 1, Shard: 0}
	inj := fault.New(fault.Config{Seed: 0x5AD3, Plans: plans})
	inj.SetSiteEnabled(fault.SiteShardStall, false)
	fault.Activate(inj)
	defer fault.Deactivate()

	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, hpbrcu.Config{
		BatchSize: 64,
		Watchdog:  true,
		Reaper: hpbrcu.ReaperConfig{
			Enabled:      true,
			LeaseTimeout: 40 * time.Millisecond,
			Interval:     5 * time.Millisecond,
		},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		Shards: hpbrcu.ShardsConfig{
			Count: 4,
			// Janitor ticks are 5ms here, not the chaos harness's 1ms: on
			// a GOMAXPROCS=1 box serving live TCP load, four 1ms tickers
			// alone generate more timer wakeups than the request traffic
			// — janitors then starve for whole probe windows and healthy
			// shards flap into quarantine. The probe window is ten ticks
			// (50ms), so a verdict requires a janitor silent for 150ms
			// straight — far beyond scheduler jitter, yet still a fast
			// detection bound for a genuinely wedged shard.
			Health: hpbrcu.ShardHealthConfig{
				Enabled:          true,
				StallThreshold:   3,
				RecoverThreshold: 2,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	for k := int64(0); k < 256; k++ {
		if _, ierr := m.Insert(k, k*3); ierr != nil {
			t.Fatalf("prefill key %d: %v", k, ierr)
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

	runPhase := func(seed int64) loadgen.Result {
		res, lerr := loadgen.Run(loadgen.Config{
			Addr:       addr.String(),
			Rate:       1200,
			Conns:      8,
			Duration:   phase,
			Keys:       512,
			SetFrac:    0.3,
			DelFrac:    0.1,
			ScanFrac:   0.05,
			ScanCount:  16,
			MaxRetries: 1,
			Seed:       seed,
		})
		if lerr != nil {
			t.Fatal(lerr)
		}
		return res
	}
	waitQuarantined := func(want bool) {
		deadline := time.Now().Add(10 * time.Second)
		for hpbrcu.ShardPressures(m)[0].Quarantined != want {
			if time.Now().After(deadline) {
				t.Fatalf("shard 0 quarantined != %v within 10s", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase A: healthy baseline throughput.
	resA := runPhase(7)
	completedA := resA.OK + resA.Miss
	if completedA == 0 {
		t.Fatalf("baseline phase completed nothing: %v", resA)
	}
	if q := hpbrcu.AggregateSnapshot(m).ShardQuarantines; q != 0 {
		t.Fatalf("%d quarantine verdicts under healthy load (the monitor mistook normal operation for a wedge)", q)
	}

	// Wedge shard 0 and wait for the health monitor's verdict.
	inj.SetSiteEnabled(fault.SiteShardStall, true)
	waitQuarantined(true)

	// Phase B: same offered load against the degraded service.
	resB := runPhase(8)
	completedB := resB.OK + resB.Miss
	if resB.Busy == 0 {
		t.Fatalf("no -BUSY under quarantine (writes to the wedged shard must shed): %v", resB)
	}
	if completedB*4 < completedA {
		t.Fatalf("throughput collapsed under one-shard quarantine: baseline %d completed, degraded %d (want >= 1/4)",
			completedA, completedB)
	}
	if !hpbrcu.ShardPressures(m)[0].Quarantined {
		t.Fatal("shard 0 left quarantine while its janitors were still wedged")
	}
	for _, sp := range hpbrcu.ShardPressures(m)[1:] {
		if sp.Quarantined {
			t.Fatalf("healthy shard %d quarantined during the wedge phase", sp.Shard)
		}
	}

	// Lift the wedge: the shard must rejoin and take writes again.
	inj.SetSiteEnabled(fault.SiteShardStall, false)
	waitQuarantined(false)
	for k := int64(100000); ; k++ {
		if hpbrcu.ShardOf(m, k) != 0 {
			continue
		}
		if ok, ierr := m.Insert(k, 1); ierr != nil || !ok {
			t.Fatalf("insert on recovered shard 0: ok=%v err=%v", ok, ierr)
		}
		break
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.Shutdown(ctx); serr != nil {
		t.Fatalf("Shutdown after soak: %v", serr)
	}

	snap := hpbrcu.AggregateSnapshot(m)
	if snap.Unreclaimed != 0 {
		t.Fatalf("books unbalanced after drain: unreclaimed=%d", snap.Unreclaimed)
	}
	if snap.ShardQuarantines == 0 || snap.ShardRecoveries == 0 {
		t.Fatalf("quarantine accounting: quarantines=%d recoveries=%d, want both nonzero",
			snap.ShardQuarantines, snap.ShardRecoveries)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before soak, %d after drain",
				goroutinesBefore, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}

	t.Logf("baseline: %v", resA)
	t.Logf("degraded: %v", resB)
	t.Logf("quarantines=%d recoveries=%d", snap.ShardQuarantines, snap.ShardRecoveries)
}
