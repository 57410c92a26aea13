package server

// The shard-wedge soak: a sharded smrcached store under live client load
// while shard 0's janitor (its lease scan and drain) is deterministically
// wedged. The service-level claims under test:
//
//	the wedge takes      — shard 0's janitor ticks stand still through the
//	                       whole degraded phase, while the others tick on;
//	nothing sheds        — a frozen janitor is not a load-shed signal: no
//	                       -BUSY and no error in either phase, because
//	                       shard 0's workers keep advancing its epoch and
//	                       its backpressure tiers never fire;
//	throughput holds     — the degraded phase completes at least ¾ of the
//	                       healthy phase's requests;
//	shutdown is clean    — after the wedge lifts the drain balances every
//	                       shard's books, with no goroutine left behind.

import (
	"context"
	"runtime"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/server/loadgen"
)

func TestServerShardWedgeSoak(t *testing.T) {
	phase := 3 * time.Second
	if testing.Short() {
		phase = time.Second
	}
	goroutinesBefore := runtime.NumGoroutine()

	// One plan: wedge shard 0's janitor on every pass. The site starts
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
		Reaper: hpbrcu.ReaperConfig{
			Enabled:      true,
			LeaseTimeout: 40 * time.Millisecond,
			Interval:     5 * time.Millisecond,
		},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		Shards:       hpbrcu.ShardsConfig{Count: 4},
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

	runPhase := func(name string, seed int64) loadgen.Result {
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
		if res.Busy != 0 || res.Retries != 0 || res.Errors != 0 {
			t.Fatalf("%s phase: busy=%d retried=%d errors=%d, want none (a wedged janitor sheds nothing): %v",
				name, res.Busy, res.Retries, res.Errors, res)
		}
		return res
	}
	ticks := func() []int64 {
		var out []int64
		for _, sp := range hpbrcu.ShardPressures(m) {
			out = append(out, sp.JanitorTicks)
		}
		return out
	}

	// Phase A: healthy baseline throughput.
	resA := runPhase("baseline", 7)
	completedA := resA.OK + resA.Miss
	if completedA == 0 {
		t.Fatalf("baseline phase completed nothing: %v", resA)
	}

	// Wedge shard 0 and wait until its tick count stands still across
	// several tick periods (a tick already past the injection point may
	// still publish).
	inj.SetSiteEnabled(fault.SiteShardStall, true)
	for deadline, last := time.Now().Add(10*time.Second), int64(-1); ; {
		now := ticks()[0]
		if now == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard 0's janitor kept ticking for 10s under a Period-1 stall plan")
		}
		last = now
		time.Sleep(25 * time.Millisecond)
	}

	// Phase B: same offered load with shard 0's janitor frozen.
	before := ticks()
	resB := runPhase("wedged", 8)
	after := ticks()
	completedB := resB.OK + resB.Miss
	if after[0] != before[0] {
		t.Fatalf("shard 0's janitor ticked %d → %d during the wedged phase: the stall did not take", before[0], after[0])
	}
	for i := 1; i < len(after); i++ {
		if after[i] <= before[i] {
			t.Fatalf("healthy shard %d's janitor stood still too (%d → %d ticks): the wedge was not per-shard", i, before[i], after[i])
		}
	}
	if completedB*4 < completedA*3 {
		t.Fatalf("throughput fell under one wedged janitor: baseline %d completed, wedged %d (want >= 3/4)",
			completedA, completedB)
	}

	// Lift the wedge, then drain.
	inj.SetSiteEnabled(fault.SiteShardStall, false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.Shutdown(ctx); serr != nil {
		t.Fatalf("Shutdown after soak: %v", serr)
	}
	for i, snap := range hpbrcu.ShardSnapshots(m) {
		if snap.Unreclaimed != 0 || snap.Retired != snap.Reclaimed {
			t.Fatalf("shard %d books unbalanced after drain: retired=%d reclaimed=%d unreclaimed=%d",
				i, snap.Retired, snap.Reclaimed, snap.Unreclaimed)
		}
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
	t.Logf("wedged:   %v (shard 0 janitor ticks frozen at %d)", resB, after[0])
}
