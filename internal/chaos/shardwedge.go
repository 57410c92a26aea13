package chaos

// Shard-wedge chaos (DESIGN.md §15): the phased scenario behind
// `smrbench chaos -shardwedge`. One run wedges shard 0's janitor — it
// skips every tick via a Period-1 SiteShardStall plan, so neither its
// lease scan nor its epoch-health check runs — under live
// registered-handle load, and gates on
// the fault-isolation contract from both directions:
//
//   - sharded (Shards >= 2): the health monitor must quarantine the
//     wedged shard (facade writes shed with ErrShardQuarantined, reads
//     pass through), every healthy shard must keep advancing its epoch
//     and reclaiming while the wedge holds, and after the stall site is
//     switched off the recovery loop must rejoin the shard and Close
//     must drain every shard to balanced books;
//   - unsharded control (Shards == 1): the same wedge is a *global*
//     degradation — goroutine-death leaks fired during the wedge stay
//     unreaped (the whole map lost its janitor service, and there is no
//     quarantine to shed into), which is exactly the blast radius
//     sharding exists to contain. After un-wedging, the reaper must
//     still converge on every leak.
//
// The phases are condition-driven, not time-driven: workers run until
// the supervisor has observed each gate, so the run is as fast as the
// machine allows and never passes vacuously.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/fault"
)

// ShardWedgeScenario configures one RunShardWedge run.
type ShardWedgeScenario struct {
	// Shards is the shard count; 1 selects the unsharded control run.
	Shards int
	// Seed drives the fault schedule and the worker streams.
	Seed uint64
	// Workers is the number of concurrent registered-handle workers
	// (default DefaultWorkers).
	Workers int
	// KeyRange is the key space (default DefaultKeyRange).
	KeyRange int64
}

// ShardWedgeResult is the outcome of one RunShardWedge run.
type ShardWedgeResult struct {
	Scenario   ShardWedgeScenario
	Violations []string
	// Fired is the total number of injected faults.
	Fired uint64
	// Quarantines and Recoveries are the monitor's state transitions
	// (sharded runs; zero for the control).
	Quarantines, Recoveries int64
	// HealthyAdvanceMin is the smallest epoch-advance delta any healthy
	// shard made while shard 0 was wedged — the isolation evidence
	// (sharded runs).
	HealthyAdvanceMin int64
	// Leaked and Reaped are the control run's goroutine-death count and
	// the reaper's final tally.
	Leaked, Reaped int64
	// WedgeLeaks is how many of those leaks fired while the janitors
	// were wedged — each one demonstrably unreaped until recovery.
	WedgeLeaks int64
	// Stats is the final aggregate snapshot.
	Stats hpbrcu.StatsSnapshot
}

// Survived reports whether the run upheld every invariant.
func (r *ShardWedgeResult) Survived() bool { return len(r.Violations) == 0 }

// wedgeWorker runs one worker's deterministic stream until stop closes,
// re-registering (and counting a leak) whenever a SiteLeak fault kills
// the current incarnation. The per-key model survives incarnations: the
// worker owns its keys, so the map state it left behind is exactly the
// model state.
func wedgeWorker(m hpbrcu.Map, sc ShardWedgeScenario, w int, start *sync.WaitGroup, stop <-chan struct{}, viol *violations, leaks *atomic.Int64) {
	arrive(start) // every worker then stays registered until stop closes
	var own []int64
	for k := int64(w); k < sc.KeyRange; k += int64(sc.Workers) {
		own = append(own, k)
	}
	if len(own) == 0 {
		return
	}
	present := make(map[int64]bool, len(own))

	rng := sc.Seed ^ (uint64(w)+1)*0x9E3779B97F4A7C15
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		x := rng
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return x
	}

	for {
		leaked := wedgeIncarnation(m, sc, w, stop, viol, next, own, present)
		if !leaked {
			return
		}
		leaks.Add(1)
	}
}

// wedgeIncarnation drives one registered handle until a leak fault kills
// it (returns true) or stop closes (returns false, handle released).
func wedgeIncarnation(m hpbrcu.Map, sc ShardWedgeScenario, w int, stop <-chan struct{}, viol *violations, next func() uint64, own []int64, present map[int64]bool) (leaked bool) {
	defer func() {
		if r := recover(); r != nil {
			viol.addf("worker %d poison hit: %v", w, r)
			leaked = false
		}
	}()
	h := m.Register()
	defer func() {
		if !leaked {
			h.Unregister()
		}
	}()
	for i := 0; ; i++ {
		if i&63 == 0 {
			select {
			case <-stop:
				h.Barrier()
				return false
			default:
			}
			// Yield so the janitors and the monitor get scheduled even on
			// GOMAXPROCS=1: a pure spin loop would starve every 1ms ticker
			// for whole preemption quanta, which is a scheduling artifact,
			// not the service shape the wedge gates model.
			runtime.Gosched()
		}
		if fault.On && fault.Fire(fault.SiteLeak) {
			// Goroutine death: abandon the handle — no Unregister, no
			// Barrier. Only the reaper can recover its garbage.
			return true
		}
		r := next()
		k := own[int(r>>32)%len(own)]
		switch {
		case r%100 < 20: // read (own or foreign)
			fk := int64(next() % uint64(sc.KeyRange))
			if v, ok := h.Get(fk); ok && v != valueOf(fk) {
				viol.addf("worker %d: Get(%d) = %d, canonical value is %d", w, fk, v, valueOf(fk))
				return false
			}
		case r&(1<<40) == 0: // insert
			if ok := h.Insert(k, valueOf(k)); ok == present[k] {
				viol.addf("worker %d: Insert(%d) = %v, model has present=%v", w, k, ok, present[k])
				return false
			}
			present[k] = true
		default: // remove
			v, ok := h.Remove(k)
			if ok != present[k] || (ok && v != valueOf(k)) {
				viol.addf("worker %d: Remove(%d) = (%d,%v), model has present=%v", w, k, v, ok, present[k])
				return false
			}
			present[k] = false
		}
	}
}

// keysOnShard returns count distinct keys the map routes to shard s, all
// at or above keyRange — outside the workers' key space, so supervisor
// writes never violate the single-writer reference model.
func keysOnShard(m hpbrcu.Map, s int, keyRange int64, count int) []int64 {
	out := make([]int64, 0, count)
	for k := keyRange; len(out) < count; k++ {
		if hpbrcu.ShardOf(m, k) == s {
			out = append(out, k)
		}
	}
	return out
}

// shardWedgeConfig is the hostile per-shard configuration: chaos-speed
// batches plus janitors and (when sharded) the health monitor at
// test-speed intervals, so wedge verdicts and recoveries land within
// milliseconds.
func shardWedgeConfig(shards int) hpbrcu.Config {
	cfg := chaosConfig()
	cfg.Watchdog = true
	cfg.Reaper = hpbrcu.ReaperConfig{
		Enabled:      true,
		LeaseTimeout: 20 * time.Millisecond,
		Interval:     time.Millisecond,
	}
	if shards > 1 {
		cfg.Shards = hpbrcu.ShardsConfig{
			Count: shards,
			Health: hpbrcu.ShardHealthConfig{
				// The probe window over 1ms janitor ticks is the 20ms floor:
				// it spans several scheduler preemption quanta even on
				// GOMAXPROCS=1, so a false strike needs a live janitor silent
				// for 20ms and a verdict needs three such windows in a row —
				// while a truly wedged janitor (skip-every-tick) is still
				// detected in well under 100ms.
				Enabled:          true,
				StallThreshold:   3,
				RecoverThreshold: 2,
			},
		}
	}
	return cfg
}

// RunShardWedge executes one shard-wedge scenario. Runs must not
// overlap: the fault gate is process-global (see internal/fault).
func RunShardWedge(sc ShardWedgeScenario) ShardWedgeResult {
	if sc.Shards < 1 {
		sc.Shards = 1
	}
	if sc.Workers <= 0 {
		sc.Workers = DefaultWorkers
	}
	if sc.KeyRange <= 0 {
		sc.KeyRange = DefaultKeyRange
	}
	res := ShardWedgeResult{Scenario: sc}
	var viol violations

	plans := [fault.NumSites]fault.Plan{
		fault.SiteShardStall: {Period: 1, Shard: 0},
	}
	if sc.Shards == 1 {
		// The control run composes goroutine-death leaks so the wedge has
		// something to demonstrably fail to reap.
		plans[fault.SiteLeak] = fault.Plan{Period: 4000, Cooldown: 2000}
	}
	inj := fault.New(fault.Config{Seed: sc.Seed, Plans: plans})
	// The stall starts switched off: the map builds and warms healthy,
	// and the wedge begins exactly when the supervisor says so.
	inj.SetSiteEnabled(fault.SiteShardStall, false)
	fault.Activate(inj)

	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, shardWedgeConfig(sc.Shards))
	if err != nil {
		fault.Deactivate()
		res.Violations = append(res.Violations, fmt.Sprintf("map construction: %v", err))
		return res
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var leaks atomic.Int64
	var start sync.WaitGroup
	start.Add(sc.Workers)
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wedgeWorker(m, sc, w, &start, stop, &viol, &leaks)
		}(w)
	}

	if sc.Shards > 1 {
		runShardedWedge(m, sc, inj, &viol, &res)
	} else {
		runControlWedge(m, sc, inj, &viol, &leaks, &res)
	}

	close(stop)
	wg.Wait()
	res.Leaked = leaks.Load()

	if sc.Shards == 1 && res.Leaked > 0 && viol.empty() {
		// Post-wedge convergence: with the stall off, the reaper must
		// still adopt every leak (the WithLeak invariant, now after a
		// janitor outage).
		deadline := time.Now().Add(10 * time.Second)
		for {
			snap := hpbrcu.AggregateSnapshot(m)
			if snap.ReapedHandles >= res.Leaked && snap.Unreclaimed == 0 {
				break
			}
			if time.Now().After(deadline) {
				viol.addf("reap convergence after un-wedge: leaked=%d but reaped=%d unreclaimed=%d after 10s",
					res.Leaked, snap.ReapedHandles, snap.Unreclaimed)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Close stops the monitor and the janitors (whose drain paths cross
	// injection sites), so it must precede Deactivate.
	if err := hpbrcu.Close(m, 10*time.Second); err != nil {
		viol.addf("Close: %v", err)
	}
	fault.Deactivate()
	res.Fired = inj.TotalFired()

	snap := hpbrcu.AggregateSnapshot(m)
	res.Stats = snap
	res.Quarantines = snap.ShardQuarantines
	res.Recoveries = snap.ShardRecoveries
	res.Reaped = snap.ReapedHandles
	if viol.empty() {
		for i, s := range hpbrcu.ShardSnapshots(m) {
			if s.Unreclaimed != 0 || s.Retired != s.Reclaimed {
				viol.addf("shard %d books unbalanced after Close: retired=%d reclaimed=%d unreclaimed=%d",
					i, s.Retired, s.Reclaimed, s.Unreclaimed)
			}
		}
		if b := hpbrcu.GarbageBoundObserved(m); b >= 0 && snap.PeakUnreclaimed > b {
			viol.addf("bound: peak unreclaimed %d exceeds Σ-over-shards §5 bound %d", snap.PeakUnreclaimed, b)
		}
	}
	res.Violations = viol.list
	return res
}

// runShardedWedge is the sharded supervisor: wedge shard 0, gate on
// quarantine + routing + healthy-shard progress, un-wedge, gate on
// recovery.
func runShardedWedge(m hpbrcu.Map, sc ShardWedgeScenario, inj *fault.Injector, viol *violations, res *ShardWedgeResult) {
	wedged := keysOnShard(m, 0, sc.KeyRange, 4)
	healthy := keysOnShard(m, 1, sc.KeyRange, 1)

	waitQuarantined := func(want bool, what string) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if hpbrcu.ShardPressures(m)[0].Quarantined == want {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		viol.addf("timed out waiting for shard 0 to be %s", what)
		return false
	}

	// Warm healthy: a facade write on the soon-to-be-wedged shard must
	// work before the wedge.
	time.Sleep(10 * time.Millisecond)
	if _, err := m.Insert(wedged[0], 1); err != nil {
		viol.addf("pre-wedge Insert on shard 0: %v", err)
		return
	}

	inj.SetSiteEnabled(fault.SiteShardStall, true)
	if !waitQuarantined(true, "quarantined") {
		return
	}

	// Routing while wedged: writes to shard 0 shed, reads pass, other
	// shards accept writes.
	if _, err := m.TryInsert(wedged[1], 1); !errors.Is(err, hpbrcu.ErrShardQuarantined) {
		viol.addf("TryInsert on wedged shard: err=%v, want ErrShardQuarantined", err)
	}
	if _, _, err := m.Get(wedged[0]); err != nil {
		viol.addf("Get on wedged shard must pass through, got %v", err)
	}
	if _, err := m.Insert(healthy[0], 2); err != nil {
		viol.addf("Insert on healthy shard during wedge: %v", err)
	}

	// Isolation: while the wedge holds, every healthy shard keeps
	// advancing and reclaiming under the workers' load.
	before := hpbrcu.ShardSnapshots(m)
	time.Sleep(50 * time.Millisecond)
	after := hpbrcu.ShardSnapshots(m)
	res.HealthyAdvanceMin = -1
	for i := 1; i < len(after); i++ {
		adv := after[i].EpochAdvances - before[i].EpochAdvances
		rec := after[i].Reclaimed - before[i].Reclaimed
		if adv <= 0 || rec <= 0 {
			viol.addf("healthy shard %d starved during wedge: advances Δ=%d reclaimed Δ=%d", i, adv, rec)
		}
		if res.HealthyAdvanceMin < 0 || adv < res.HealthyAdvanceMin {
			res.HealthyAdvanceMin = adv
		}
	}
	if !hpbrcu.ShardPressures(m)[0].Quarantined {
		viol.addf("shard 0 left quarantine while its janitors were still wedged")
	}

	// Un-wedge and gate on the rejoin.
	inj.SetSiteEnabled(fault.SiteShardStall, false)
	if !waitQuarantined(false, "recovered") {
		return
	}
	if _, err := m.Insert(wedged[2], 3); err != nil {
		viol.addf("Insert on shard 0 after recovery: %v", err)
	}
}

// runControlWedge is the unsharded supervisor: the same wedge with no
// shard boundary to contain it — leaks fired during the outage must stay
// unreaped (global degradation), and no quarantine ever appears because
// there is no monitor to raise one.
func runControlWedge(m hpbrcu.Map, sc ShardWedgeScenario, inj *fault.Injector, viol *violations, leaks *atomic.Int64, res *ShardWedgeResult) {
	time.Sleep(10 * time.Millisecond)

	reapedBefore := hpbrcu.AggregateSnapshot(m).ReapedHandles
	leaksBefore := leaks.Load()
	inj.SetSiteEnabled(fault.SiteShardStall, true)

	// Hold the wedge until the workers have demonstrably leaked into it,
	// then long enough that a live reaper would certainly have ticked
	// (lease 20ms + grace 5ms at 1ms ticks).
	deadline := time.Now().Add(10 * time.Second)
	for leaks.Load() < leaksBefore+2 {
		if time.Now().After(deadline) {
			viol.addf("control: no leaks fired within 10s of the wedge")
			inj.SetSiteEnabled(fault.SiteShardStall, false)
			return
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	res.WedgeLeaks = leaks.Load() - leaksBefore

	if reapedDuring := hpbrcu.AggregateSnapshot(m).ReapedHandles - reapedBefore; reapedDuring != 0 {
		viol.addf("control: reaper adopted %d handles while wedged — the stall did not take", reapedDuring)
	}
	if hpbrcu.ShardPressures(m)[0].Quarantined {
		viol.addf("control: unsharded map reported a quarantine")
	}

	inj.SetSiteEnabled(fault.SiteShardStall, false)
}
