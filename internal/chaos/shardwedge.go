package chaos

// Shard-wedge chaos (DESIGN.md §15): the phased scenario behind
// `smrbench chaos -shardwedge`. One run wedges shard 0's janitor — it
// skips every tick via a Period-1 SiteShardStall plan, so neither its
// lease scan nor its drain runs — under live
// registered-handle load with goroutine-death leaks composed, and gates
// on what sharding guarantees, from both directions:
//
//   - sharded (Shards >= 2): while the wedge holds, shard 0 reaps nothing
//     and its janitor ticks stand still (the wedge took), every healthy
//     shard reaps its share of the leaks (the wedge is confined), every
//     shard — shard 0 included — keeps advancing its epoch and reclaiming
//     (reclamation does not ride on the janitor: the workers' own
//     advances drive it, §4.1), and facade writes to shard 0 succeed.
//     After the stall site is switched off and the workers stopped, every
//     shard must drain to zero unreclaimed before Close;
//   - unsharded control (Shards == 1): the same wedge is a *global*
//     degradation — leaks fired during the wedge stay unreaped, because
//     the whole map lost its janitor service, which is exactly the blast
//     radius sharding exists to contain. After un-wedging, the reaper
//     must still converge on every leak.
//
// The phases are condition-driven, not time-driven: workers run until
// the supervisor has observed each gate, so the run is as fast as the
// machine allows and never passes vacuously.

import (
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
	// WedgedReaped is how many handles shard 0 reaped while its janitor
	// was wedged (0 when the wedge took).
	WedgedReaped int64
	// HealthyReapedMin is the fewest handles any healthy shard reaped
	// during the wedge (sharded runs; -1 for the control).
	HealthyReapedMin int64
	// WedgedAdvanceMin and HealthyAdvanceMin are the smallest
	// epoch-advance delta shard 0, and any healthy shard, made in one
	// sampling window of the wedge (sharded runs; -1 for the control).
	WedgedAdvanceMin, HealthyAdvanceMin int64
	// Leaked and Reaped are the run's goroutine-death count and the
	// reapers' final tally (a sharded leak abandons one handle per shard
	// it touched, so there Reaped exceeds Leaked).
	Leaked, Reaped int64
	// WedgeLeaks is how many of those leaks fired while shard 0's janitor
	// was wedged.
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
	st := newStream(sc.Seed, w, sc.Workers, sc.KeyRange)
	if st == nil {
		return
	}
	for {
		leaked := wedgeIncarnation(m, sc, w, stop, viol, st)
		if !leaked {
			return
		}
		leaks.Add(1)
	}
}

// wedgeIncarnation drives one registered handle until a leak fault kills
// it (returns true) or stop closes (returns false, handle released).
func wedgeIncarnation(m hpbrcu.Map, sc ShardWedgeScenario, w int, stop <-chan struct{}, viol *violations, st *stream) (leaked bool) {
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
			// Yield so the janitors get scheduled even on GOMAXPROCS=1:
			// a pure spin loop would starve every 1ms ticker for whole
			// preemption quanta, which is a scheduling artifact, not the
			// service shape the wedge gates model.
			runtime.Gosched()
		}
		if fault.On && fault.Fire(fault.SiteLeak) {
			// Goroutine death: abandon the handle — no Unregister, no
			// Barrier. Only the reaper can recover its garbage.
			return true
		}
		r, k := st.op()
		switch {
		case r%100 < 20: // read (own or foreign)
			fk := int64(st.next() % uint64(sc.KeyRange))
			if v, ok := h.Get(fk); ok && v != valueOf(fk) {
				viol.addf("worker %d: Get(%d) = %d, canonical value is %d", w, fk, v, valueOf(fk))
				return false
			}
		case r&(1<<40) == 0: // insert
			if ok := h.Insert(k, valueOf(k)); ok == st.present[k] {
				viol.addf("worker %d: Insert(%d) = %v, model has present=%v", w, k, ok, st.present[k])
				return false
			}
			st.present[k] = true
		default: // remove
			v, ok := h.Remove(k)
			if ok != st.present[k] || (ok && v != valueOf(k)) {
				viol.addf("worker %d: Remove(%d) = (%d,%v), model has present=%v", w, k, v, ok, st.present[k])
				return false
			}
			st.present[k] = false
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
// batches plus janitors at test-speed intervals, so reaps land within
// milliseconds.
func shardWedgeConfig(shards int) hpbrcu.Config {
	cfg := chaosConfig()
	cfg.Reaper = hpbrcu.ReaperConfig{
		Enabled:      true,
		LeaseTimeout: 20 * time.Millisecond,
		Interval:     time.Millisecond,
	}
	cfg.Shards = hpbrcu.ShardsConfig{Count: shards}
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
	res := ShardWedgeResult{Scenario: sc, HealthyReapedMin: -1, WedgedAdvanceMin: -1, HealthyAdvanceMin: -1}
	var viol violations

	// Goroutine-death leaks give every janitor something to reap, so the
	// wedge has something to demonstrably fail at on shard 0 alone.
	plans := [fault.NumSites]fault.Plan{
		fault.SiteShardStall: {Period: 1, Shard: 0},
		fault.SiteLeak:       {Period: 4000, Cooldown: 2000},
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
		runShardedWedge(m, sc, inj, &viol, &leaks, &res)
	} else {
		runControlWedge(m, sc, inj, &viol, &leaks, &res)
	}

	close(stop)
	wg.Wait()
	res.Leaked = leaks.Load()

	if res.Leaked > 0 && viol.empty() {
		// Post-wedge convergence: with the stall off and the workers
		// stopped, every shard's books must drain to zero, and (control)
		// the reaper must still adopt every leak (the WithLeak invariant,
		// now after a janitor outage). A sharded leak abandons one handle
		// per shard it touched, so only the control compares counts.
		deadline := time.Now().Add(10 * time.Second)
		for {
			snap := hpbrcu.AggregateSnapshot(m)
			if snap.Unreclaimed == 0 && (sc.Shards > 1 || snap.ReapedHandles >= res.Leaked) {
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

	// Close stops the janitors (whose drain paths cross injection sites),
	// so it must precede Deactivate.
	if err := hpbrcu.Close(m, 10*time.Second); err != nil {
		viol.addf("Close: %v", err)
	}
	fault.Deactivate()
	res.Fired = inj.TotalFired()

	snap := hpbrcu.AggregateSnapshot(m)
	res.Stats = snap
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

// wedgeWindow is the sampling window over which every shard must show
// epoch progress while shard 0's janitor is wedged: dozens of 1ms janitor
// ticks and several scheduler quanta even on GOMAXPROCS=1.
const wedgeWindow = 50 * time.Millisecond

// awaitWedge waits until shard 0's janitor tick count stands still across
// a few ticks (a tick already past the injection point may still
// publish) and reports whether it did within 10s.
func awaitWedge(m hpbrcu.Map, viol *violations) bool {
	last := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		now := hpbrcu.ShardPressures(m)[0].JanitorTicks
		if now == last {
			return true
		}
		last = now
		time.Sleep(10 * time.Millisecond)
	}
	viol.addf("shard 0's janitor kept ticking for 10s under a Period-1 stall plan")
	return false
}

// runShardedWedge is the sharded supervisor: wedge shard 0, then sample
// windows until every healthy shard has reaped (at least minWindows of
// them), gating each window on every shard's epoch progress and the
// whole span on shard 0 reaping nothing with its ticks frozen; facade
// writes to shard 0 must succeed throughout. Un-wedges on return.
func runShardedWedge(m hpbrcu.Map, sc ShardWedgeScenario, inj *fault.Injector, viol *violations, leaks *atomic.Int64, res *ShardWedgeResult) {
	const minWindows = 3
	wedged := keysOnShard(m, 0, sc.KeyRange, 3)

	// Warm healthy: a facade write on the soon-to-be-wedged shard must
	// work before the wedge.
	time.Sleep(10 * time.Millisecond)
	if _, err := m.Insert(wedged[0], 1); err != nil {
		viol.addf("pre-wedge Insert on shard 0: %v", err)
		return
	}

	inj.SetSiteEnabled(fault.SiteShardStall, true)
	defer inj.SetSiteEnabled(fault.SiteShardStall, false)
	if !awaitWedge(m, viol) {
		return
	}
	ticks := hpbrcu.ShardPressures(m)[0].JanitorTicks
	base, leaksBefore := hpbrcu.ShardSnapshots(m), leaks.Load()

	// A wedged janitor sheds nothing: facade writes to its shard land.
	if ok, err := m.Insert(wedged[1], 1); !ok || err != nil {
		viol.addf("Insert on wedged shard: ok=%v err=%v, want success", ok, err)
	}
	if ok, err := m.TryInsert(wedged[2], 1); !ok || err != nil {
		viol.addf("TryInsert on wedged shard: ok=%v err=%v, want success", ok, err)
	}

	minOf := func(cur *int64, v int64) {
		if *cur < 0 || v < *cur {
			*cur = v
		}
	}
	prev := base
	deadline := time.Now().Add(10 * time.Second)
	for window := 1; ; window++ {
		time.Sleep(wedgeWindow)
		cur := hpbrcu.ShardSnapshots(m)
		for i := range cur {
			adv := cur[i].EpochAdvances - prev[i].EpochAdvances
			rec := cur[i].Reclaimed - prev[i].Reclaimed
			if adv <= 0 || rec <= 0 {
				viol.addf("shard %d stopped reclaiming during the wedge: window %d advances Δ=%d reclaimed Δ=%d", i, window, adv, rec)
				return
			}
			if i == 0 {
				minOf(&res.WedgedAdvanceMin, adv)
			} else {
				minOf(&res.HealthyAdvanceMin, adv)
			}
		}
		prev = cur

		res.HealthyReapedMin = -1
		for i := 1; i < len(cur); i++ {
			minOf(&res.HealthyReapedMin, cur[i].ReapedHandles-base[i].ReapedHandles)
		}
		if window >= minWindows && res.HealthyReapedMin > 0 {
			break
		}
		if time.Now().After(deadline) {
			viol.addf("a healthy shard reaped nothing within 10s of the wedge (fewest reaped: %d)", res.HealthyReapedMin)
			return
		}
	}

	res.WedgeLeaks = leaks.Load() - leaksBefore
	res.WedgedReaped = prev[0].ReapedHandles - base[0].ReapedHandles
	if res.WedgedReaped != 0 {
		viol.addf("wedged shard 0 reaped %d handles — the stall did not take", res.WedgedReaped)
	}
	if now := hpbrcu.ShardPressures(m)[0].JanitorTicks; now != ticks {
		viol.addf("wedged shard 0's janitor ticked %d → %d — the stall did not take", ticks, now)
	}
}

// runControlWedge is the unsharded supervisor: the same wedge with no
// shard boundary to contain it — leaks fired during the outage must stay
// unreaped (global degradation).
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

	res.WedgedReaped = hpbrcu.AggregateSnapshot(m).ReapedHandles - reapedBefore
	if res.WedgedReaped != 0 {
		viol.addf("control: reaper adopted %d handles while wedged — the stall did not take", res.WedgedReaped)
	}

	inj.SetSiteEnabled(fault.SiteShardStall, false)
}
