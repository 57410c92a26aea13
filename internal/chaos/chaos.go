// Package chaos is the adversarial harness on top of internal/fault: it
// drives every scheme × structure combination through seed-reproducible
// hostile fault schedules and checks the invariants the paper's robustness
// argument promises — no allocator poison hits (use-after-free, double
// free), retired-but-unreclaimed memory within the §5 bound 2GN+GN²+H for
// HP-BRCU, books balancing after a drain, and per-key linearizability
// against a reference model.
//
// # Reference model
//
// A full linearizability checker is unnecessary here: the key space is
// partitioned among the workers, so every key has exactly one writer and
// the outcome of each of the owner's operations is deterministic. Each
// worker replays its operation stream against a local model map and
// reports any divergence (a lost insert, a resurrected remove, a stale
// get). Keys owned by other workers are still read, and any value
// returned must be the key's canonical value — catching torn or recycled
// reads across workers.
//
// # Determinism
//
// The operation stream of worker w under seed s is a pure function of
// (s, w), and the fault schedule a pure function of (s, site, arrival) —
// see internal/fault. Goroutine interleaving still varies between runs,
// so the harness asserts invariants, never exact schedules; a seed that
// exposed a bug stays hostile when replayed.
package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// Defaults for a zero Scenario field.
const (
	DefaultWorkers  = 4
	DefaultOps      = 3000
	DefaultKeyRange = 128
)

// Schedule is a named fault schedule: one plan per injection site.
type Schedule struct {
	Name  string
	Plans [fault.NumSites]Plan
}

// Plan aliases fault.Plan so callers need not import internal/fault.
type Plan = fault.Plan

// Schedules is the schedule corpus the `smrbench chaos` sweep runs, in
// increasing order of nastiness. Cooldowns are the liveness knobs: every
// plan that forces a rollback or suppresses a drain leaves enough fault-
// free arrivals in between for the victims to make progress (see the
// internal/fault package comment).
var Schedules = []Schedule{
	{Name: "stalls", Plans: plans(map[fault.Site]Plan{
		fault.SitePoll:       {Period: 64, StallYields: 4},
		fault.SiteShield:     {Period: 64, StallYields: 4},
		fault.SiteAllocStall: {Period: 64, StallYields: 4},
		fault.SiteFreeStall:  {Period: 64, StallYields: 4},
		fault.SiteMaskEnter:  {Period: 32, StallYields: 4},
		fault.SiteMaskExit:   {Period: 32, StallYields: 4},
	})},
	{Name: "rollback-storm", Plans: plans(map[fault.Site]Plan{
		fault.SiteStepRollback: {Period: 96, Cooldown: 64},
		fault.SitePoll:         {Period: 128, StallYields: 2},
	})},
	{Name: "mask-abort", Plans: plans(map[fault.Site]Plan{
		fault.SiteMaskAbort: {Period: 4, Cooldown: 4},
		fault.SiteMaskExit:  {Period: 8, StallYields: 2},
	})},
	{Name: "advance-storm", Plans: plans(map[fault.Site]Plan{
		fault.SiteAdvanceStorm: {Period: 2},
		fault.SitePoll:         {Period: 128, StallYields: 2},
	})},
	{Name: "drain-delay", Plans: plans(map[fault.Site]Plan{
		fault.SiteDrainSkip:    {Period: 2, Cooldown: 1},
		fault.SiteAllocExhaust: {Period: 4},
	})},
	{Name: "everything", Plans: plans(map[fault.Site]Plan{
		fault.SitePoll:         {Period: 128, StallYields: 4},
		fault.SiteShield:       {Period: 128, StallYields: 4},
		fault.SiteMaskEnter:    {Period: 64, StallYields: 2},
		fault.SiteMaskExit:     {Period: 64, StallYields: 2},
		fault.SiteMaskAbort:    {Period: 8, Cooldown: 8},
		fault.SiteStepRollback: {Period: 192, Cooldown: 64},
		fault.SiteAdvanceStorm: {Period: 4},
		fault.SiteDrainSkip:    {Period: 4, Cooldown: 1},
		fault.SiteAllocStall:   {Period: 128, StallYields: 4},
		fault.SiteAllocExhaust: {Period: 8},
		fault.SiteFreeStall:    {Period: 128, StallYields: 4},
	})},
}

// WithLeak returns a copy of scheds with a goroutine-death plan composed
// into each schedule (and "+leak" appended to its name): every ~1500th
// arrival at the leak site kills a worker mid-stream, dropping its
// registered handle. Under HP-RCU and HP-BRCU, Run asserts that every such
// handle is adopted once the garbage collector has run, and that its
// adopted garbage drains.
func WithLeak(scheds []Schedule) []Schedule {
	out := make([]Schedule, len(scheds))
	for i, s := range scheds {
		out[i] = s
		out[i].Name = s.Name + "+leak"
		out[i].Plans[fault.SiteLeak] = Plan{Period: 1500}
	}
	return out
}

// WithPanic returns a copy of scheds with an injected-panic plan composed
// into each schedule (and "+panic" appended to its name): roughly every
// 600th arrival at the panic site throws fault.ErrInjectedPanic out of
// user code inside a critical section — mid-traversal or inside a masked
// region. Run switches the map to PanicRecover so the containment layer
// converts every throw into a latched handle error, and asserts that the
// books still balance and that recoveries account one-for-one for the
// injected panics.
func WithPanic(scheds []Schedule) []Schedule {
	out := make([]Schedule, len(scheds))
	for i, s := range scheds {
		out[i] = s
		out[i].Name = s.Name + "+panic"
		out[i].Plans[fault.SitePanic] = Plan{Period: 600, Cooldown: 32}
	}
	return out
}

func plans(m map[fault.Site]Plan) [fault.NumSites]Plan {
	var out [fault.NumSites]Plan
	for s, p := range m {
		out[s] = p
	}
	return out
}

// ScheduleByName returns the named schedule from Schedules.
func ScheduleByName(name string) (Schedule, bool) {
	for _, s := range Schedules {
		if s.Name == name {
			return s, true
		}
	}
	return Schedule{}, false
}

// Scenario is one chaos run: a structure under a scheme, a seed, and a
// fault schedule. Zero Workers/Ops/KeyRange select the defaults.
type Scenario struct {
	Structure bench.Structure
	Scheme    hpbrcu.Scheme
	Seed      uint64
	Schedule  Schedule
	Workers   int
	Ops       int // operations per worker
	KeyRange  int64
	// Facade makes the workers drive the handle-free facade (m.Get,
	// m.Insert, m.Remove) instead of registered handles: every operation
	// checks a pooled handle out and back in, so ErrHandleExhausted is an
	// expected load-shed outcome (the model does not advance).
	Facade bool
	// Config overrides the map configuration. The zero value selects
	// hostile chaos defaults (small batches, short checkpoint distance).
	Config hpbrcu.Config
}

// Result is the outcome of one chaos run.
type Result struct {
	Scenario   Scenario
	Violations []string // empty = survived
	Fired      uint64   // total faults injected
	Stats      hpbrcu.StatsSnapshot
	Bound      int64 // observed §5 bound (HP-BRCU), else -1
	// Leaked is how many workers a SiteLeak fault killed mid-run,
	// abandoning their registered handles.
	Leaked uint64
	// TraceTail is the merged tail of every handle's event trace
	// (internal/obs), collected after the workers quiesced. On a
	// violation it shows what the reclamation core was doing when the
	// invariant broke; `smrbench chaos` prints it under the failure.
	TraceTail []string
}

// Survived reports whether the run upheld every invariant.
func (r *Result) Survived() bool { return len(r.Violations) == 0 }

// chaosConfig is the hostile default map configuration: tiny batches so
// epoch advances and reclamation fire constantly, short checkpoint
// distance so rollbacks land mid-traversal often.
func chaosConfig() hpbrcu.Config {
	return hpbrcu.Config{BatchSize: 16, ForceThreshold: 2, BackupPeriod: 16}
}

// violations collects invariant breaches from all workers.
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	if len(v.list) < 32 { // cap: one bad run can diverge on every op
		v.list = append(v.list, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

func (v *violations) empty() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.list) == 0
}

// valueOf is the canonical value for a key: every insert of k stores
// valueOf(k), so any other value read back is a torn or recycled read.
func valueOf(k int64) int64 { return k*31 + 7 }

// Run executes one scenario and reports the result. Runs must not
// overlap: the fault gate is process-global (see internal/fault).
func Run(sc Scenario) Result {
	if sc.Workers <= 0 {
		sc.Workers = DefaultWorkers
	}
	if sc.Ops <= 0 {
		sc.Ops = DefaultOps
	}
	if sc.KeyRange <= 0 {
		sc.KeyRange = DefaultKeyRange
	}
	cfg := sc.Config
	if cfg == (hpbrcu.Config{}) {
		cfg = chaosConfig()
	}
	if sc.Facade && cfg.Pool == (hpbrcu.PoolConfig{}) {
		// A deliberately small pool with a test-speed wait, so exhaustion
		// genuinely happens in-run.
		cfg.Pool = hpbrcu.PoolConfig{Size: 8, AcquireTimeout: 2 * time.Millisecond}
	}
	if sc.Schedule.Plans[fault.SitePanic].Period > 0 {
		// Injected panics must come back as latched errors, not crash the
		// workers: chaos validates the containment path, and MapHandle
		// methods have no error results to surface them through.
		cfg.PanicPolicy = hpbrcu.PanicRecover
	}
	// The schemes whose dropped handles are adopted (DESIGN.md §7).
	adopts := sc.Scheme == hpbrcu.HPRCU || sc.Scheme == hpbrcu.HPBRCU

	res := Result{Scenario: sc, Bound: -1}
	var viol violations

	fcfg := fault.Config{Seed: sc.Seed, Plans: sc.Schedule.Plans}
	inj := fault.New(fcfg)
	// Activate before the map exists, Deactivate after the workers and
	// every adoption are done. The trace collector follows the same
	// lifecycle: every handle the scenario
	// registers gets a ring buffer, and the merged tail lands in
	// Result.TraceTail. A collector installed by the live exporter
	// (`smrbench -metrics`) is restored afterwards.
	prevCol := obs.Active()
	col := obs.NewCollector(obs.DefaultRingSize)
	fault.Activate(inj)
	obs.Activate(col)

	m, ok := bench.NewMap(sc.Structure, sc.Scheme, sc.KeyRange, cfg)
	if !ok {
		fault.Deactivate()
		obs.Activate(prevCol)
		res.Violations = append(res.Violations, fmt.Sprintf("unsupported: %s under %s", sc.Structure, sc.Scheme))
		return res
	}
	col.SetRun(fmt.Sprintf("chaos %s/%s/%s seed=%d", sc.Structure, sc.Scheme, sc.Schedule.Name, sc.Seed), m.Stats())
	if prevCol != nil {
		prevCol.SetRun(fmt.Sprintf("chaos %s/%s/%s seed=%d", sc.Structure, sc.Scheme, sc.Schedule.Name, sc.Seed), m.Stats())
	}

	var wg sync.WaitGroup
	var leaks atomic.Uint64
	var start sync.WaitGroup
	start.Add(sc.Workers)
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if sc.Facade {
				runFacadeWorker(m, sc, w, &start, &viol)
				return
			}
			runWorker(m, sc, w, &start, &viol, &leaks)
		}(w)
	}
	wg.Wait()
	res.Leaked = leaks.Load()

	if sc.Facade {
		return finishFacade(m, inj, col, prevCol, &viol, res)
	}

	// Adoption invariant: a handle a SiteLeak killed is unreachable, so
	// once the garbage collector has run, its finalizer adopts it
	// (ReapedHandles counts an adoption when its drain round is done).
	// Faults stay active: adoption must hold under the same hostile
	// schedule the workers died under, and it must be over before the
	// gate closes, since its drain round crosses injection sites.
	if adopts && res.Leaked > 0 && viol.empty() {
		deadline := time.Now().Add(10 * time.Second)
		for m.Stats().ReapedHandles.Load() < int64(res.Leaked) {
			if time.Now().After(deadline) {
				viol.addf("adoption: leaked=%d but reaped=%d after 10s of garbage collections",
					res.Leaked, m.Stats().ReapedHandles.Load())
				break
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}

	// Faults off before the drain: the drain must observe the repaired,
	// fault-free behaviour (and a DrainSkip plan would defeat it). The
	// trace collector stays active through the drain so the tail shows
	// the final drain and reclaim events too.
	dh := m.Register()
	fault.Deactivate()
	res.Fired = inj.TotalFired()

	// Post-run invariants. Skip the drain when a worker panicked: its
	// handle may be parked inside a critical section, which a non-BRCU
	// drain could wait on forever.
	if viol.empty() {
		drain(dh)
		snap := m.Stats().Snapshot()
		if adopts && snap.Unreclaimed != 0 {
			viol.addf("books: unreclaimed=%d after drain (retired=%d reclaimed=%d)",
				snap.Unreclaimed, snap.Retired, snap.Reclaimed)
		}
		if b := hpbrcu.GarbageBoundObserved(m); b >= 0 {
			res.Bound = b
			if snap.PeakUnreclaimed > b {
				viol.addf("bound: peak unreclaimed %d exceeds §5 bound %d", snap.PeakUnreclaimed, b)
			}
		}
		// Containment accounting: every injected panic must have been
		// recovered exactly once (the recover barrier runs on each throw,
		// and nothing else panics in a surviving run).
		if fired := inj.Fired(fault.SitePanic); fired > 0 && snap.PanicsRecovered != int64(fired) {
			viol.addf("panics: %d injected but %d recovered", fired, snap.PanicsRecovered)
		}
	}
	res.Stats = m.Stats().Snapshot()
	res.Violations = viol.list
	obs.Activate(prevCol)
	res.TraceTail = col.FormatTail(traceTailPerHandle)
	return res
}

// arrive is the start barrier each worker crosses between registering and
// its first operation, so GarbageBoundObserved sees the scenario's N: on a
// plain build a fast worker used to finish before a late one had registered.
func arrive(start *sync.WaitGroup) {
	start.Done()
	start.Wait()
}

// traceTailPerHandle is how many events per handle a Result's TraceTail
// keeps — enough to see the sequence of advances, signals and drains
// leading into a violation without flooding the failure report.
const traceTailPerHandle = 16

// drain flushes all deferred reclamation through h and releases it.
func drain(h hpbrcu.MapHandle) {
	for i := 0; i < 8; i++ {
		h.Barrier()
	}
	h.Unregister()
}

// containedPanic consumes the lifecycle error an operation may have
// latched on the handle. A containment of the injected panic is expected
// chaos — SitePanic fires in a traversal, and an operation that has taken
// effect finishes instead of latching one (DESIGN.md §10), so the operation
// did not apply and the worker's model must not advance. Anything else
// (a poisoned handle, a foreign panic value, ErrClosed mid-run) is a
// violation. It reports (skip the model check, stop the worker).
func containedPanic(h hpbrcu.MapHandle, viol *violations, w int) (skip, fatal bool) {
	err := hpbrcu.TakeHandleErr(h)
	if err == nil {
		return false, false
	}
	var pe *hpbrcu.PanicError
	if errors.As(err, &pe) && !pe.Poisoned && pe.Value == fault.ErrInjectedPanic {
		return true, false
	}
	viol.addf("worker %d: unexpected handle error: %v", w, err)
	return true, true
}

// stream is worker w's deterministic operation stream, shared by every
// kind of worker: the keys it owns — k ≡ w (mod workers), so each key has
// exactly one writer — the model of which of them are present, and the
// splitmix64 generator the operations are drawn from, a pure function of
// (seed, w).
type stream struct {
	own     []int64
	present map[int64]bool
	rng     uint64
}

// newStream returns worker w's stream, or nil when w owns no key.
func newStream(seed uint64, w, workers int, keyRange int64) *stream {
	var own []int64
	for k := int64(w); k < keyRange; k += int64(workers) {
		own = append(own, k)
	}
	if len(own) == 0 {
		return nil
	}
	return &stream{own: own, present: make(map[int64]bool, len(own)), rng: seed ^ (uint64(w)+1)*0x9E3779B97F4A7C15}
}

// next draws the stream's next 64 bits.
func (s *stream) next() uint64 {
	s.rng += 0x9E3779B97F4A7C15
	x := s.rng
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// op draws the next operation: r picks its kind, k is the owned key it
// reads or writes.
func (s *stream) op() (r uint64, k int64) {
	r = s.next()
	return r, s.own[int(r>>32)%len(s.own)]
}

// runWorker replays worker w's deterministic operation stream against the
// map and its local reference model. Allocator poison panics (the paper's
// use-after-free detector) are converted into violations.
func runWorker(m hpbrcu.Map, sc Scenario, w int, start *sync.WaitGroup, viol *violations, leaks *atomic.Uint64) {
	defer func() {
		if r := recover(); r != nil {
			viol.addf("worker %d poison hit: %v", w, r)
		}
	}()

	h := m.Register()
	leaked := false
	defer func() {
		if !leaked {
			h.Unregister()
		}
	}()
	arrive(start)

	st := newStream(sc.Seed, w, sc.Workers, sc.KeyRange)
	if st == nil {
		return
	}
	for i := 0; i < sc.Ops; i++ {
		if fault.On && fault.Fire(fault.SiteLeak) {
			// Goroutine death: drop the registered handle mid-stream —
			// no Unregister, no Barrier. Under HP-RCU and HP-BRCU its
			// finalizer adopts it; elsewhere this is a real leak.
			leaked = true
			leaks.Add(1)
			return
		}
		r, k := st.op()
		switch r % 100 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // foreign read
			fk := int64(st.next() % uint64(sc.KeyRange))
			v, ok := h.Get(fk)
			if skip, fatal := containedPanic(h, viol, w); skip {
				if fatal {
					return
				}
				continue
			}
			if ok && v != valueOf(fk) {
				viol.addf("worker %d: Get(%d) = %d, canonical value is %d", w, fk, v, valueOf(fk))
				return
			}
		case 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
			20, 21, 22, 23, 24, 25, 26, 27, 28, 29: // own read
			v, ok := h.Get(k)
			if skip, fatal := containedPanic(h, viol, w); skip {
				if fatal {
					return
				}
				continue
			}
			if ok != st.present[k] || (ok && v != valueOf(k)) {
				viol.addf("worker %d op %d: Get(%d) = (%d,%v), model has present=%v", w, i, k, v, ok, st.present[k])
				return
			}
		default:
			if r&(1<<40) == 0 { // insert
				ok := h.Insert(k, valueOf(k))
				if skip, fatal := containedPanic(h, viol, w); skip {
					if fatal {
						return
					}
					continue
				}
				if ok == st.present[k] {
					viol.addf("worker %d op %d: Insert(%d) = %v, model has present=%v", w, i, k, ok, st.present[k])
					return
				}
				st.present[k] = true
			} else { // remove
				v, ok := h.Remove(k)
				if skip, fatal := containedPanic(h, viol, w); skip {
					if fatal {
						return
					}
					continue
				}
				if ok != st.present[k] || (ok && v != valueOf(k)) {
					viol.addf("worker %d op %d: Remove(%d) = (%d,%v), model has present=%v", w, i, k, v, ok, st.present[k])
					return
				}
				st.present[k] = false
			}
		}
	}
	h.Barrier()
}

// finishFacade is the facade-mode post-run: faults off, then Close —
// which drains the handle pool, runs the domain drain and settles the
// books — then the same verdicts as a registered-handle run: balanced
// books, the §5 bound and the panic accounting.
func finishFacade(m hpbrcu.Map, inj *fault.Injector, col, prevCol *obs.Collector, viol *violations, res Result) Result {
	fault.Deactivate()
	res.Fired = inj.TotalFired()
	closeErr := hpbrcu.Close(m, 10*time.Second)
	if viol.empty() {
		snap := m.Stats().Snapshot()
		if closeErr != nil {
			viol.addf("facade close: %v", closeErr)
		}
		if snap.Unreclaimed != 0 {
			viol.addf("facade books: unreclaimed=%d after Close (retired=%d reclaimed=%d)",
				snap.Unreclaimed, snap.Retired, snap.Reclaimed)
		}
		if b := hpbrcu.GarbageBoundObserved(m); b >= 0 {
			res.Bound = b
			if snap.PeakUnreclaimed > b {
				viol.addf("bound: peak unreclaimed %d exceeds §5 bound %d", snap.PeakUnreclaimed, b)
			}
		}
		if fired := inj.Fired(fault.SitePanic); fired > 0 && snap.PanicsRecovered != int64(fired) {
			viol.addf("panics: %d injected but %d recovered", fired, snap.PanicsRecovered)
		}
	}
	res.Stats = m.Stats().Snapshot()
	res.Violations = viol.list
	obs.Activate(prevCol)
	res.TraceTail = col.FormatTail(traceTailPerHandle)
	return res
}

// facadeErr classifies a facade operation error. ErrHandleExhausted is a
// load-shed: the operation never ran and the model must not advance. A
// contained injected panic likewise aborted before any mutation. Anything
// else — a poisoned handle, a foreign panic, ErrClosed mid-run — is a
// violation. It reports (skip the model check, stop the worker).
func facadeErr(err error, viol *violations, w int) (skip, fatal bool) {
	if err == nil {
		return false, false
	}
	if errors.Is(err, hpbrcu.ErrHandleExhausted) {
		return true, false
	}
	var pe *hpbrcu.PanicError
	if errors.As(err, &pe) && !pe.Poisoned && pe.Value == fault.ErrInjectedPanic {
		return true, false
	}
	viol.addf("facade worker %d: unexpected error: %v", w, err)
	return true, true
}

// runFacadeWorker replays worker w's deterministic stream through the
// handle-free facade: every operation checks a pooled handle out and back
// in. The worker owns no registered handle a SiteLeak could kill.
func runFacadeWorker(m hpbrcu.Map, sc Scenario, w int, start *sync.WaitGroup, viol *violations) {
	defer func() {
		if r := recover(); r != nil {
			viol.addf("facade worker %d: panic escaped the facade: %v", w, r)
		}
	}()
	arrive(start) // no handle of its own: the pool's checkouts overlap from the first op

	st := newStream(sc.Seed, w, sc.Workers, sc.KeyRange)
	if st == nil {
		return
	}
	for i := 0; i < sc.Ops; i++ {
		r, k := st.op()
		switch r % 100 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9: // foreign read
			fk := int64(st.next() % uint64(sc.KeyRange))
			v, ok, err := m.Get(fk)
			if skip, fatal := facadeErr(err, viol, w); skip {
				if fatal {
					return
				}
				continue
			}
			if ok && v != valueOf(fk) {
				viol.addf("facade worker %d: Get(%d) = %d, canonical value is %d", w, fk, v, valueOf(fk))
				return
			}
		case 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
			20, 21, 22, 23, 24, 25, 26, 27, 28, 29: // own read
			v, ok, err := m.Get(k)
			if skip, fatal := facadeErr(err, viol, w); skip {
				if fatal {
					return
				}
				continue
			}
			if ok != st.present[k] || (ok && v != valueOf(k)) {
				viol.addf("facade worker %d op %d: Get(%d) = (%d,%v), model has present=%v", w, i, k, v, ok, st.present[k])
				return
			}
		default:
			if r&(1<<40) == 0 { // insert
				ok, err := m.Insert(k, valueOf(k))
				if skip, fatal := facadeErr(err, viol, w); skip {
					if fatal {
						return
					}
					continue
				}
				if ok == st.present[k] {
					viol.addf("facade worker %d op %d: Insert(%d) = %v, model has present=%v", w, i, k, ok, st.present[k])
					return
				}
				st.present[k] = true
			} else { // remove
				v, ok, err := m.Remove(k)
				if skip, fatal := facadeErr(err, viol, w); skip {
					if fatal {
						return
					}
					continue
				}
				if ok != st.present[k] || (ok && v != valueOf(k)) {
					viol.addf("facade worker %d op %d: Remove(%d) = (%d,%v), model has present=%v", w, i, k, v, ok, st.present[k])
					return
				}
				st.present[k] = false
			}
		}
	}
	// Best-effort flush through one more checkout; exhaustion here is
	// fine — Close drains whatever is left.
	_ = m.Barrier()
}
