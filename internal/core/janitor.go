package core

// The janitor: the one background goroutine an HP-BRCU domain with the
// reaper on runs. The epoch needs no watcher — Algorithm 5 bounds it on
// the operation path, every push counted against ForceThreshold — but a
// dead worker makes no pushes, so one ticker drives fixed, ordered stages
// through one exempt service handle:
//
//	lease scan → drain → backpressure → report
//
// The lease scan (internal/reap) keeps its protocol code and hands what it
// adopts into the domain-global paths to the progress-gated drain stage.
// See DESIGN.md §7.

import (
	"sync"
	"time"

	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/reap"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// JanitorConfig configures StartJanitor. Zero durations select the
// defaults.
type JanitorConfig struct {
	// Reaper turns the janitor — its lease-scan stage and the reap-aware
	// handle paths — on; without it StartJanitor starts nothing.
	Reaper bool
	// LeaseTimeout is how long a handle's status word must stand still
	// before the scan claims it (default reap.DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// Interval is the janitor tick (default reap.DefaultInterval).
	Interval time.Duration
}

// Report is what a janitor publishes at the end of every tick, read by
// the per-shard STATS and /metrics rows (hpbrcu.ShardPressures).
type Report struct {
	// Ticks counts completed ticks; a stalled tick (fault.SiteShardStall)
	// publishes nothing and does not count, so a count that stands still
	// names a wedged janitor.
	Ticks int64
	// Parked is how many handles the lease scan holds parked: their word
	// stood for the lease timeout, but they hold nothing to adopt, so they
	// were left registered and are not counted in ReapedHandles.
	Parked int
}

// Janitor is a running per-domain janitor; see StartJanitor.
type Janitor struct {
	rec      *stats.Reclamation
	interval time.Duration
	shardID  int

	// The stages. bp is nil with backpressure off; drain is one forced
	// flush-advance-reclaim round through the service handle.
	reaper *reap.Reaper
	bp     *reap.Backpressure
	drain  func()

	// gate decides whether the drain stage runs a round this tick: armed
	// by an adoption, open while the rounds make progress.
	gate reap.DrainGate

	trace *obs.Trace
	// last* remember the counter levels already mirrored into the trace.
	lastThrottles int64
	lastRejects   int64

	mu     sync.Mutex // guards report
	report Report

	d        *Domain // cleared of this janitor by Stop; nil in mock-target tests
	h        *Handle // the service handle behind drain
	stop     chan struct{}
	done     chan struct{}
	haltOnce sync.Once
	stopOnce sync.Once
}

// StartJanitor launches the domain's janitor when cfg turns the reaper on.
// It first enables leases, so it must run before any worker goroutine
// registers (the lease gate is a plain bool, fault.On contract). It
// returns nil for HP-RCU and with the reaper off. CloseDrain stops the
// janitor as part of the shutdown; Stop does so on its own.
func (d *Domain) StartJanitor(cfg JanitorConfig) *Janitor {
	if d.backend == BackendRCU || !cfg.Reaper {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = reap.DefaultInterval
	}
	d.brcu.EnableLeases()
	h := d.register(true) // exempt: the janitor's own handle idles by design
	j := &Janitor{
		rec:      d.rec,
		interval: cfg.Interval,
		shardID:  d.shardID,
		bp:       d.bp,
		drain:    h.Barrier,
		d:        d,
		h:        h,
		reaper:   reap.New(reapTarget{d}, reap.Config{LeaseTimeout: cfg.LeaseTimeout, Rec: d.rec}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if obs.On {
		j.trace = obs.NewTrace("janitor")
	}
	d.jan = j
	go j.run()
	return j
}

// Report returns the report of the last completed tick. Safe from any
// goroutine.
func (j *Janitor) Report() Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

func (j *Janitor) run() {
	defer close(j.done)
	ticker := time.NewTicker(j.interval)
	defer ticker.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-ticker.C:
		}
		j.tick(time.Now().UnixNano())
	}
}

// tick is one janitor pass at time now (UnixNano); factored out of run
// with an explicit clock so tests can drive the stages deterministically.
func (j *Janitor) tick(now int64) {
	// The shard-wedge injection point: a fired stall skips the pass
	// entirely — no look at any handle, no adoption, no drain, no
	// report — so a Period-1 plan freezes the janitor as dead as a wedged
	// goroutine, deterministically and wall-clock independently: adoption
	// stops, and Ticks stand still.
	// FireShard reads the injector through the atomic gate — this
	// goroutine outlives Activate/Deactivate.
	if fault.FireShard(fault.SiteShardStall, j.shardID) {
		return
	}

	// Lease scan: look, claim, adopt, remove, finish.
	if j.reaper.Tick(now) > 0 {
		j.gate.Arm()
	}

	// Drain, while it makes progress.
	if j.gate.Allow(j.rec.Unreclaimed.Load()) {
		j.drain()
	} else if j.h != nil {
		j.h.HP.Sweep() // what needs no forced advance is never left for Close
	}

	if j.bp != nil {
		j.bp.Refresh()
		if obs.On {
			// Workers cannot write shared traces (single-writer rings),
			// so the janitor mirrors the counter deltas into its own.
			if t := j.rec.BackpressureThrottles.Load(); t > j.lastThrottles {
				j.trace.Rec(obs.EvThrottle, t-j.lastThrottles)
				j.lastThrottles = t
			}
			if r := j.rec.BackpressureRejects.Load(); r > j.lastRejects {
				j.trace.Rec(obs.EvReject, r-j.lastRejects)
				j.lastRejects = r
			}
		}
	}

	j.publish()
}

// publish replaces the report with the stages' current state and counts
// one tick.
func (j *Janitor) publish() {
	r := Report{Parked: j.reaper.Parked()}
	j.mu.Lock()
	r.Ticks = j.report.Ticks + 1
	j.report = r
	j.mu.Unlock()
}

// halt stops the goroutine and waits for it to exit; afterwards the
// service handle and the tick state belong to the caller. Idempotent.
func (j *Janitor) halt() {
	j.haltOnce.Do(func() {
		close(j.stop)
		<-j.done
	})
}

// Stop terminates the janitor, releases its service handle and detaches it
// from the domain, so a later CloseDrain drains through a handle of its
// own instead of the unregistered one. Idempotent and safe to call
// concurrently (Once.Do blocks losers until the winner has finished the
// teardown), but not concurrently with CloseDrain.
func (j *Janitor) Stop() {
	j.halt()
	j.stopOnce.Do(func() {
		j.h.Unregister()
		j.d.jan = nil
	})
}

// --- reap.Victim on *Handle -------------------------------------------

// Word returns the BRCU half's status word; the HP half's retired list is
// mutated only inside BeginMut spans and critical sections, which move
// that word, so one word dates both halves.
func (h *Handle) Word() uint64 { return h.brcu.Word() }

// Exempt reports whether the lease scan must skip this handle.
func (h *Handle) Exempt() bool { return h.exempt }

// TryReap forwards the reaper's one-CAS claim.
func (h *Handle) TryReap(word uint64) bool { return h.brcu.TryReap(word) }

// Adopt moves both halves of the dead thread's state into the
// domain-global paths: the BRCU defer batch into the global task set and
// the HP retired list (plus shield protections) into the orphans. It
// returns the number of adopted nodes.
func (h *Handle) Adopt() int {
	return h.brcu.AdoptBatch() + h.d.HP.Adopt(h.HP)
}

// FinishReap publishes the end of adoption.
func (h *Handle) FinishReap() { h.brcu.FinishReap() }

// CancelReap hands a claim back without adopting anything.
func (h *Handle) CancelReap(word uint64) { h.brcu.CancelReap(word) }

// Empty reports whether a reap of this handle would adopt nothing: both
// halves hold no deferred or retired node and no shield protects. Called
// only while the Reaping phase excludes the owner.
func (h *Handle) Empty() bool { return h.brcu.BatchEmpty() && h.HP.Empty() }

// --- reap.Target over the domain --------------------------------------

type reapTarget struct{ d *Domain }

func (t reapTarget) Victims() []reap.Victim {
	snap := t.d.members.Snapshot()
	vs := make([]reap.Victim, len(snap))
	for i, h := range snap {
		vs[i] = h
	}
	return vs
}

// Remove strips the victims from all three registries (members, BRCU,
// HP). The lease scan calls it while every victim is still in the Reaping
// phase — before FinishReap — so no owner can resurrect concurrently and
// have its fresh registration removed out from under it.
func (t reapTarget) Remove(vs []reap.Victim) {
	set := make(map[*Handle]bool, len(vs))
	bs := make([]*brcu.Handle, len(vs))
	hs := make([]*hp.Handle, len(vs))
	for i, v := range vs {
		h := v.(*Handle)
		set[h], bs[i], hs[i] = true, h.brcu, h.HP
	}
	t.d.members.RemoveWhere(func(h *Handle) bool { return set[h] })
	t.d.brcu.RemoveAll(bs)
	t.d.HP.RemoveAll(hs)
}
