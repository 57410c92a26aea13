// Package shard implements the per-shard health monitor behind a sharded
// HP-BRCU deployment (DESIGN.md §15).
//
// A sharded map runs one complete, independent domain per shard — its own
// epoch clock, handle registry, janitor and backpressure books — so a
// wedged shard can only hurt the keys it owns. What sharding alone cannot
// do is *tell* anyone a shard is wedged: a dead janitor goroutine or a
// stalled epoch quietly pins that shard's garbage while the facade keeps
// routing fresh writes into it. The monitor closes that loop, on a
// goroutine of its own because it must outlive a wedged janitor:
//
//   - every probe interval it reads each shard janitor's report
//     (core.Report) — janitor liveness from the tick counter, and the
//     books delta from the epoch-advance count and the unreclaimed gauge;
//   - a shard whose janitor froze, or whose garbage grows while its epoch
//     stands still, accumulates strikes — one streak per signal, so the
//     quarantine verdict (StallThreshold consecutive strikes of the SAME
//     signal) means that signal was frozen across the whole span, and
//     unrelated scheduler jitter on different signals never chains into a
//     false verdict;
//   - a quarantined shard stops receiving new write traffic (the facade
//     checks Quarantined before Insert/TryInsert/Remove and sheds with a
//     typed error the load-shedding predicates recognize), while reads
//     pass through — a read neither allocates nor retires, so it cannot
//     deepen the wedge;
//   - the monitor keeps a recovery loop running against the quarantined
//     shard: each probe it forces a flush-advance-reclaim round through a
//     service handle of its own (the janitor's drain stage, performed for
//     a janitor that cannot), so a shard whose janitor merely stalled
//     drains its backlog the moment it resumes;
//   - RecoverThreshold consecutive healthy probes is the rejoin verdict:
//     the shard atomically resumes taking writes.
//
// The verdicts are deliberately conservative in the healthy direction: an
// idle shard (no traffic, epoch parked, zero garbage) is healthy, and a
// shard under steady load whose gauge plateaus below its bound is healthy
// too — only the combination "garbage grows AND epoch frozen" or "janitor
// tick counter frozen" strikes. That keeps false quarantines out of quiet
// deployments while still catching the two real failure shapes: a dead
// janitor and a wedged epoch.
package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Monitor defaults. The probe interval is derived from the janitor tick
// (IntervalFor): one probe window spans ten expected ticks and several
// scheduler preemption quanta, so a frozen tick counter is a real signal,
// not jitter.
const (
	MinInterval             = 20 * time.Millisecond
	DefaultStallThreshold   = 3
	DefaultRecoverThreshold = 3
)

// IntervalFor returns the probe interval for shards whose janitors tick
// every tick: ten ticks, at least MinInterval.
func IntervalFor(tick time.Duration) time.Duration {
	return max(10*tick, MinInterval)
}

// Probe is the monitor's view of one shard. All closures must be safe to
// call from the monitor goroutine.
type Probe struct {
	// Report returns the shard janitor's last published report.
	Report func() core.Report
	// Recover forces one escalated reclamation round on the shard —
	// flush, force-advance, shield scan — through a service handle. The
	// monitor calls it once per probe while the shard is quarantined.
	Recover func()
	// WedgeFloor returns the backlog below which the epoch-wedge signal
	// is suppressed (nil or non-positive disables the floor). At modest
	// throughput epoch advances are legitimately rare — retires below a
	// batch boundary need no advance — so "no advance + unreclaimed
	// grew" over a small backlog is normal operation, not a wedge. A
	// true epoch wedge keeps accumulating and crosses any reasonable
	// floor; the caller wires the backpressure drain tier (or half the
	// §5 bound), the point where the backlog already demands service.
	WedgeFloor func() int64
}

// Config configures StartMonitor. Zero values select the defaults above.
type Config struct {
	// Interval between health probes (default MinInterval; callers pass
	// IntervalFor of the janitor tick).
	Interval time.Duration
	// StallThreshold is how many consecutive unhealthy probes quarantine
	// a shard.
	StallThreshold int
	// RecoverThreshold is how many consecutive healthy probes rejoin a
	// quarantined shard.
	RecoverThreshold int
	// Rec receives ShardQuarantines/ShardRecoveries counts (nil allocates
	// a private one).
	Rec *stats.Reclamation
}

// shardState is the monitor's book-keeping for one shard. quarantined is
// the only field read outside the monitor goroutine (by the facade's
// routing check), hence atomic; the rest is goroutine-local.
type shardState struct {
	quarantined atomic.Bool

	// last is the report the previous probe saw.
	last core.Report
	// Per-signal strike streaks. Kept separate so the quarantine verdict
	// requires ONE signal frozen across the whole threshold span: with a
	// shared counter, scheduler jitter that freezes the janitor in one
	// window and stalls the epoch in the next would chain into a verdict
	// even though each signal moved within any two-window span.
	frozenStrikes int
	wedgeStrikes  int
	healthy       int
}

// Monitor is a running shard health monitor; see StartMonitor.
type Monitor struct {
	probes []Probe
	cfg    Config
	state  []*shardState
	trace  *obs.Trace

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartMonitor launches the health-probe goroutine over one probe per
// shard. Stop it with Stop before tearing the shards down.
func StartMonitor(probes []Probe, cfg Config) *Monitor {
	m := NewMonitor(probes, cfg)
	m.wg.Add(1)
	go m.run()
	return m
}

// NewMonitor builds a monitor without launching the goroutine; tick-driven
// tests call Tick directly.
func NewMonitor(probes []Probe, cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = MinInterval
	}
	if cfg.StallThreshold <= 0 {
		cfg.StallThreshold = DefaultStallThreshold
	}
	if cfg.RecoverThreshold <= 0 {
		cfg.RecoverThreshold = DefaultRecoverThreshold
	}
	if cfg.Rec == nil {
		cfg.Rec = &stats.Reclamation{}
	}
	m := &Monitor{probes: probes, cfg: cfg, stop: make(chan struct{})}
	m.state = make([]*shardState, len(probes))
	for i := range m.state {
		m.state[i] = &shardState{}
	}
	if obs.On {
		m.trace = obs.NewTrace("shardmon")
	}
	// Prime the deltas so the first real probe compares against the state
	// at start, not against zero (a shard that did work before the monitor
	// started would otherwise look spuriously healthy or sick).
	for i, p := range probes {
		m.state[i].last = p.Report()
	}
	return m
}

// Stop terminates the monitor and waits for it to exit. Idempotent and
// safe to call concurrently.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Quarantined reports whether shard i is currently quarantined. Safe from
// any goroutine; the facade's write paths call it per operation.
func (m *Monitor) Quarantined(i int) bool {
	return m.state[i].quarantined.Load()
}

func (m *Monitor) run() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.Tick()
	}
}

// Tick runs one probe pass over every shard. Exported for tick-driven
// tests; the running goroutine calls it once per interval.
func (m *Monitor) Tick() {
	for i := range m.probes {
		m.probeShard(i)
	}
}

func (m *Monitor) probeShard(i int) {
	p, st := &m.probes[i], m.state[i]
	r := p.Report()

	// The two failure shapes. Janitor death: a tick counter that did not
	// move across a whole probe window (the window spans ten expected
	// ticks). Epoch wedge: the unreclaimed gauge grew while the epoch
	// clock recorded no advance — garbage is arriving and nothing is
	// expiring it. Each signal keeps its own consecutive-window streak,
	// so the verdict means "this signal was frozen for the whole
	// StallThreshold span", never an accumulation of unrelated jitter.
	// (A frozen janitor publishes nothing, so the wedge signal is blind
	// while the liveness signal strikes; the two never double-count.)
	frozen := r.Ticks == st.last.Ticks
	// The epoch-wedge signal is harm-gated by WedgeFloor: below the
	// floor the backlog is within normal batch accumulation and advances
	// are not owed, so growth alone proves nothing.
	var floor int64
	if p.WedgeFloor != nil {
		floor = p.WedgeFloor()
	}
	wedged := r.Advances == st.last.Advances &&
		r.Unreclaimed > st.last.Unreclaimed && r.Unreclaimed >= floor
	st.last = r

	streak := func(hit bool, c *int) {
		if hit {
			*c++
		} else {
			*c = 0
		}
	}
	streak(frozen, &st.frozenStrikes)
	streak(wedged, &st.wedgeStrikes)

	if frozen || wedged {
		st.healthy = 0
	} else {
		st.healthy++
	}

	switch {
	case !st.quarantined.Load() && max(st.frozenStrikes, st.wedgeStrikes) >= m.cfg.StallThreshold:
		st.quarantined.Store(true)
		st.healthy = 0
		m.cfg.Rec.ShardQuarantines.Inc()
		if m.trace != nil {
			m.trace.Rec(obs.EvShardQuarantine, int64(i))
		}
	case st.quarantined.Load():
		// Recovery loop: force a reclamation round every probe so a shard
		// whose janitor resumes (or merely stalled) drains its backlog,
		// then rejoin after a full healthy streak.
		if p.Recover != nil {
			p.Recover()
		}
		if st.healthy >= m.cfg.RecoverThreshold {
			st.quarantined.Store(false)
			st.frozenStrikes, st.wedgeStrikes = 0, 0
			m.cfg.Rec.ShardRecoveries.Inc()
			if m.trace != nil {
				m.trace.Rec(obs.EvShardRecover, int64(i))
			}
		}
	}
}
