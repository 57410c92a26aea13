package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
	"github.com/smrgo/hpbrcu/internal/ds/hmlist"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
	"github.com/smrgo/hpbrcu/internal/vbr"
)

// StallConfig configures the stalled-thread robustness experiment.
type StallConfig struct {
	Scheme   hpbrcu.Scheme
	Writers  int
	KeyRange int64
	Duration time.Duration
	Config   hpbrcu.Config
	// Seed seeds the writers' key/leak schedules (DefaultBenchSeed when
	// zero).
	Seed uint64
	// LeakRate is the fraction of writers ([0,1]) that leak: they stop
	// without Unregister or Barrier, dropping their handles mid-churn —
	// the goroutine-death experiment behind `smrbench -leak-rate`.
	LeakRate float64
}

// RunStalled runs one row of the Table 2 robustness experiment: writers
// churn a list for Duration while one thread is stalled inside whatever
// the scheme's read-side protection is (a critical section, a read phase,
// or a held shield). The stalled thread enters before the writers start
// and leaves only after they stop — the worst case the paper's robustness
// criterion targets. Ops counts the writers' operations; Bound is the §5
// bound for HP-BRCU; Reaped and Unreclaimed report how the handles of the
// writers LeakRate kills without Unregister were adopted and drained.
func RunStalled(cfg StallConfig) Measurement {
	if cfg.Writers == 0 {
		cfg.Writers = 2
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultBenchSeed
	}

	type churnHandle interface {
		Insert(k, v int64) bool
		Remove(k int64) (int64, bool)
		Unregister()
	}
	var (
		register func() churnHandle
		stall    func() (unstall func())
		rec      *stats.Reclamation
		// boundFn evaluates the §5 bound after the run, when the domain
		// has seen the true peak handle and shield counts; nil means the
		// scheme has no bound (reported as -1).
		boundFn func() int64
		// adopts marks the schemes whose dropped handles are adopted.
		adopts bool
	)

	switch cfg.Scheme {
	case hpbrcu.NR:
		l := hlist.NewNR()
		register = func() churnHandle { return l.Register() }
		stall = func() func() { return func() {} }
		rec = l.Stats()
	case hpbrcu.RCU:
		l := hlist.NewEBR()
		register = func() churnHandle { return l.Register() }
		stall = func() func() {
			h := l.Domain().Register()
			h.Enter()
			return func() { h.Exit(); h.Unregister() }
		}
		rec = l.Stats()
	case hpbrcu.HP:
		l := hmlist.NewHP()
		register = func() churnHandle { return l.Register() }
		stall = func() func() {
			h := l.Domain().Register()
			s := h.NewShield()
			s.ProtectSlot(1) // an arbitrary slot: HP's stall is a held shield
			return func() { s.Clear(); h.Unregister() }
		}
		rec = l.Stats()
	case hpbrcu.NBR, hpbrcu.NBRLarge:
		newNBR := hlist.NewNBR
		if cfg.Scheme == hpbrcu.NBRLarge {
			newNBR = hlist.NewNBRLarge
		}
		l := newNBR()
		register = func() churnHandle { return l.Register() }
		stall = func() func() {
			h := l.Domain().Register()
			h.StartRead() // stalled in a read phase; neutralization handles it
			return func() { h.Unregister() }
		}
		rec = l.Stats()
	case hpbrcu.VBR:
		l := vbr.New()
		register = func() churnHandle { return l.Register() }
		// VBR has no read-side protection to stall inside: a stalled
		// reader holds nothing that blocks reclamation.
		stall = func() func() { return func() {} }
		rec = l.Stats()
	case hpbrcu.HPRCU:
		l := hlist.NewHPRCU(cfg.Config.CoreConfig())
		register = func() churnHandle { return owned(l.Register()) }
		adopts = true
		stall = func() func() {
			h := l.Domain().Register()
			h.Pin()
			return func() { h.Unpin(); h.Unregister() }
		}
		rec = l.Stats()
	case hpbrcu.HPBRCU:
		l := hlist.NewHPBRCU(cfg.Config.CoreConfig())
		register = func() churnHandle { return owned(l.Register()) }
		adopts = true
		stall = func() func() {
			h := l.Domain().Register()
			h.Pin()
			return func() { h.Unpin(); h.Unregister() }
		}
		rec = l.Stats()
		// Evaluate 2GN+GN²+H from the domain's own accounting once the
		// run is over: N is the peak number of registered BRCU handles
		// and H the peak number of registered shields — not a magic
		// shields-per-handle constant that silently drifts when the data
		// structure changes its shield layout.
		boundFn = l.Domain().GarbageBoundObserved
	default:
		panic("bench: unknown scheme in RunStalled")
	}

	obs.SetRun(fmt.Sprintf("stalled %s writers=%d keys=%d",
		cfg.Scheme, cfg.Writers, cfg.KeyRange), rec)
	unstall := stall()

	// The first `leakers` writers die without unregistering — a leak
	// adoption recovers from under HP-RCU and HP-BRCU.
	leakers := int(cfg.LeakRate*float64(cfg.Writers) + 0.5)
	if leakers > cfg.Writers {
		leakers = cfg.Writers
	}

	var stop atomic.Bool
	var writerOps atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labelWorker(HList, cfg.Scheme, "writer")
			h := register()
			leak := w < leakers
			if !leak {
				defer h.Unregister()
			}
			rng := atomicx.NewRand(stallWorkerSeed(cfg.Seed, w))
			ops := int64(0)
			defer func() { writerOps.Add(ops) }()
			for !stop.Load() {
				k := rng.Intn(cfg.KeyRange)
				h.Insert(k, k)
				h.Remove(k)
				ops += 2
				if leak && rng.Intn(1024) == 0 {
					return // goroutine death: handle abandoned mid-churn
				}
			}
		}(w)
	}
	gc0 := readGCSample()
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	gc1 := readGCSample()
	unstall()

	if adopts && leakers > 0 {
		// Collect until every dropped handle is adopted before reading
		// the books.
		deadline := time.Now().Add(5 * time.Second)
		for rec.ReapedHandles.Load() < int64(leakers) && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}

	r := measured(rec.Snapshot(), writerOps.Load(), 0, elapsed, gc0, gc1)
	if boundFn != nil {
		r.Bound = boundFn()
	}
	return r
}

// ownedHandle is a writer's expedited handle as its goroutine holds it:
// dropped without Unregister, it is adopted (core.AdoptWhenUnreachable).
// The writer loop uses it on every iteration, so it stays reachable for as
// long as an operation runs on it.
type ownedHandle struct{ *hlist.ExpeditedHandle }

func owned(h *hlist.ExpeditedHandle) *ownedHandle {
	o := &ownedHandle{h}
	core.AdoptWhenUnreachable(o, h.Core())
	return o
}

// Unregister clears the finalizer and releases the handle.
func (o *ownedHandle) Unregister() {
	runtime.SetFinalizer(o, nil)
	o.ExpeditedHandle.Unregister()
}

// stallWorkerSeed derives writer w's rng seed from the run seed, in a
// stream disjoint from mixedWorkerSeed's so the stall and mixed
// workloads never share schedules at equal seeds.
func stallWorkerSeed(seed uint64, w int) uint64 {
	return (seed^0x57a11ed)*1_000_003 + uint64(w) + 1
}
