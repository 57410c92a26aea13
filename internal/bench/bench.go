// Package bench is the workload harness that regenerates the paper's
// evaluation (§6). Three workloads — mixed get/insert/remove (RunMixed),
// long-running reads against head churn (RunLongScan) and the stalled
// thread (RunStalled) — and one registry (experiments.go) that declares
// every figure and table once as the list of points it measures. One run
// loop executes a declaration, one validator judges the result, one
// renderer prints it; `smrbench <name>` and `smrbench grid` are views of
// that. See DESIGN.md §13.
//
// Throughput is reported in operations per second and memory as the peak
// number of retired-yet-unreclaimed blocks, exactly the paper's two
// metrics. Absolute numbers are not comparable to the paper's testbeds
// (this harness time-slices goroutines, typically on far fewer cores);
// the relative shape — which scheme wins, where NBR collapses, whose
// memory stays bounded — is what EXPERIMENTS.md tracks.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// labelWorker tags the calling goroutine for pprof profiles so CPU
// samples can be sliced per scheme, structure and role (smr.* label
// keys). No-op while the obs layer is off; labels die with the
// goroutine, so nothing needs restoring.
func labelWorker(st Structure, s hpbrcu.Scheme, role string) {
	if !obs.On {
		return
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(
		"smr.scheme", s.String(), "smr.structure", string(st), "smr.role", role)))
}

// Mix is an operation mix in percent; the remainder after Read is split
// between inserts and removes.
type Mix struct {
	Name    string
	ReadPct int
	InsPct  int
	RemPct  int
}

// The paper's four workloads (§6 Methodology).
var (
	ReadOnly      = Mix{"read-only", 100, 0, 0}
	ReadIntensive = Mix{"read-intensive", 90, 5, 5}
	ReadWrite     = Mix{"read-write", 50, 25, 25}
	WriteOnly     = Mix{"write-only", 0, 50, 50}
	Mixes         = []Mix{WriteOnly, ReadWrite, ReadIntensive, ReadOnly}
)

// Structure identifies a benchmark data structure.
type Structure string

const (
	HList    Structure = "HList"
	HMList   Structure = "HMList"
	HHSList  Structure = "HHSList"
	HashMap  Structure = "HashMap"
	SkipList Structure = "SkipList"
	NMTree   Structure = "NMTree"
)

// Structures lists the benchmark structures in the paper's order.
var Structures = []Structure{HList, HMList, HHSList, HashMap, SkipList, NMTree}

// NewMap builds a structure under a scheme; ok=false when the combination
// is unsupported (Table 1).
func NewMap(st Structure, s hpbrcu.Scheme, keyRange int64, cfg hpbrcu.Config) (hpbrcu.Map, bool) {
	var m hpbrcu.Map
	var err error
	switch st {
	case HList:
		m, err = hpbrcu.NewHList(s, cfg)
	case HMList:
		m, err = hpbrcu.NewHMList(s, cfg)
	case HHSList:
		m, err = hpbrcu.NewHHSList(s, cfg)
	case HashMap:
		m, err = hpbrcu.NewHashMap(s, hpbrcu.DefaultBuckets(keyRange), cfg)
	case SkipList:
		m, err = hpbrcu.NewSkipList(s, cfg)
	case NMTree:
		m, err = hpbrcu.NewNMTree(s, cfg)
	default:
		panic("bench: unknown structure " + st)
	}
	if err != nil {
		return nil, false
	}
	return m, true
}

// Supported reports Table 1 applicability for the benchmark structures.
func Supported(st Structure, s hpbrcu.Scheme) bool {
	_, ok := NewMap(st, s, 16, hpbrcu.Config{})
	return ok
}

// MixedConfig configures one mixed-workload measurement point.
type MixedConfig struct {
	Structure Structure
	Scheme    hpbrcu.Scheme
	Threads   int
	KeyRange  int64
	Mix       Mix
	Duration  time.Duration
	Prefill   float64 // fraction of the key range inserted up front (0.5)
	Config    hpbrcu.Config
	Seed      uint64
}

// Measurement is what one run of one point yields — the harness's one
// result type. Ops is the workload's headline count: every operation of a
// mixed run, the readers' completed scans of a long-scan run (the writers'
// churn is WriteOps), the writers' operations of a stall run.
type Measurement struct {
	Ops      int64
	WriteOps int64 // long scan only: the head-churning writers' operations
	Elapsed  time.Duration

	PeakUnreclaimed int64
	Unreclaimed     int64 // still unreclaimed when the run ended
	Retired         int64
	Signals         int64
	Rollbacks       int64
	// Bound is the §5 garbage bound 2GN+GN²+H evaluated from the domain's
	// observed peaks after a stall run; -1 where the scheme has no bound
	// or the workload does not evaluate it.
	Bound int64
	// Reaped counts dropped handles the domain adopted (stall runs with
	// leaking writers only).
	Reaped int64
	// AllocsPerOp and GCCPUFrac are the GC-pressure columns: heap objects
	// allocated per operation and the fraction of the window's CPU time
	// spent in the collector, both process-wide over the measured window
	// (prefill excluded). See gcsample.go.
	AllocsPerOp float64
	GCCPUFrac   float64
}

// Throughput returns Ops per second.
func (m Measurement) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Ops) / m.Elapsed.Seconds()
}

// measured assembles a Measurement from a run's books: the domain's
// counters, the headline count ops (plus a long scan's writeOps) over
// elapsed, and the GC window, whose per-op column divides by every
// operation the window contained.
func measured(s stats.Snapshot, ops, writeOps int64, elapsed time.Duration, gc0, gc1 gcSample) Measurement {
	m := Measurement{
		Ops:             ops,
		WriteOps:        writeOps,
		Elapsed:         elapsed,
		PeakUnreclaimed: s.PeakUnreclaimed,
		Unreclaimed:     s.Unreclaimed,
		Retired:         s.Retired,
		Signals:         s.Signals,
		Rollbacks:       s.Rollbacks,
		Bound:           -1,
		Reaped:          s.ReapedHandles,
	}
	m.AllocsPerOp, m.GCCPUFrac = gcPressure(gc0, gc1, ops+writeOps)
	return m
}

// enableInterleaving turns on step-granularity yielding on single-CPU
// hosts so that neutralization-based behaviour (the Figure 1/6 starvation
// crossover) is observable despite coarse goroutine time slices. See
// atomicx.YieldPeriod.
func enableInterleaving() {
	if runtime.GOMAXPROCS(0) == 1 && atomicx.YieldPeriod == 0 {
		atomicx.YieldPeriod = 16
	}
}

// Prefill inserts ~frac of the key range. Lists are filled in descending
// key order (each insert lands right after the head sentinel: O(n) total);
// trees, skip lists and hash maps are filled in a pseudo-random
// permutation — a sorted order would degenerate the external BST into a
// linear spine.
func Prefill(m hpbrcu.Map, st Structure, keyRange int64, frac float64, seed uint64) {
	h := m.Register()
	defer h.Unregister()
	rng := atomicx.NewRand(seed ^ 0xABCD)
	switch st {
	case HList, HMList, HHSList:
		for k := keyRange - 1; k >= 0; k-- {
			if rng.Float64() < frac {
				h.Insert(k, k)
			}
		}
	default:
		// Weyl-sequence permutation of [0, keyRange): k = (a·i + b) mod R
		// with a coprime to R.
		a := int64(2654435761) % keyRange
		if a <= 0 {
			a = 1
		}
		for gcd(a, keyRange) != 1 {
			a++
		}
		b := int64(seed % uint64(keyRange))
		for i := int64(0); i < keyRange; i++ {
			k := (a*i + b) % keyRange
			if rng.Float64() < frac {
				h.Insert(k, k)
			}
		}
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RunMixed executes one mixed-workload measurement: prefill, then Threads
// goroutines each drawing uniform keys and operations from the mix for
// Duration.
func RunMixed(cfg MixedConfig) Measurement {
	if cfg.Prefill == 0 {
		cfg.Prefill = 0.5
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultBenchSeed
	}
	enableInterleaving()
	m, ok := NewMap(cfg.Structure, cfg.Scheme, cfg.KeyRange, cfg.Config)
	if !ok {
		panic(fmt.Sprintf("bench: %s does not support %s", cfg.Structure, cfg.Scheme))
	}
	Prefill(m, cfg.Structure, cfg.KeyRange, cfg.Prefill, cfg.Seed)
	m.Stats().Unreclaimed.ResetPeak()
	obs.SetRun(fmt.Sprintf("mixed %s/%s/%s threads=%d keys=%d",
		cfg.Structure, cfg.Scheme, cfg.Mix.Name, cfg.Threads, cfg.KeyRange), m.Stats())

	var (
		stop  atomic.Bool
		total atomic.Int64
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			labelWorker(cfg.Structure, cfg.Scheme, "mixed")
			h := m.Register()
			defer h.Unregister()
			rng := atomicx.NewRand(mixedWorkerSeed(cfg.Seed, id))
			<-start
			ops := int64(0)
			for !stop.Load() {
				k := rng.Intn(cfg.KeyRange)
				p := int(rng.Next() % 100)
				switch {
				case p < cfg.Mix.ReadPct:
					h.Get(k)
				case p < cfg.Mix.ReadPct+cfg.Mix.InsPct:
					h.Insert(k, k)
				default:
					h.Remove(k)
				}
				ops++
				if ops%64 == 0 {
					runtime.Gosched() // single-core friendliness
				}
			}
			total.Add(ops)
		}(uint64(w))
	}

	gc0 := readGCSample()
	t0 := time.Now()
	close(start)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	gc1 := readGCSample()

	return measured(m.Stats().Snapshot(), total.Load(), 0, elapsed, gc0, gc1)
}

// mixedWorkerSeed derives worker id's rng seed from the run seed. Shared
// with ScheduleFingerprint so the fingerprint provably hashes the same
// stream the worker draws.
func mixedWorkerSeed(seed, id uint64) uint64 { return seed*1_000_003 + id }

// ScheduleFingerprint hashes the first n (operation, key) pairs worker id
// would draw under cfg — the workload schedule, independent of timing.
// Two runs with equal seeds fingerprint identically, which is what makes
// the committed BENCH_*.json baselines comparable run-over-run: a
// throughput delta is the code's, not the workload's.
func ScheduleFingerprint(cfg MixedConfig, id uint64, n int) uint64 {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultBenchSeed
	}
	rng := atomicx.NewRand(mixedWorkerSeed(cfg.Seed, id))
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < n; i++ {
		k := rng.Intn(cfg.KeyRange)
		p := rng.Next() % 100
		op := uint64(2) // remove
		switch {
		case int(p) < cfg.Mix.ReadPct:
			op = 0
		case int(p) < cfg.Mix.ReadPct+cfg.Mix.InsPct:
			op = 1
		}
		mix(uint64(k))
		mix(op)
	}
	return h
}
