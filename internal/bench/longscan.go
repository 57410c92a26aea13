package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// LongScanConfig configures the long-running-operation workload of
// Figures 1 and 6: reader threads repeatedly perform long get()
// traversals over a large list while writer threads churn the head,
// generating heavy reclamation pressure. Under NBR/DEBRA+-style
// coarse-grained rollback the readers starve once a traversal outlives
// the signal period; HP-RCU/HP-BRCU keep completing.
type LongScanConfig struct {
	Structure Structure // HHSList for most schemes; HMList for plain HP
	Scheme    hpbrcu.Scheme
	Readers   int
	Writers   int
	// KeyRange controls the traversal length: the list is prefilled with
	// KeyRange/2 elements and each get draws a uniform key.
	KeyRange int64
	Duration time.Duration
	Config   hpbrcu.Config
	Seed     uint64
}

// RunLongScan executes the long-running-operation workload. The result's
// Ops (and Throughput) count completed reads — the paper's Figure 1/6
// y-axis — and WriteOps the writers' churn.
func RunLongScan(cfg LongScanConfig) Measurement {
	if cfg.Seed == 0 {
		cfg.Seed = DefaultBenchSeed
	}
	enableInterleaving()
	m, ok := NewMap(cfg.Structure, cfg.Scheme, cfg.KeyRange, cfg.Config)
	if !ok {
		panic("bench: unsupported long-scan combination")
	}
	// Prefill every other key (deterministic size KeyRange/2), descending
	// so the list prefill is O(n).
	{
		h := m.Register()
		for k := cfg.KeyRange - 2; k >= 0; k -= 2 {
			h.Insert(k, k)
		}
		h.Unregister()
	}
	hpbrcu.ResetUnreclaimedPeaks(m)
	obs.SetRun(fmt.Sprintf("longscan %s/%s readers=%d writers=%d keys=%d",
		cfg.Structure, cfg.Scheme, cfg.Readers, cfg.Writers, cfg.KeyRange), m.Stats())

	var (
		stop      atomic.Bool
		readOps   atomic.Int64
		writeOps  atomic.Int64
		wg        sync.WaitGroup
		startGate = make(chan struct{})
	)

	for w := 0; w < cfg.Readers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			labelWorker(cfg.Structure, cfg.Scheme, "reader")
			h := m.Register()
			defer h.Unregister()
			rng := atomicx.NewRand(cfg.Seed*31 + id)
			<-startGate
			ops := int64(0)
			for !stop.Load() {
				h.Get(rng.Intn(cfg.KeyRange))
				ops++
			}
			readOps.Add(ops)
		}(uint64(w))
	}

	// Writers churn the head: keys below every reader key, so their own
	// operations stay short while generating maximal retirement pressure.
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			labelWorker(cfg.Structure, cfg.Scheme, "writer")
			h := m.Register()
			defer h.Unregister()
			<-startGate
			ops := int64(0)
			k := -(id + 1) // unique negative key per writer
			for !stop.Load() {
				h.Insert(k, k)
				h.Remove(k)
				ops += 2
				// Yield per pair so reader and writer steps interleave at
				// fine granularity even on a single CPU (see
				// atomicx.YieldPeriod for the reader side).
				runtime.Gosched()
			}
			writeOps.Add(ops)
		}(int64(w))
	}

	gc0 := readGCSample()
	t0 := time.Now()
	close(startGate)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	gc1 := readGCSample()

	return measured(hpbrcu.AggregateSnapshot(m), readOps.Load(), writeOps.Load(), elapsed, gc0, gc1)
}

// LongScanStructureFor returns the list flavour the paper uses per scheme
// in the long-running benchmark: HMList for plain HP, HHSList otherwise.
func LongScanStructureFor(s hpbrcu.Scheme) Structure {
	if s == hpbrcu.HP {
		return HMList
	}
	return HHSList
}
