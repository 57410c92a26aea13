// Longscan reproduces the paper's Figure 1 motivation as a demo: OLAP-style
// long-running read operations racing a write-heavy reclamation load.
//
// Run with:
//
//	go run ./examples/longscan [-range 16384] [-seconds 2]
//
// Two schemes run the identical workload:
//
//   - NBR restarts a reader from the entry point every time any reclaimer
//     broadcasts a neutralization — long scans starve;
//   - HP-BRCU rolls a neutralized reader back only to its last checkpoint
//     (at most BackupPeriod steps of lost work) — long scans keep
//     completing while memory stays bounded.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
)

var (
	keyRange = flag.Int64("range", 16384, "key range; scans traverse about half of it")
	seconds  = flag.Int("seconds", 2, "seconds per scheme")
)

func main() {
	flag.Parse()
	// Demo plumbing, not API usage: on a single-CPU host the goroutines
	// only interleave at ~10ms scheduler slices, which hides the
	// neutralization behaviour this example demonstrates. Same knob the
	// in-repo benchmark harness uses.
	if runtime.GOMAXPROCS(0) == 1 {
		atomicx.YieldPeriod = 16
	}
	for _, scheme := range []hpbrcu.Scheme{hpbrcu.NBR, hpbrcu.HPBRCU} {
		scans, writes, peak := run(scheme)
		fmt.Printf("%-8s completed scans: %6d   writer ops: %8d   peak unreclaimed: %d\n",
			scheme, scans, writes, peak)
	}
	fmt.Println("\nNBR's scans collapse as the scan length crosses its broadcast period;")
	fmt.Println("HP-BRCU's checkpointed scans keep completing with bounded memory.")
}

func run(scheme hpbrcu.Scheme) (scans, writes, peak int64) {
	m, err := hpbrcu.NewHHSList(scheme, hpbrcu.Config{})
	if err != nil {
		panic(err)
	}
	// Build the dataset (descending keeps list building linear).
	h := m.Register()
	for k := *keyRange - 2; k >= 0; k -= 2 {
		h.Insert(k, k)
	}
	h.Unregister()
	m.Stats().Unreclaimed.ResetPeak()

	var stop atomic.Bool
	var nScans, nWrites atomic.Int64
	var wg sync.WaitGroup

	// One long-scan reader: every Get traverses the whole list. It checks
	// the stop flag between scans; the writers stop with it, so under NBR
	// too the scan in flight then completes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := m.Register()
		defer h.Unregister()
		for !stop.Load() {
			h.Get(*keyRange) // absent key past the maximum: full scan
			nScans.Add(1)
		}
	}()

	// Two head-churning writers: maximal reclamation pressure.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(k int64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			for !stop.Load() {
				h.Insert(k, k)
				h.Remove(k)
				nWrites.Add(2)
				// Yield per pair so reader and writer steps interleave
				// finely even on a single CPU (the reader side yields via
				// atomicx.YieldPeriod).
				runtime.Gosched()
			}
		}(int64(-1 - w))
	}

	time.Sleep(time.Duration(*seconds) * time.Second)
	stop.Store(true)
	wg.Wait()
	scans, writes, peak = nScans.Load(), nWrites.Load(), m.Stats().Unreclaimed.Peak()
	if err := hpbrcu.Close(m, 5*time.Second); err != nil {
		panic(err)
	}
	return scans, writes, peak
}
