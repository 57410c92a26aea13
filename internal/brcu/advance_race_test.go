package brcu

import (
	"runtime"
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// TestAdvanceRaceStress is the package's -race stress of an advance
// scanning a registry that churns under it: advancing threads cycle
// register/Defer/unregister while readers cycle critical sections, and a
// checker continuously asserts the invariant Algorithm 5's scan owes — the
// epoch moves from e-1 to e only past a scan that found every live section
// at e-1 or later (or neutralized it), so no live InCs/InRm word
// persistently announces an epoch below epoch-1.
//
// The check needs double-confirmation: an Enter's epoch load and status
// store are not one atomic step, so a section may transiently announce an
// epoch from before a completed scan (the benign window between an
// advancer's scan and its CAS; the late section began after every batch it
// could block was unlinked). Such an announce is short-lived — the section
// exits or is neutralized within a few polls — so a violation is only real
// if the identical status word survives a long yield storm.
func TestAdvanceRaceStress(t *testing.T) {
	pool := alloc.NewPool[node]()
	d := NewDomain(nil, WithMaxLocalTasks(2), WithForceThreshold(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Advancers: short-lived handles that retire enough to force flushes
	// (and with them scans and epoch advances), then unregister — churning
	// the registry under the other advancers' scans.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := pool.NewCache()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := d.Register()
				for j := 0; j < 8; j++ {
					slot, _ := pool.Alloc(cache)
					pool.Hdr(slot).Retire()
					h.Defer(slot, pool)
				}
				h.Unregister()
			}
		}()
	}

	// Readers: the live critical sections the scans must observe.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Enter()
				for k := 0; k < 4 && h.Poll(); k++ {
					runtime.Gosched()
				}
				h.Exit()
			}
		}()
	}

	for iter := 0; iter < 5000; iter++ {
		// The epoch is read before the words: it is monotone, so a section
		// observed afterwards owes at least this epoch's floor.
		eg := d.epoch.Load()
		for _, h := range d.handles.Snapshot() {
			st := h.status.Load()
			ph, e := unpack(st)
			if (ph != phaseInCs && ph != phaseInRm) || e+1 >= eg {
				continue
			}
			// Double-confirm: dismiss if the announce ends (any change of
			// the packed word — exit, refresh, neutralization). A stale
			// announce lives for one short critical section; 2000 yields
			// of the whole runqueue is far past that.
			confirmed := true
			for r := 0; r < 2000; r++ {
				runtime.Gosched()
				if h.status.Load() != st {
					confirmed = false
					break
				}
			}
			if confirmed {
				t.Fatalf("live section %s persistently announces epoch %d, more than one below the global epoch %d",
					h.Describe(), e, eg)
			}
		}
		if iter%16 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}
