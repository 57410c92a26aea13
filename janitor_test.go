package hpbrcu_test

// One janitor per domain, seen from outside the package: how many
// goroutines a configuration starts, and the Close that no longer waits
// out its clock.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// settledGoroutines waits for the goroutine count to reach want (exiting
// goroutines take a moment to leave the count) and returns the last count
// it saw.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// baseGoroutines returns the goroutine count once it has stood still for
// 20ms, so a goroutine still exiting from an earlier (sub)test — the
// previous subtest's own runner, for one — is not counted into the base.
func baseGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		} else {
			quiet++
		}
	}
	return n
}

// TestJanitorGoroutineCensus counts the background goroutines a map
// starts: one janitor with the reaper on and nothing else, none without
// the reaper, since backpressure runs on the retire path, and Close
// returns the process to its starting count.
func TestJanitorGoroutineCensus(t *testing.T) {
	allOn := hpbrcu.Config{
		Reaper:       hpbrcu.ReaperConfig{Enabled: true},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
	}
	backpressureOnly := hpbrcu.Config{Backpressure: allOn.Backpressure}
	for _, tc := range []struct {
		name string
		cfg  hpbrcu.Config
		want int
	}{
		{"reaper+backpressure", allOn, 1},
		{"backpressure only", backpressureOnly, 0},
		{"zero config", hpbrcu.Config{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := baseGoroutines()
			m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Facade traffic mints pooled handles, never goroutines.
			for k := int64(0); k < 64; k++ {
				if _, err := m.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			if got := settledGoroutines(base+tc.want) - base; got != tc.want {
				t.Errorf("map added %d goroutines, want %d", got, tc.want)
			}
			if err := hpbrcu.Close(m, 5*time.Second); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := settledGoroutines(base); got != base {
				t.Errorf("%d goroutines after Close, want the starting %d", got, base)
			}
		})
	}
}

// TestCloseReachesTheJanitorsOwnGarbage is the "Close burns its whole
// timeout" bug, staged: a worker dies holding a retired node in its local
// batch, and when the janitor adopts and drains it a live reader's stale
// shield still protects the node, so it parks on the janitor's own service
// handle. The reader then leaves. Close used to spin to its deadline on
// that node — its drain went through a different handle and could not
// reach it until the reaper had stopped and unregistered — and then return
// nil; it now drains through the janitor's handle and returns at once.
func TestCloseReachesTheJanitorsOwnGarbage(t *testing.T) {
	m, err := hpbrcu.NewHHSList(hpbrcu.HPBRCU, hpbrcu.Config{
		Reaper: hpbrcu.ReaperConfig{
			Enabled:      true,
			LeaseTimeout: 10 * time.Millisecond,
			Interval:     time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reader, dead := m.Register(), m.Register()
	if !dead.Insert(1, 1) {
		t.Fatal("Insert(1) failed")
	}
	// A failing Insert finds node 1 and leaves the reader's shield on it (a
	// Get concludes without one).
	if reader.Insert(1, 2) {
		t.Fatal("Insert(1) over a present key succeeded")
	}
	if _, ok := dead.Remove(1); !ok { // node 1 retires into dead's local batch
		t.Fatal("Remove(1) missed")
	}
	// dead never speaks again. Its lease runs out, the janitor adopts the
	// batch and drains; the reader stays alive (a Barrier stamps its lease
	// and leaves its shields alone), so its shield keeps node 1 from being
	// freed.
	deadline := time.Now().Add(5 * time.Second)
	for settle := 0; settle < 10; { // 10 more ticks: the drain stage runs out of progress
		if time.Now().After(deadline) {
			t.Fatal("the dead handle was never reaped")
		}
		reader.Barrier()
		time.Sleep(time.Millisecond)
		if m.Stats().ReapedHandles.Load() > 0 {
			settle++
		}
	}
	if got := m.Stats().Unreclaimed.Load(); got != 1 {
		t.Fatalf("unreclaimed = %d after the adoption drain, want the 1 shielded node", got)
	}
	reader.Unregister()

	t0 := time.Now()
	if err := hpbrcu.Close(m, 5*time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(t0); d >= 500*time.Millisecond {
		t.Fatalf("Close took %v to free one node parked on the janitor's handle, want < 500ms", d)
	}
}

// TestCloseDoesNotWaitOutItsTimeout is the same bug as the benchmark met
// it: twenty fresh production-posture facade maps, each churned 50/50
// Insert/Remove from two goroutines for 100ms, must each Close with
// balanced books in well under the timeout.
func TestCloseDoesNotWaitOutItsTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("2s of churn")
	}
	const keys = 1 << 12
	for i := 0; i < 20; i++ {
		m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, hpbrcu.DefaultBuckets(keys), hpbrcu.Config{
			PanicPolicy:  hpbrcu.PanicRecover,
			Reaper:       hpbrcu.ReaperConfig{Enabled: true},
			Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := time.Now().Add(100 * time.Millisecond)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				for n := 0; ; n++ {
					if n&255 == 0 && time.Now().After(stop) {
						return
					}
					seed = seed*6364136223846793005 + 1442695040888963407
					k := int64(seed >> 33 % keys)
					var err error
					if seed>>32&1 == 0 {
						_, err = m.Insert(k, k)
					} else {
						_, _, err = m.Remove(k)
					}
					if err != nil {
						t.Errorf("instance %d: %v", i, err)
						return
					}
				}
			}(uint64(i)*2 + uint64(w) + 1)
		}
		wg.Wait()
		t0 := time.Now()
		if err := hpbrcu.Close(m, 5*time.Second); err != nil {
			t.Fatalf("instance %d: Close: %v", i, err)
		}
		if d := time.Since(t0); d >= 500*time.Millisecond {
			t.Fatalf("instance %d: Close took %v, want < 500ms", i, d)
		}
	}
}
