package hpbrcu_test

// Soak tests: every structure under HP-BRCU with deliberately hostile
// parameters — tiny defer batches, ForceThreshold 1 (neutralize on the
// first failed advance), checkpoints every 4 steps — so rollbacks, masked
// aborts and double-buffer switches fire constantly. The allocator's
// lifecycle panics (double retire, double free, free-without-retire) turn
// any reclamation protocol violation into a hard failure.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
	"github.com/smrgo/hpbrcu/internal/chaos"
)

func soakConfig() hpbrcu.Config {
	return hpbrcu.Config{BatchSize: 4, ForceThreshold: 1, BackupPeriod: 4}
}

func TestSoakHPBRCUAllStructures(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	mks := []struct {
		name string
		mk   func() (hpbrcu.Map, error)
	}{
		{"HList", func() (hpbrcu.Map, error) { return hpbrcu.NewHList(hpbrcu.HPBRCU, soakConfig()) }},
		{"HHSList", func() (hpbrcu.Map, error) { return hpbrcu.NewHHSList(hpbrcu.HPBRCU, soakConfig()) }},
		{"HMList", func() (hpbrcu.Map, error) { return hpbrcu.NewHMList(hpbrcu.HPBRCU, soakConfig()) }},
		{"HashMap", func() (hpbrcu.Map, error) { return hpbrcu.NewHashMap(hpbrcu.HPBRCU, 16, soakConfig()) }},
		{"SkipList", func() (hpbrcu.Map, error) { return hpbrcu.NewSkipList(hpbrcu.HPBRCU, soakConfig()) }},
		{"NMTree", func() (hpbrcu.Map, error) { return hpbrcu.NewNMTree(hpbrcu.HPBRCU, soakConfig()) }},
	}
	for _, mk := range mks {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			m, err := mk.mk()
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(300 * time.Millisecond)
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := m.Register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for time.Now().Before(deadline) {
						k := rng.Int63n(96)
						switch rng.Intn(4) {
						case 0, 1:
							h.Get(k)
						case 2:
							h.Insert(k, k)
						default:
							h.Remove(k)
						}
					}
					h.Barrier()
				}(int64(w + 1))
			}
			wg.Wait()

			// Drain and check the books balance.
			h := m.Register()
			for i := 0; i < 8; i++ {
				h.Barrier()
			}
			h.Unregister()
			s := m.Stats().Snapshot()
			if s.Retired == 0 {
				t.Fatal("soak produced no retires")
			}
			if s.Unreclaimed != 0 {
				t.Fatalf("unreclaimed=%d after drain (retired=%d reclaimed=%d)",
					s.Unreclaimed, s.Retired, s.Reclaimed)
			}
			t.Logf("retired=%d signals=%d rollbacks=%d peak=%d",
				s.Retired, s.Signals, s.Rollbacks, s.PeakUnreclaimed)
		})
	}
}

// leakSoakConfig keeps the defer batch larger than anything a short-lived
// worker retires, so a leaked handle's garbage really is stuck in its
// private batch — the worst case for adoption.
func leakSoakConfig() hpbrcu.Config {
	return hpbrcu.Config{BatchSize: 64, ForceThreshold: 2, BackupPeriod: 16}
}

// leakChurn runs `leakers` short-lived workers that each register, do a
// few insert+remove pairs (retiring nodes into the private batch) and die
// without Unregister, plus one law-abiding worker. Each leaked handle is
// handed to keep, if it is not nil, which decides whether it stays
// referenced. Returns the map.
func leakChurn(t *testing.T, leakers int, keep func(hpbrcu.MapHandle)) hpbrcu.Map {
	t.Helper()
	m, err := hpbrcu.NewHList(hpbrcu.HPBRCU, leakSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < leakers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.Register() // never unregistered: a leak
			if keep != nil {
				keep(h)
			}
			rng := rand.New(rand.NewSource(seed))
			base := seed * 1000
			for i := 0; i < 10; i++ {
				k := base + rng.Int63n(64)
				h.Insert(k, k)
				h.Remove(k)
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := m.Register()
		defer h.Unregister()
		for i := int64(0); i < 200; i++ {
			h.Insert(i%32, i)
			h.Remove(i % 32)
		}
	}()
	wg.Wait()
	return m
}

// TestSoakLeakWithReaperConverges is the adoption acceptance test, on
// direction: goroutines die without Unregister, the garbage collector
// finds their handles unreachable, the domain adopts them, and the books
// converge to zero without anyone's cooperation.
func TestSoakLeakWithReaperConverges(t *testing.T) {
	const leakers = 4
	m := leakChurn(t, leakers, nil)
	defer hpbrcu.Close(m, 5*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := m.Stats().Snapshot()
		if s.ReapedHandles >= leakers && s.Unreclaimed == 0 {
			t.Logf("reaped=%d adopted=%d retired=%d", s.ReapedHandles, s.AdoptedNodes, s.Retired)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: reaped=%d (want >= %d) unreclaimed=%d (want 0)",
				s.ReapedHandles, leakers, s.Unreclaimed)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSoakLeakWithoutReaperLeaks is the same churn with the leaked handles
// still referenced — the paper's stalled thread: no collection adopts
// them, their batches stay stuck — otherwise the adoption test above
// would be vacuously green because something else cleaned up — and what
// they hold stays inside the §5 bound.
func TestSoakLeakWithoutReaperLeaks(t *testing.T) {
	var mu sync.Mutex
	var held []hpbrcu.MapHandle
	m := leakChurn(t, 4, func(h hpbrcu.MapHandle) {
		mu.Lock()
		held = append(held, h)
		mu.Unlock()
	})

	// Even a determined drain by a live handle, between collections,
	// cannot reach garbage stuck in a referenced handle's private batch.
	h := m.Register()
	for i := 0; i < 8; i++ {
		runtime.GC()
		h.Barrier()
	}
	h.Unregister()
	s := m.Stats().Snapshot()
	if s.Unreclaimed == 0 {
		t.Fatal("stalled handles' garbage drained: the leak-soak premise is broken")
	}
	if s.ReapedHandles != 0 {
		t.Fatalf("reaped=%d: a referenced handle was adopted", s.ReapedHandles)
	}
	if b := hpbrcu.GarbageBoundObserved(m); s.PeakUnreclaimed > b {
		t.Fatalf("peak unreclaimed %d exceeds the §5 bound %d", s.PeakUnreclaimed, b)
	}
	runtime.KeepAlive(held)
}

// TestSoakBackpressureCeiling hammers inserts through the admission gate
// with a tiny absolute ceiling: the peak must respect the ceiling, Admit
// must return ErrMemoryPressure (never panic), and the map must recover
// once the pressure clears.
func TestSoakBackpressureCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	cfg := hpbrcu.Config{
		BatchSize: 16, ForceThreshold: 2, BackupPeriod: 16,
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true, Ceiling: 512},
	}
	m, err := hpbrcu.NewHList(hpbrcu.HPBRCU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	var rejects atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				k := rng.Int63n(128)
				if _, err := hpbrcu.TryInsert(h, k, k); err != nil {
					if err != hpbrcu.ErrMemoryPressure {
						panic(err) // fail loudly inside the worker
					}
					rejects.Add(1)
					continue
				}
				h.Remove(k)
			}
			h.Barrier()
		}(int64(w + 1))
	}
	wg.Wait()

	h := m.Register()
	for i := 0; i < 8; i++ {
		h.Barrier()
	}
	// Recovery: with the garbage drained, admissions flow again.
	if _, err := hpbrcu.TryInsert(h, 1, 1); err != nil {
		t.Fatalf("TryInsert after drain = %v, want nil", err)
	}
	h.Remove(1)
	h.Barrier()
	h.Unregister()

	s := m.Stats().Snapshot()
	// The ladder's whole point: drains hold the line near the ceiling. The
	// peak may overshoot by one in-flight batch per worker, never more.
	slack := int64(4 * 16)
	if s.PeakUnreclaimed > 512+slack {
		t.Fatalf("peak unreclaimed %d far exceeds ceiling 512", s.PeakUnreclaimed)
	}
	t.Logf("peak=%d rejects=%d throttles=%d", s.PeakUnreclaimed, rejects.Load(), s.BackpressureThrottles)
}

// TestBackpressureRejectAndRecover pins the reject tier deterministically:
// a leaked handle's stuck batch holds unreclaimed garbage above the
// ceiling, a fresh handle's TryInsert fails fast with ErrMemoryPressure,
// and draining the stuck batch restores admissions.
func TestBackpressureRejectAndRecover(t *testing.T) {
	cfg := hpbrcu.Config{
		BatchSize: 64, ForceThreshold: 2, BackupPeriod: 16,
		// DrainFraction 2.0 pushes the inline-drain tier above the ceiling
		// so nothing interferes with the stuck garbage; reject fires at
		// 0.9×32 ≈ 28.
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true, Ceiling: 32, DrainFraction: 2.0},
	}
	m, err := hpbrcu.NewHList(hpbrcu.HPBRCU, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 40 retires stuck in h1's private batch (BatchSize 64 > 40).
	h1 := m.Register()
	for k := int64(0); k < 40; k++ {
		h1.Insert(k, k)
	}
	for k := int64(0); k < 40; k++ {
		h1.Remove(k)
	}

	h2 := m.Register()
	if _, err := hpbrcu.TryInsert(h2, 1000, 1); err != hpbrcu.ErrMemoryPressure {
		t.Fatalf("TryInsert above the ceiling = %v, want ErrMemoryPressure", err)
	}
	// Plain Insert stays ungated: the paper's API semantics are unchanged.
	if !h2.Insert(1001, 1) {
		t.Fatal("plain Insert failed under pressure")
	}
	h2.Remove(1001)

	// The stuck owner wakes up and flushes; pressure clears.
	h1.Barrier()
	h2.Barrier()
	if _, err := hpbrcu.TryInsert(h2, 1000, 1); err != nil {
		t.Fatalf("TryInsert after recovery = %v, want nil", err)
	}
	h2.Remove(1000)
	h1.Unregister()
	h2.Barrier()
	h2.Unregister()

	s := m.Stats().Snapshot()
	if s.BackpressureRejects == 0 {
		t.Fatal("the reject tier never fired")
	}
}

// TestSoakVBRReuseStorm drives VBR with maximal slot churn: its era-based
// restarts and version-guarded CASes must keep the list linearizable with
// slots recycling constantly.
func TestSoakVBRReuseStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	m, err := hpbrcu.NewHHSList(hpbrcu.VBR, hpbrcu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				k := rng.Int63n(4) // tiny key space: constant recycling
				h.Insert(k, k)
				h.Remove(k)
				h.Get(k)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	s := m.Stats().Snapshot()
	if s.Unreclaimed != 0 {
		t.Fatalf("VBR deferred something: unreclaimed=%d", s.Unreclaimed)
	}
	t.Logf("retired=%d rollbacks=%d eras=%d", s.Retired, s.Rollbacks, s.EpochAdvances)
}

// TestChaosSeedCorpus replays a fixed corpus of fault-injection scenarios
// (see internal/chaos) as part of tier-1, so the deterministic fault layer
// is exercised on every plain `go test ./...` — not only by the full
// `smrbench chaos` sweep. Runs are sequential: the fault gate is
// process-global. The corpus deliberately spans the nastiest schedules:
// forced rollbacks at arbitrary steps, mask-exit neutralizations, and
// delayed defer-queue drains.
func TestChaosSeedCorpus(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	cells := []struct {
		scheme   hpbrcu.Scheme
		st       bench.Structure
		schedule string
	}{
		{hpbrcu.HPBRCU, bench.HList, "rollback-storm"},
		{hpbrcu.HPBRCU, bench.HList, "mask-abort"},
		{hpbrcu.HPBRCU, bench.HMList, "drain-delay"},
		{hpbrcu.HPBRCU, bench.HMList, "everything"},
		{hpbrcu.HPRCU, bench.HList, "stalls"},
		{hpbrcu.HPRCU, bench.HMList, "everything"},
	}
	var fired uint64
	for _, c := range cells {
		sched, ok := chaos.ScheduleByName(c.schedule)
		if !ok {
			t.Fatalf("unknown schedule %q", c.schedule)
		}
		for _, seed := range seeds {
			res := chaos.Run(chaos.Scenario{
				Structure: c.st, Scheme: c.scheme, Seed: seed,
				Schedule: sched, Workers: 3, Ops: 400, KeyRange: 64,
			})
			if !res.Survived() {
				t.Fatalf("%s/%s/%s seed %d: %v", c.scheme, c.st, c.schedule, seed, res.Violations)
			}
			fired += res.Fired
		}
	}
	if fired == 0 {
		t.Fatal("the corpus never injected a fault: the fault layer is not wired in")
	}
}
