// Package listtest is the conformance table of the ordered maps: every
// check a list, hash map, skip list or tree must pass under every scheme,
// written once and run by the tests of hlist, hmlist, hashmap, skiplist
// and nmtree over the (structure, scheme) pairs their constructors accept.
// It is test support — only _test files import it — and lives in a package
// of its own only because five packages' tests share it.
package listtest

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Handle is the per-thread accessor every variant offers.
type Handle interface {
	Get(key int64) (int64, bool)
	Insert(key, val int64) bool
	Remove(key int64) (int64, bool)
	Unregister()
	Barrier()
}

// Variant is one freshly built (structure, scheme) pair.
type Variant struct {
	Name     string
	Register func() Handle
	Stats    func() *stats.Reclamation
	// Keys scans the live keys; single-threaded use only.
	Keys func() []int64
	// Sorted reports that Keys is globally ordered (one list, not a map).
	Sorted bool
	// Drains reports that barriers reclaim everything retired (false for
	// the NR baseline, which leaks by design).
	Drains bool
	// Check verifies the structure's own quiescent invariants (the skip
	// list's towers); nil where Keys says it all. Single-threaded use only.
	Check func() error
}

// Of adapts a structure to a Variant; its CheckSlow, if it has one, becomes
// the variant's Check.
func Of[H Handle](name string, sorted, drains bool, s interface {
	Register() H
	Stats() *stats.Reclamation
	KeysSlow() []int64
}) Variant {
	v := Variant{
		Name:     name,
		Register: func() Handle { return s.Register() },
		Stats:    s.Stats, Keys: s.KeysSlow, Sorted: sorted, Drains: drains,
	}
	if c, ok := any(s).(interface{ CheckSlow() error }); ok {
		v.Check = c.CheckSlow
	}
	return v
}

// each runs check as one subtest per variant.
func each(t *testing.T, vs []Variant, check func(t *testing.T, v Variant)) {
	for _, v := range vs {
		t.Run(v.Name, func(t *testing.T) { check(t, v) })
	}
}

// gets returns the variant's lookups by name: Get, and GetOptimistic where
// the handle has one (plain HP cannot).
func gets(h Handle) map[string]func(int64) (int64, bool) {
	m := map[string]func(int64) (int64, bool){"Get": h.Get}
	if o, ok := h.(interface {
		GetOptimistic(key int64) (int64, bool)
	}); ok {
		m["GetOptimistic"] = o.GetOptimistic
	}
	return m
}

// liveKeys returns the scanned keys in ascending order, checking the
// structure's own invariants and that a single list's scan already is
// sorted. Every check below calls it after its last write.
func liveKeys(t *testing.T, v Variant) []int64 {
	t.Helper()
	if v.Check != nil {
		if err := v.Check(); err != nil {
			t.Fatalf("structure check: %v", err)
		}
	}
	keys := v.Keys()
	if v.Sorted {
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("keys not strictly sorted: %v", keys)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// Sequential checks single-threaded map semantics: misses on empty,
// ordered inserts, duplicate and double-remove rejection, removal seen by
// every lookup, and re-insertion of a removed key (slot reuse).
func Sequential(t *testing.T, vs []Variant) {
	each(t, vs, func(t *testing.T, v Variant) {
		h := v.Register()
		defer h.Unregister()
		look := gets(h)
		expect := func(key, want int64, present bool) {
			t.Helper()
			for name, get := range look {
				if val, ok := get(key); ok != present || (ok && val != want) {
					t.Fatalf("%s(%d) = %d,%v want %d,%v", name, key, val, ok, want, present)
				}
			}
		}
		expect(99, 0, false)
		for _, k := range []int64{2, 1, 5, 3, 4} {
			if !h.Insert(k, k*10) {
				t.Fatalf("insert %d failed", k)
			}
		}
		if h.Insert(2, 21) {
			t.Fatal("duplicate insert succeeded")
		}
		if got := liveKeys(t, v); !slices.Equal(got, []int64{1, 2, 3, 4, 5}) {
			t.Fatalf("keys = %v, want 1..5", got)
		}
		expect(2, 20, true)
		if val, ok := h.Remove(3); !ok || val != 30 {
			t.Fatalf("Remove(3) = %d,%v want 30,true", val, ok)
		}
		if _, ok := h.Remove(3); ok {
			t.Fatal("double remove succeeded")
		}
		expect(3, 0, false)
		if n := len(v.Keys()); n != 4 {
			t.Fatalf("len = %d, want 4", n)
		}
		if !h.Insert(3, 33) {
			t.Fatal("re-insert after remove failed")
		}
		expect(3, 33, true)
		if n := len(liveKeys(t, v)); n != 5 {
			t.Fatalf("len = %d, want 5", n)
		}
	})
}

// Bulk inserts a permutation, removes every third key and checks every
// key's presence and value through every lookup.
func Bulk(t *testing.T, vs []Variant) {
	each(t, vs, func(t *testing.T, v Variant) {
		h := v.Register()
		defer h.Unregister()
		const n = 600
		for _, k := range rand.New(rand.NewSource(3)).Perm(n) {
			if !h.Insert(int64(k), int64(k)*3) {
				t.Fatalf("insert %d failed", k)
			}
		}
		if got := len(liveKeys(t, v)); got != n {
			t.Fatalf("len = %d want %d", got, n)
		}
		if h.Insert(n/2, 1) {
			t.Fatal("duplicate insert succeeded")
		}
		for i := int64(0); i < n; i += 3 {
			if val, ok := h.Remove(i); !ok || val != i*3 {
				t.Fatalf("Remove(%d) = %d,%v", i, val, ok)
			}
		}
		if got := len(liveKeys(t, v)); got != n-n/3 {
			t.Fatalf("len = %d want %d", got, n-n/3)
		}
		for name, get := range gets(h) {
			for i := int64(0); i < n; i++ {
				val, ok := get(i)
				if want := i%3 != 0; ok != want || (ok && val != i*3) {
					t.Fatalf("%s(%d) = %d,%v want present=%v", name, i, val, ok, want)
				}
			}
		}
	})
}

// workers runs body on n goroutines, each with its own handle and seed.
func workers(v Variant, n int, body func(h Handle, w int, rng *rand.Rand)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := v.Register()
			defer h.Unregister()
			body(h, w, rand.New(rand.NewSource(int64(w+1))))
		}(w)
	}
	wg.Wait()
}

// ConcurrentMixed hammers a small key range with every operation, then
// checks the quiescent state: the scan is sorted and duplicate-free, and
// every lookup agrees with it.
func ConcurrentMixed(t *testing.T, vs []Variant) {
	each(t, vs, func(t *testing.T, v Variant) {
		const keyRange = 64
		workers(v, 8, func(h Handle, _ int, rng *rand.Rand) {
			look := gets(h)
			for i := 0; i < 500; i++ {
				k := rng.Int63n(keyRange)
				switch rng.Intn(4) {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Remove(k)
				case 2:
					h.Get(k)
				default:
					for _, get := range look {
						get(k)
					}
				}
			}
		})
		h := v.Register()
		defer h.Unregister()
		keys := liveKeys(t, v)
		if len(slices.Compact(slices.Clone(keys))) != len(keys) {
			t.Fatalf("duplicate keys: %v", keys)
		}
		for k := int64(0); k < keyRange; k++ {
			_, present := slices.BinarySearch(keys, k)
			for name, get := range gets(h) {
				if _, ok := get(k); ok != present {
					t.Fatalf("key %d: scan=%v %s=%v", k, present, name, ok)
				}
			}
		}
	})
}

// ConcurrentDisjoint gives each worker its own key stripe; every worker's
// final state must be visible afterwards.
func ConcurrentDisjoint(t *testing.T, vs []Variant) {
	each(t, vs, func(t *testing.T, v Variant) {
		const nWorkers, perWorker = 8, 200
		workers(v, nWorkers, func(h Handle, w int, _ *rand.Rand) {
			base := int64(w) * perWorker
			for k := base; k < base+perWorker; k++ {
				if !h.Insert(k, k) {
					t.Errorf("insert %d failed", k)
					return
				}
			}
			for k := base; k < base+perWorker; k += 2 {
				if _, ok := h.Remove(k); !ok {
					t.Errorf("remove %d failed", k)
					return
				}
			}
		})
		h := v.Register()
		defer h.Unregister()
		if got := len(liveKeys(t, v)); got != nWorkers*perWorker/2 {
			t.Fatalf("len = %d want %d", got, nWorkers*perWorker/2)
		}
		for k := int64(0); k < nWorkers*perWorker; k++ {
			if _, ok := h.Get(k); ok != (k%2 == 1) {
				t.Fatalf("key %d present=%v want %v", k, ok, k%2 == 1)
			}
		}
	})
}

// ConcurrentContended makes all workers fight over four keys: successful
// inserts minus successful removes per key must be 0 or 1 and match the
// key's final presence.
func ConcurrentContended(t *testing.T, vs []Variant) {
	each(t, vs, func(t *testing.T, v Variant) {
		const keys = 4
		var (
			mu   sync.Mutex
			diff [keys]int64
		)
		workers(v, 8, func(h Handle, _ int, rng *rand.Rand) {
			var mine [keys]int64
			for i := 0; i < 500; i++ {
				k := rng.Int63n(keys)
				if rng.Intn(2) == 0 {
					if h.Insert(k, k) {
						mine[k]++
					}
				} else if _, ok := h.Remove(k); ok {
					mine[k]--
				}
			}
			mu.Lock()
			for k := range diff {
				diff[k] += mine[k]
			}
			mu.Unlock()
		})
		h := v.Register()
		defer h.Unregister()
		liveKeys(t, v)
		for k := int64(0); k < keys; k++ {
			_, present := h.Get(k)
			if d := diff[k]; (d != 0 && d != 1) || present != (d == 1) {
				t.Fatalf("key %d: present=%v but inserts-removes=%d", k, present, d)
			}
		}
	})
}

// ReclamationBalance churns, drains and checks the books: everything
// retired is reclaimed. It skips variants that leak by design.
func ReclamationBalance(t *testing.T, vs []Variant) {
	each(t, vs, func(t *testing.T, v Variant) {
		if !v.Drains {
			t.Skip("leaks by design")
		}
		workers(v, 4, func(h Handle, _ int, rng *rand.Rand) {
			for i := 0; i < 2500; i++ {
				k := rng.Int63n(96)
				if rng.Intn(2) == 0 {
					h.Insert(k, k)
				} else {
					h.Remove(k)
				}
			}
			h.Barrier()
		})
		drained(t, v)
	})
}

// drained runs the 8-barrier drain from a fresh handle — a single barrier
// can leave a couple of nodes in the HP half of two-step retirement — and
// checks the books: something was retired, and all of it was reclaimed.
func drained(t *testing.T, v Variant) {
	t.Helper()
	h := v.Register()
	for i := 0; i < 8; i++ {
		h.Barrier()
	}
	h.Unregister()
	s := v.Stats().Snapshot()
	if s.Retired == 0 {
		t.Fatal("churn produced no retires; test is vacuous")
	}
	if s.Unreclaimed != 0 {
		t.Fatalf("unreclaimed = %d after drain (retired=%d reclaimed=%d)",
			s.Unreclaimed, s.Retired, s.Reclaimed)
	}
}

// Churn parameters: two workers on two cores, long enough that a node
// retired while still linked gets its slot recycled under a live link —
// the wedge the eight-worker, few-thousand-operation checks above are too
// short to reach (at 1 024 keys it took ~5 M operations).
const (
	churnKeys  = 1024
	churnOps   = 8 << 20
	churnTime  = 6 * time.Second
	churnStall = 2 * time.Second
)

// Churn runs 50/50 Insert/Remove from two registered handles until
// churnOps operations or churnTime, failing with every goroutine's stack
// when no operation completes for churnStall (a livelocked structure never
// returns, so a plain wait would hang the test instead of failing it).
// Afterwards the structure must pass its quiescent check and, where the
// scheme drains, balance its books.
func Churn(t *testing.T, vs []Variant) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two cores: the interleavings it looks for do not occur on one")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	each(t, vs, func(t *testing.T, v Variant) {
		var ops atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := uint64(1); w <= 2; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				h := v.Register()
				defer h.Unregister()
				rng := atomicx.NewRand(seed)
				for !stop.Load() {
					const batch = 64 // keeps the shared counter off the operations' path
					for i := 0; i < batch; i++ {
						r := rng.Next()
						if k := int64((r >> 1) % churnKeys); r&1 == 0 {
							h.Insert(k, k)
						} else {
							h.Remove(k)
						}
					}
					if ops.Add(batch) >= churnOps {
						stop.Store(true)
					}
				}
				h.Barrier()
			}(w)
		}
		exited := make(chan struct{})
		go func() { wg.Wait(); close(exited) }()

		start := time.Now()
		seen, moved := int64(0), start
	watch:
		for {
			select {
			case <-exited:
				break watch
			case now := <-time.After(50 * time.Millisecond):
				if n := ops.Load(); n != seen {
					seen, moved = n, now
				} else if now.Sub(moved) > churnStall {
					buf := make([]byte, 1<<20)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("no operation completed for %v after %d operations in %v: livelock\n%s",
						churnStall, seen, moved.Sub(start).Round(time.Millisecond), buf)
				}
				if now.Sub(start) > churnTime {
					stop.Store(true)
				}
			}
		}
		keys := liveKeys(t, v)
		if len(slices.Compact(slices.Clone(keys))) != len(keys) {
			t.Fatalf("duplicate keys: %v", keys)
		}
		if v.Drains {
			drained(t, v)
		}
	})
}

// FindUnderSignals is the write side's check against real signals, for one
// HP-BRCU variant with no hook armed — so every find's Step is the inline
// poll, not the hooked Walk every chaos mode sends it to — built with a
// reclaimer that flushes at every retire and signals the first laggard.
// Two writers insert and remove overlapping keys in [0, keys) and book
// their own successful inserts and removes per key, while a reader checks
// every value it sees against its key, until the domain has counted both
// signals and rollbacks. At the end a key must be present exactly when its
// books add up to one, and after the drain nothing may be left
// unreclaimed.
func FindUnderSignals(t *testing.T, v Variant, keys int) {
	const (
		writers  = 2
		deadline = 20 * time.Second
	)
	valueOf := func(k int64) int64 { return 3*k + 1 }
	next := func(rng *uint64) uint64 {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		return *rng
	}
	var (
		stop, enough atomic.Bool
		wg           sync.WaitGroup
		ops          atomic.Int64
		books        = make([][]int, writers)
	)
	wg.Add(writers + 1)
	for w := range books {
		books[w] = make([]int, keys)
		go func(w int, rng uint64) {
			defer wg.Done()
			h := v.Register()
			defer h.Unregister()
			for !stop.Load() {
				r := next(&rng)
				k := int64(r % uint64(keys))
				if r&(1<<40) == 0 {
					if h.Insert(k, valueOf(k)) {
						books[w][k]++
					}
				} else if val, ok := h.Remove(k); ok {
					if val != valueOf(k) {
						t.Errorf("Remove(%d) = %d, want %d", k, val, valueOf(k))
					}
					books[w][k]--
				}
				if ops.Add(1)%4096 == 0 {
					s := v.Stats().Snapshot()
					enough.Store(s.Signals > 0 && s.Rollbacks > 0 && ops.Load() > 1<<17)
				}
			}
		}(w, uint64(w+1)*0x9E3779B97F4A7C15)
	}
	go func() { // the reader
		defer wg.Done()
		h := v.Register()
		defer h.Unregister()
		for rng := uint64(0xbeef); !stop.Load(); {
			k := int64(next(&rng) % uint64(keys))
			if val, ok := h.Get(k); ok && val != valueOf(k) {
				t.Errorf("Get(%d) = %d, want %d", k, val, valueOf(k))
			}
		}
	}()
	for start := time.Now(); !enough.Load() && time.Since(start) < deadline; {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	s := v.Stats().Snapshot()
	t.Logf("%s: %d writes, %d signals, %d rollbacks", v.Name, ops.Load(), s.Signals, s.Rollbacks)
	if s.Signals == 0 || s.Rollbacks == 0 {
		t.Fatalf("signals = %d, rollbacks = %d after %v: no signal landed in a traversal, the test is vacuous", s.Signals, s.Rollbacks, deadline)
	}

	h := v.Register()
	for k := int64(0); k < int64(keys); k++ {
		net := 0
		for w := range books {
			net += books[w][k]
		}
		val, ok := h.Get(k)
		if (net != 0 && net != 1) || ok != (net == 1) || ok && val != valueOf(k) {
			t.Errorf("key %d: Get = (%d,%v), but the writers' books net %d successful inserts over removes", k, val, ok, net)
		}
	}
	for i := 0; i < 8; i++ {
		h.Barrier()
	}
	h.Unregister()
	if s := v.Stats().Snapshot(); s.Retired == 0 || s.Unreclaimed != 0 {
		t.Fatalf("after the drain: retired = %d, unreclaimed = %d (reclaimed %d); want retires, all reclaimed", s.Retired, s.Unreclaimed, s.Reclaimed)
	}
}
