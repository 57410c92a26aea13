package hlist

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/nbr"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// member is what every list type of the family offers a test.
type member[H any] interface {
	Register() H
	Stats() *stats.Reclamation
	KeysSlow() []int64
}

// variants builds the Harris list under every scheme its constructors
// accept, fresh for each check.
func variants() []listtest.Variant {
	small := core.Config{BackupPeriod: 4} // small period: exercise phase switches
	return []listtest.Variant{
		listtest.Of("NR", true, false, NewNR()),
		listtest.Of("EBR", true, true, NewEBR()),
		listtest.Of("HP-RCU", true, true, NewHPRCU(small)),
		listtest.Of("HP-BRCU", true, true, NewHPBRCU(small)),
		listtest.Of("NBR", true, true, NewNBR()),
		listtest.Of("NBR-small", true, true, NewNBR(nbr.WithBatchSize(4))), // aggressive broadcasts
		listtest.Of("NBR-Large", true, true, NewNBRLarge()),
	}
}

func TestSequentialSemantics(t *testing.T)       { listtest.Sequential(t, variants()) }
func TestSequentialBulkAllVariants(t *testing.T) { listtest.Bulk(t, variants()) }
func TestConcurrentMixed(t *testing.T)           { listtest.ConcurrentMixed(t, variants()) }
func TestConcurrentDisjointKeys(t *testing.T)    { listtest.ConcurrentDisjoint(t, variants()) }
func TestConcurrentContendedKey(t *testing.T)    { listtest.ConcurrentContended(t, variants()) }
func TestReclamationBalance(t *testing.T)        { listtest.ReclamationBalance(t, variants()) }
func TestChurn(t *testing.T)                     { listtest.Churn(t, variants()) }

// TestBucketOfSpreadsStrides: n keys of stride n — 0, n, 2n, … — must
// spread over at least half of n buckets, for power-of-two tables (what
// DefaultBuckets gives for a power-of-two key range) and others. Hashing
// by the low bits of key·φ put every one of them in bucket 0.
func TestBucketOfSpreadsStrides(t *testing.T) {
	for _, n := range []int{8, 64, 1000, 1024, 4096} {
		used := map[int]bool{}
		for i := 0; i < n; i++ {
			b := BucketOf(int64(i*n), n)
			if b < 0 || b >= n {
				t.Fatalf("BucketOf(%d, %d) = %d, out of range", i*n, n, b)
			}
			used[b] = true
		}
		if len(used) < n/2 {
			t.Errorf("%d keys of stride %d occupy %d of %d buckets, want >= %d", n, n, len(used), n, n/2)
		}
	}
}

// handle adds the handle's shared half to the conformance surface, so the
// two tests below can stage marked runs and inspect one excision.
type handle interface {
	listtest.Handle
	GetOptimistic(key int64) (int64, bool)
	shared() *ops
}

func (o *ops) shared() *ops { return o }

// boundCase is one (scheme, run bound) pair of the two tests below, which
// assert what the rest of the suite assumes: Harris-Michael is Harris
// with run bound 1.
type boundCase struct {
	name     string
	bound    int
	register func() handle
	stats    *stats.Reclamation
	keys     func() []int64
}

func newBoundCase[H handle](name string, bound int, l member[H]) boundCase {
	return boundCase{name, bound, func() handle { return l.Register() }, l.Stats(), l.KeysSlow}
}

func boundCases() []boundCase {
	return []boundCase{
		newBoundCase("EBR/bound=1", 1, NewEBROf(HarrisMichael, 1)),
		newBoundCase("EBR/bound=64", maxRun, NewEBROf(Harris, 1)),
		newBoundCase("HP-BRCU/bound=1", 1, NewExpeditedOf(core.BackendBRCU, HarrisMichael, 1, core.Config{})),
		newBoundCase("HP-BRCU/bound=64", maxRun, NewExpeditedOf(core.BackendBRCU, Harris, 1, core.Config{})),
	}
}

// markOnly logically deletes key without unlinking it — a remover that
// stalled between its two CASes — and reports whether key was live.
// Single-threaded use only.
func markOnly(o *ops, key int64) bool {
	for r := o.l.Pool.At(o.l.Head).Next.Load().Untagged(); !r.IsNil(); {
		n := o.l.At(r)
		next := n.Next.Load()
		if n.Key.Load() == key && next.Tag() == 0 {
			return n.Next.CompareAndSwap(next, next.WithTag(lnode.MarkBit))
		}
		r = next.Untagged()
	}
	return false
}

// linked counts the nodes physically reachable from the head, marked or
// not. Single-threaded use only.
func linked(o *ops) (n int) {
	for r := o.l.Pool.At(o.l.Head).Next.Load().Untagged(); !r.IsNil(); n++ {
		r = o.l.At(r).Next.Load().Untagged()
	}
	return n
}

// TestRunExcision stages a marked run longer than maxRun and checks what
// one excision covers under each bound — exactly one node under bound 1,
// maxRun nodes and a still-marked (partial, legal) target under bound 64 —
// and that one helping search then unlinks and retires the whole run.
func TestRunExcision(t *testing.T) {
	for _, c := range boundCases() {
		t.Run(c.name, func(t *testing.T) {
			h := c.register()
			defer h.Unregister()
			o := h.shared()
			if o.bound != c.bound {
				t.Fatalf("run bound = %d, want %d", o.bound, c.bound)
			}
			const n, lo, hi = 200, 10, 110 // marked run [lo, hi): 100 > maxRun
			for k := int64(0); k < n; k++ {
				h.Insert(k, k)
			}
			for k := int64(lo); k < hi; k++ {
				if !markOnly(o, k) {
					t.Fatalf("markOnly(%d) failed", k)
				}
			}
			if got := linked(o); got != n {
				t.Fatalf("linked = %d before any search, want %d", got, n)
			}

			// One excision, as every search would stage it.
			first := o.l.Pool.At(o.l.Head).Next.Load()
			for o.l.At(first).Key.Load() != lo {
				first = o.l.At(first).Next.Load().Untagged()
			}
			end := o.runEnd(first)
			if want := min(c.bound, hi-lo); o.run.n != want {
				t.Fatalf("one excision captured %d nodes, want %d", o.run.n, want)
			}
			if want := int64(lo + c.bound); o.l.At(end).Key.Load() != want {
				t.Fatalf("excision target key = %d, want %d", o.l.At(end).Key.Load(), want)
			}
			if o.l.At(end).Next.Load().Tag() == 0 {
				t.Fatal("excision target past a partial run must still be marked")
			}

			// The optimistic get reads through the run without helping...
			if _, ok := h.GetOptimistic(lo + 1); ok {
				t.Fatal("optimistic get found a marked key")
			}
			if v, ok := h.GetOptimistic(n - 1); !ok || v != n-1 {
				t.Fatalf("GetOptimistic(tail) = %d,%v", v, ok)
			}
			if got := linked(o); got != n {
				t.Fatalf("optimistic get unlinked nodes: linked = %d", got)
			}
			// ...and one helping search cleans all of it, whatever the bound.
			retired := c.stats.Retired.Load()
			if v, ok := h.Get(n - 1); !ok || v != n-1 {
				t.Fatalf("Get(tail) = %d,%v", v, ok)
			}
			if got := linked(o); got != n-(hi-lo) {
				t.Fatalf("linked = %d after the helping search, want %d", got, n-(hi-lo))
			}
			if got := c.stats.Retired.Load() - retired; got != hi-lo {
				t.Fatalf("helping search retired %d nodes, want %d", got, hi-lo)
			}
			for k := int64(0); k < n; k++ {
				if _, ok := h.Get(k); ok != (k < lo || k >= hi) {
					t.Fatalf("Get(%d) = %v", k, ok)
				}
			}
		})
	}
}

// modelOp is one step of the differential test: testing/quick draws the
// sequence, the fields are reduced modulo small ranges when applied.
type modelOp struct{ Kind, Key, Worker uint8 }

const (
	opInsert = iota
	opRemove
	opMarkOnly // logical delete only: what makes marked runs, so what makes the bound matter
	opGet
	opGetOptimistic
)

// opMix weights the kinds so the list stays populated and marked nodes
// pile up between helping searches.
var opMix = [...]uint8{opInsert, opInsert, opInsert, opMarkOnly, opMarkOnly, opMarkOnly,
	opRemove, opGet, opGetOptimistic, opGetOptimistic}

// longestMarkedRun scans the physical list. Single-threaded use only.
func longestMarkedRun(o *ops) (longest int) {
	run := 0
	for r := o.l.Pool.At(o.l.Head).Next.Load().Untagged(); !r.IsNil(); {
		next := o.l.At(r).Next.Load()
		if next.Tag() != 0 {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
		r = next.Untagged()
	}
	return longest
}

// TestModelDifferential replays random operation sequences through three
// handles of every boundCase and through a mutex-guarded reference map,
// all under one lock so every result is determined: each list must answer
// exactly like the map, whatever its run bound or scheme, and end with the
// map's keys. The sequences are long enough that marked runs longer than
// one node form (asserted, or the bound would never have mattered).
func TestModelDifferential(t *testing.T) {
	const workers, keyRange = 3, 24
	longestRun := 0
	property := func(seq []modelOp) bool {
		cases := boundCases()
		handles := make([][workers]handle, len(cases))
		for c := range cases {
			for w := range handles[c] {
				handles[c][w] = cases[c].register()
			}
		}
		var (
			mu    sync.Mutex
			model = map[int64]int64{}
			ok    = true
		)
		apply := func(i int, op modelOp) {
			mu.Lock()
			defer mu.Unlock()
			kind, key, val := opMix[int(op.Kind)%len(opMix)], int64(op.Key%keyRange), int64(i)
			want, present := model[key]
			switch kind {
			case opInsert:
				if !present {
					model[key] = val
				}
			case opRemove, opMarkOnly:
				delete(model, key)
			}
			for c := range cases {
				h := handles[c][op.Worker%workers]
				got, found := want, false
				switch kind {
				case opInsert:
					found = !h.Insert(key, val) // fails exactly when present
				case opRemove:
					got, found = h.Remove(key)
				case opMarkOnly:
					found = markOnly(h.shared(), key)
					longestRun = max(longestRun, longestMarkedRun(h.shared()))
				case opGet:
					got, found = h.Get(key)
				case opGetOptimistic:
					got, found = h.GetOptimistic(key)
				}
				if found != present || (found && got != want) {
					t.Errorf("%s: op %d %+v = %d,%v; model %d,%v", cases[c].name, i, op, got, found, want, present)
					ok = false
				}
			}
		}
		// Each worker applies its own stride of the sequence, so handles
		// interleave in scheduler order while the lock keeps each step
		// atomic across the model and all lists.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(seq); i += workers {
					apply(i, seq[i])
				}
			}(w)
		}
		wg.Wait()
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		for c := range cases {
			if got := cases[c].keys(); !slices.Equal(got, want) {
				t.Errorf("%s: final keys %v, model %v", cases[c].name, got, want)
				ok = false
			}
			for _, h := range handles[c] {
				h.Unregister()
			}
		}
		return ok
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(13)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			seq := make([]modelOp, 100+r.Intn(300))
			for i := range seq {
				seq[i] = modelOp{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
			}
			args[0] = reflect.ValueOf(seq)
		},
	}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
	if longestRun < 3 {
		t.Fatalf("longest marked run staged = %d nodes; the run bound never mattered", longestRun)
	}
	t.Logf("longest marked run staged: %d nodes", longestRun)
}

// TestOptimisticTraversalThroughMarkedNodes is the Figure-2 scenario made
// safe: readers traverse long stretches of concurrently marked nodes while
// writers remove entire ranges. Plain HP would be unsafe here; HP-BRCU
// must both survive and reclaim.
func TestOptimisticTraversalThroughMarkedNodes(t *testing.T) {
	l := NewHPBRCU(core.Config{BackupPeriod: 8, MaxLocalTasks: 32, ForceThreshold: 2})
	const n = 1500
	{
		h := l.Register()
		for i := int64(0); i < n; i++ {
			h.Insert(i, i)
		}
		h.Unregister()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := l.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 40; round++ {
				base := rng.Int63n(n - 100)
				for i := base; i < base+50; i++ {
					h.Remove(i)
				}
				for i := base; i < base+50; i++ {
					h.Insert(i, i)
				}
			}
		}(int64(w + 1))
	}
	go func() { wg.Wait(); close(done) }()

	reader := l.Register()
	for {
		select {
		case <-done:
		default:
			reader.GetOptimistic(n - 1) // full-length optimistic scan
			continue
		}
		break
	}
	reader.Unregister()
	<-done

	s := l.Stats().Snapshot()
	t.Logf("retired=%d reclaimed=%d peak=%d signals=%d rollbacks=%d",
		s.Retired, s.Reclaimed, s.PeakUnreclaimed, s.Signals, s.Rollbacks)
	if s.Retired == 0 {
		t.Fatal("no churn")
	}
}
