package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// res is a fake pooled resource with disposal tracking.
type res struct {
	id      int
	retired atomic.Bool
}

type fixture struct {
	rec     *stats.Reclamation
	minted  atomic.Int64
	retired atomic.Int64
}

func (f *fixture) config(size int, acquire time.Duration) Config[*res] {
	return Config[*res]{
		Size:           size,
		AcquireTimeout: acquire,
		Rec:            f.rec,
		New: func() *res {
			return &res{id: int(f.minted.Add(1))}
		},
		Retire: func(r *res) {
			if r.retired.Swap(true) {
				panic("pool_test: resource retired twice")
			}
			f.retired.Add(1)
		},
	}
}

func newFixture() *fixture { return &fixture{rec: &stats.Reclamation{}} }

// TestAcquireReleaseReuses pins what the pool guarantees about a returned
// entry: it is recovered, never lost. Which tier recovers it is not
// guaranteed — sync.Pool may drop a Put at any GC, and always may under
// the race detector — so the pool is held at a ceiling of one, where a
// dropped entry cannot be papered over by minting a second: every
// checkout must be the first entry again, through the fast tier or
// through the table scan. The GC pair empties sync.Pool's victim cache,
// so the table-scan half runs on every host.
func TestAcquireReleaseReuses(t *testing.T) {
	f := newFixture()
	p := New(f.config(1, time.Millisecond))
	e, err := p.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	first := e.Res()
	p.Release(e)
	for i := 0; i < 64; i++ {
		if i%16 == 15 {
			runtime.GC()
			runtime.GC()
		}
		e, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("Acquire %d: %v (a released entry was lost)", i, err)
		}
		if e.Res() != first {
			t.Fatalf("checkout %d got #%d, want the one entry #%d", i, e.Res().id, first.id)
		}
		p.Release(e)
	}
	if got, live := f.minted.Load(), p.Live(); got != 1 || live != 1 {
		t.Fatalf("minted %d resources (live %d) for a reuse pattern, want 1", got, live)
	}
	// The claim CAS is what counts a checkout: one mint and 64 claims, and
	// the releases left the count alone.
	if w := e.state.Load(); w != 65<<seqShift|stateIdle {
		t.Fatalf("entry word = seq %d state %d, want seq 65 idle", w>>seqShift, w&stateMask)
	}
}

func TestCeilingAndExhaustion(t *testing.T) {
	f := newFixture()
	p := New(f.config(3, 5*time.Millisecond))
	var held []*Entry[*res]
	for i := 0; i < 3; i++ {
		e, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		held = append(held, e)
	}
	if _, err := p.Acquire(nil); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Acquire over ceiling: err = %v, want ErrExhausted", err)
	}
	if got := f.rec.PoolExhausted.Load(); got != 1 {
		t.Fatalf("PoolExhausted = %d, want 1", got)
	}
	if got := f.minted.Load(); got != 3 {
		t.Fatalf("minted %d, want the ceiling 3", got)
	}
	// A return while a waiter blocks must hand the entry over.
	done := make(chan error, 1)
	go func() {
		e, err := p.Acquire(nil)
		if err == nil {
			p.Release(e)
		}
		done <- err
	}()
	time.Sleep(time.Millisecond)
	p.Release(held[0])
	if err := <-done; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	for _, e := range held[1:] {
		p.Release(e)
	}

	// The ceiling is hard: a borrower that holds the only checkout of a
	// Size-1 pool for 100ms — slow, not dead — keeps it, and an acquirer
	// looping meanwhile is shed every time, never handed a second handle.
	f = newFixture()
	p = New(f.config(1, 2*time.Millisecond))
	slow, err := p.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	var released atomic.Bool
	go func() {
		time.Sleep(100 * time.Millisecond)
		released.Store(true)
		p.Release(slow)
	}()
	shed := 0
	for !released.Load() {
		e, err := p.Acquire(nil)
		if err == nil {
			p.Release(e)
			break
		}
		if !errors.Is(err, ErrExhausted) {
			t.Fatalf("Acquire against a held checkout: err = %v, want ErrExhausted", err)
		}
		shed++
	}
	if got := f.minted.Load(); got != 1 {
		t.Fatalf("New ran %d times while one slow borrower held a Size-1 pool, want 1", got)
	}
	if shed == 0 {
		t.Fatal("the looping acquirer was never shed with ErrExhausted")
	}
}

// TestRetiredEntriesLeaveTheTable: the entry table holds live entries
// only, so a pool that discards every checkout — each one minting a
// replacement — still scans at most Size entries when it scavenges.
func TestRetiredEntriesLeaveTheTable(t *testing.T) {
	f := newFixture()
	p := New(f.config(4, time.Millisecond))
	for i := 0; i < 10_000; i++ {
		e, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		p.Discard(e)
	}
	p.mu.Lock()
	n := len(p.all)
	p.mu.Unlock()
	if n > p.Size() {
		t.Fatalf("entry table holds %d entries after 10 000 discards, want at most Size %d", n, p.Size())
	}
	if got, want := f.retired.Load(), f.minted.Load(); got != want || p.Live() != 0 {
		t.Fatalf("retired %d of %d minted, Live %d; want every discard retired", got, want, p.Live())
	}
}

func TestAcquireContextCancel(t *testing.T) {
	f := newFixture()
	p := New(f.config(1, time.Second))
	e, err := p.Acquire(nil)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := p.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire under cancelled ctx: err = %v, want context.Canceled", err)
	}
	p.Release(e)
}

func TestCloseDrainsToBalancedBooks(t *testing.T) {
	f := newFixture()
	p := New(f.config(8, time.Millisecond))
	var held []*Entry[*res]
	for i := 0; i < 8; i++ {
		e, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		held = append(held, e)
	}
	for _, e := range held[:6] {
		p.Release(e)
	}
	// Two still outstanding: Close must retire the six idle entries and
	// report the stragglers.
	left := p.Close(time.Now().Add(10 * time.Millisecond))
	if left != 2 {
		t.Fatalf("Close reported %d outstanding, want 2", left)
	}
	if got := f.retired.Load(); got != 6 {
		t.Fatalf("retired %d at Close, want 6", got)
	}
	// Stragglers retire themselves on return.
	p.Release(held[6])
	p.Release(held[7])
	if got, want := f.retired.Load(), f.minted.Load(); got != want {
		t.Fatalf("books unbalanced after stragglers returned: retired %d of %d minted", got, want)
	}
	if got := p.Live(); got != 0 {
		t.Fatalf("Live = %d after full drain, want 0", got)
	}
	if _, err := p.Acquire(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: err = %v, want ErrClosed", err)
	}
}

func TestCheckoutCountExactAfterClose(t *testing.T) {
	f := newFixture()
	p := New(f.config(2, time.Millisecond))
	const ops = 1000
	for i := 0; i < ops; i++ {
		e, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		p.Release(e)
	}
	p.Close(time.Now().Add(time.Second))
	if got := f.rec.PoolCheckouts.Load(); got != ops {
		t.Fatalf("PoolCheckouts = %d after Close, want %d", got, ops)
	}
}

// TestRaceStress hammers concurrent checkout/return/discard/exhaustion
// with a pool far smaller than the goroutine count; run with -race.
func TestRaceStress(t *testing.T) {
	f := newFixture()
	p := New(f.config(4, 200*time.Microsecond))
	var wg sync.WaitGroup
	var served, exhausted atomic.Int64
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				e, err := p.Acquire(nil)
				if err != nil {
					if !errors.Is(err, ErrExhausted) {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					exhausted.Add(1)
					continue
				}
				served.Add(1)
				if i%97 == 13 {
					p.Discard(e) // unfit handle: retire, capacity re-mints
				} else {
					p.Release(e)
				}
			}
		}(g)
	}
	wg.Wait()
	if left := p.Close(time.Now().Add(time.Second)); left != 0 {
		t.Fatalf("Close left %d outstanding after all workers joined", left)
	}
	if got, want := f.retired.Load(), f.minted.Load(); got != want {
		t.Fatalf("books unbalanced: retired %d of %d minted", got, want)
	}
	if served.Load() == 0 {
		t.Fatal("no checkout ever succeeded")
	}
	if got := f.rec.PoolCheckouts.Load(); got != served.Load() {
		t.Fatalf("PoolCheckouts = %d, want %d served", got, served.Load())
	}
	t.Logf("served=%d exhausted=%d minted=%d", served.Load(), exhausted.Load(), f.minted.Load())
}

// TestCloseNeverReportsExhausted pins the Close-vs-await error contract:
// a waiter whose bounded wait ends during Close must report ErrClosed,
// never ErrExhausted — even when its acquire timer and the stop channel
// become ready in the same select (the timer-vs-stop race; await breaks
// the tie by re-checking the closed flag). A truthless ErrExhausted
// would tell the caller "retry later" about a pool that will never
// serve again. The schedule is inherently racy, so the test hammers the
// window across rounds and additionally asserts the deterministic tail:
// after Close has returned, Acquire always reports ErrClosed.
func TestCloseNeverReportsExhausted(t *testing.T) {
	for round := 0; round < 20; round++ {
		f := newFixture()
		p := New(f.config(1, 200*time.Microsecond))
		// Pin the only entry so every other acquirer lands in await.
		held, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		var closeBegun atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sawClose := false
				for i := 0; i < 400 && !sawClose; i++ {
					_, err := p.Acquire(nil)
					switch {
					case err == nil:
						t.Error("acquired the pinned entry")
						return
					case errors.Is(err, ErrClosed):
						sawClose = true
					case errors.Is(err, ErrExhausted):
						// Legitimate before Close begins; the racy window
						// afterwards is exactly what the await fix closes.
					default:
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
				if !sawClose && closeBegun.Load() {
					// Every post-Close attempt must have been answered with
					// ErrClosed; 400 attempts of anything else is the bug.
					t.Error("waiter never observed ErrClosed after Close began")
				}
			}()
		}
		time.Sleep(300 * time.Microsecond) // let waiters pile into await
		closeBegun.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Close(time.Now().Add(time.Second))
		}()
		wg.Wait()
		p.Release(held) // straggler returns post-Close: retires itself
		<-done
		// The deterministic half of the contract: a closed pool answers
		// ErrClosed, never ErrExhausted, from the very first check.
		if _, err := p.Acquire(nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
		}
		if got, want := f.retired.Load(), f.minted.Load(); got != want {
			t.Fatalf("books unbalanced: retired %d of %d minted", got, want)
		}
	}
}
