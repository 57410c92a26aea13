// Package pool implements the lock-free, tiered handle pool behind the
// package's handle-free facade: any goroutine can borrow a registered
// handle for the duration of one operation instead of owning one for its
// lifetime, which turns the §5 garbage bound into a function of the pool
// size rather than the goroutine count.
//
// # Tiers
//
// Checkouts are served from three tiers, cheapest first:
//
//   - a per-P-biased fast tier (sync.Pool), so the common
//     return-then-borrow pattern of a request-per-goroutine server stays
//     on one core's cache line and costs a few nanoseconds;
//   - a bounded global tier (a buffered channel) that doubles as the
//     waiter wakeup path: a return prefers it whenever an acquirer is
//     blocked in the bounded wait;
//   - the mint path, which creates fresh entries up to the hard Size
//     ceiling.
//
// A slow-path scavenge scan over the entry table backstops the fast
// tiers: sync.Pool may drop entries at GC, but every live entry stays
// reachable through the table, so dropped entries are recovered instead
// of lost capacity. The table holds live entries only: retiring an entry
// drops it, so a scan costs at most Size claims however many entries the
// pool has minted and retired.
//
// # Ownership
//
// Each entry carries one word — idle, out or retired, under a count of its
// checkouts that the idle→out CAS bumps. Every claim is a CAS on it; the
// owner leaves out with a plain store, since nobody else writes the word
// of an entry that is out. An entry may transiently be referenced by
// several tiers at once (the channel, the fast tier, the table scan); the
// claim CAS arbitrates, so duplicate references are harmless and losers
// simply move on. The word also publishes the owner's plain writes (the
// per-entry checkout tally, the resource's own state) to the next owner.
//
// # Every checkout comes back
//
// The pool trusts its borrowers to return what they check out: the
// facade checks in from a defer, on every completion path. An entry that
// is out therefore belongs to its borrower alone, however long the
// operation runs — nothing presumes a slow borrower dead and hands its
// slot to a second one, so the ceiling is hard. When every entry stays
// out through the bounded wait, Acquire sheds with ErrExhausted, and
// Close waits for outstanding checkouts until its deadline.
package pool

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// ErrExhausted is returned by Acquire when every pooled handle stayed
// checked out through the bounded wait. It composes with the
// backpressure ladder: callers shed load or retry, the pool never blocks
// forever and never registers past its ceiling.
var ErrExhausted = errors.New("hpbrcu: handle pool exhausted (every pooled handle is checked out)")

// ErrClosed is returned by Acquire after Close has begun.
var ErrClosed = errors.New("hpbrcu: handle pool is closed")

// Entry states, the low two bits of the entry's word; the bits above count
// its checkouts. idle→out is a CAS on the whole word that bumps the count
// (checkout); out→idle (return) and out→retired (post-Close return,
// discard; the Close drain claims idle entries first) are the owner's
// stores and keep it.
const (
	stateIdle uint64 = iota
	stateOut
	stateRetired
	stateMask = 3
	seqShift  = 2
)

// checkoutFlush is how many checkouts an entry accumulates before
// flushing them into the shared PoolCheckouts counter — the hot path
// pays a plain increment, not a contended atomic.
const checkoutFlush = 64

// Entry is one checkout slot: a pooled resource plus the ownership word
// the tiers arbitrate over. While checked out it belongs exclusively to
// the borrowing goroutine.
type Entry[T any] struct {
	// state is seq<<seqShift | state; seq counts checkouts.
	state atomic.Uint64
	res   T

	// pending is the unflushed checkout tally. Owner-plain: written only
	// by the current owner, published to the next through the state word.
	pending int
	// trace is the entry's obs ring (nil outside observed runs); recorded
	// only while the entry is owned, so the single-writer contract holds
	// transfer-to-transfer.
	trace *obs.Trace
}

// Res returns the pooled resource. Valid only while the entry is checked
// out by the caller.
func (e *Entry[T]) Res() T { return e.res }

// claim is the idle→out CAS; it counts the checkout in the same word.
func (e *Entry[T]) claim() bool {
	w := e.state.Load()
	return w&stateMask == stateIdle && e.state.CompareAndSwap(w, (w+1<<seqShift)|stateOut)
}

// leave is the owner's out→to transfer. Nobody else writes the word of an
// entry that is out, so a store suffices; it publishes the owner's plain
// writes to whoever claims the entry next.
func (e *Entry[T]) leave(to uint64) {
	e.state.Store(e.state.Load()&^stateMask | to)
}

// Config parameterizes a Pool.
type Config[T any] struct {
	// Size is the hard ceiling on live entries. <=0 selects
	// 4×GOMAXPROCS.
	Size int
	// AcquireTimeout bounds the wait when every entry is checked out;
	// past it Acquire returns ErrExhausted. <=0 selects 1ms.
	AcquireTimeout time.Duration

	// New mints a resource (registers a handle). Called at most Size
	// times concurrently with anything.
	New func() T
	// Retire disposes a resource the pool or a borrower owns outright:
	// the Close drain, a discarded checkout, or a return after Close.
	Retire func(T)
	// Rec receives the pool counters (PoolCheckouts, PoolExhausted).
	// Optional.
	Rec *stats.Reclamation
}

// Pool is the tiered handle pool. Safe for concurrent use by any number
// of goroutines.
type Pool[T any] struct {
	cfg Config[T]

	fast sync.Pool      // *Entry[T]; the per-P-biased tier
	idle chan *Entry[T] // the bounded global tier / waiter wakeup path

	created atomic.Int64 // live entries: minted minus retired
	waiters atomic.Int32
	closed  atomic.Bool
	stop    chan struct{} // closed by Close to wake blocked waiters

	mu     sync.Mutex  // guards all and the pool trace
	all    []*Entry[T] // live entries; copy-on-write (see forget)
	ptrace *obs.Trace  // pool-level ring for exhaustion events
}

// New creates a pool. cfg.New must be non-nil.
func New[T any](cfg Config[T]) *Pool[T] {
	if cfg.Size <= 0 {
		cfg.Size = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = time.Millisecond
	}
	return &Pool[T]{
		cfg:  cfg,
		idle: make(chan *Entry[T], cfg.Size),
		stop: make(chan struct{}),
	}
}

// Size returns the hard entry ceiling.
func (p *Pool[T]) Size() int { return p.cfg.Size }

// Live returns the number of live entries (minted minus retired).
func (p *Pool[T]) Live() int64 { return p.created.Load() }

// Acquire checks out an entry: fast tier, global tier, mint, scavenge,
// then a bounded wait. A nil ctx waits the full AcquireTimeout; a
// non-nil ctx can cut the wait short with its own error. It returns
// ErrExhausted when the wait expires and ErrClosed after Close.
func (p *Pool[T]) Acquire(ctx context.Context) (*Entry[T], error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if e := p.takeFast(); e != nil {
		return p.checkedOut(e), nil
	}
	select {
	case e := <-p.idle:
		if e.claim() {
			return p.checkedOut(e), nil
		}
	default:
	}
	if e := p.tryMint(); e != nil {
		return p.checkedOut(e), nil
	}
	if e := p.scavenge(); e != nil {
		return p.checkedOut(e), nil
	}
	return p.await(ctx)
}

// takeFast pops entries off the per-P tier until one wins its claim CAS.
func (p *Pool[T]) takeFast() *Entry[T] {
	for {
		v := p.fast.Get()
		if v == nil {
			return nil
		}
		if e := v.(*Entry[T]); e.claim() {
			return e
		}
		// Lost to a scavenger or retired by the Close drain; drop it.
	}
}

func (p *Pool[T]) tryMint() *Entry[T] {
	for {
		n := p.created.Load()
		if n >= int64(p.cfg.Size) {
			return nil
		}
		if p.created.CompareAndSwap(n, n+1) {
			break
		}
	}
	e := &Entry[T]{res: p.cfg.New()}
	e.state.Store(1<<seqShift | stateOut)
	p.mu.Lock()
	if obs.On {
		e.trace = obs.NewTrace("pool-entry")
	}
	p.all = append(p.all, e)
	p.mu.Unlock()
	return e
}

// scavenge recovers idle entries the fast tiers lost track of (sync.Pool
// drops entries at GC; a returner may be preempted between its state CAS
// and its container put). The table is the ground truth.
func (p *Pool[T]) scavenge() *Entry[T] {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	for _, e := range all {
		if e.claim() {
			return e
		}
	}
	return nil
}

func (p *Pool[T]) checkedOut(e *Entry[T]) *Entry[T] {
	if e.pending++; e.pending >= checkoutFlush {
		if p.cfg.Rec != nil {
			p.cfg.Rec.PoolCheckouts.Add(int64(e.pending))
		}
		e.pending = 0
	}
	if obs.On {
		e.trace.Rec(obs.EvCheckout, int64(e.state.Load()>>seqShift))
	}
	return e
}

// await is the bounded wait: a brief yield-backoff over the fast paths,
// then a timed block on the global tier. Returns ErrExhausted at the
// deadline, the context's error if it fires first, ErrClosed if the pool
// closes.
func (p *Pool[T]) await(ctx context.Context) (*Entry[T], error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// Backoff spins: returns are nanoseconds away under transient
	// contention, so a few yields often beat arming a timer.
	for i := 0; i < 4; i++ {
		runtime.Gosched()
		if e := p.takeFast(); e != nil {
			return p.checkedOut(e), nil
		}
		if e := p.scavenge(); e != nil {
			return p.checkedOut(e), nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if p.closed.Load() {
			return nil, ErrClosed
		}
	}
	timer := time.NewTimer(p.cfg.AcquireTimeout)
	defer timer.Stop()
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		select {
		case e := <-p.idle:
			if e.claim() {
				return p.checkedOut(e), nil
			}
		case <-done:
			return nil, ctx.Err()
		case <-p.stop:
			return nil, ErrClosed
		case <-timer.C:
			// Close may have raced the timer: once p.stop is closed both
			// cases are ready and select picks one at random, so a waiter
			// could report exhaustion for a wait that really ended in
			// shutdown. The closed flag is set before stop is closed, so
			// checking it here makes the answer deterministic: a closing
			// pool always reports ErrClosed, never ErrExhausted.
			if p.closed.Load() {
				return nil, ErrClosed
			}
			p.exhausted()
			return nil, ErrExhausted
		}
		// A claim lost to a scavenger still means capacity moved; retry
		// the cheap paths before blocking again.
		if e := p.takeFast(); e != nil {
			return p.checkedOut(e), nil
		}
		if e := p.tryMint(); e != nil {
			return p.checkedOut(e), nil
		}
	}
}

func (p *Pool[T]) exhausted() {
	if p.cfg.Rec != nil {
		p.cfg.Rec.PoolExhausted.Inc()
	}
	if obs.On {
		// Exhaustion has no owned entry to record against; the pool-level
		// ring is shared, so serialize under mu (cold path: we just lost a
		// full AcquireTimeout).
		p.mu.Lock()
		if p.ptrace == nil {
			p.ptrace = obs.NewTrace("pool")
		}
		p.ptrace.Rec(obs.EvExhausted, int64(p.cfg.Size))
		p.mu.Unlock()
	}
}

// Release returns a checked-out entry to the pool. After Close the entry
// is retired instead and the resource disposed through Config.Retire (the
// caller, as current owner, is the only party that can do so race-free).
func (p *Pool[T]) Release(e *Entry[T]) {
	if p.closed.Load() {
		p.retireOwned(e)
		return
	}
	if obs.On {
		e.trace.Rec(obs.EvReturn, 0)
	}
	e.leave(stateIdle)
	if p.waiters.Load() > 0 {
		select {
		case p.idle <- e:
			return
		default:
		}
	}
	p.fast.Put(e)
}

// Discard retires a checked-out entry instead of returning it: the
// facade calls it when an operation left the handle unfit for reuse (a
// panic unwound through it, a poisoned handle). Capacity is released, so
// a later Acquire mints a replacement.
func (p *Pool[T]) Discard(e *Entry[T]) {
	if obs.On {
		e.trace.Rec(obs.EvReturn, 1)
	}
	p.retireOwned(e)
}

// retireOwned retires an entry the caller owns (checked out, or claimed
// by the Close drain): the capacity is released, the entry leaves the
// table, and the resource is disposed of.
func (p *Pool[T]) retireOwned(e *Entry[T]) {
	e.leave(stateRetired)
	p.created.Add(-1)
	p.forget(e)
	p.flushPending(e)
	if p.cfg.Retire != nil {
		p.cfg.Retire(e.res)
	}
}

// forget drops a retired entry from the table. The new table is a copy:
// scavengers iterate the slice they loaded outside mu, so a backing array
// once published is never written within its length again. Stale readers
// see at worst the retired entry, which fails its claim CAS.
func (p *Pool[T]) forget(e *Entry[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.Index(p.all, e); i >= 0 {
		p.all = slices.Concat(p.all[:i], p.all[i+1:])
	}
}

func (p *Pool[T]) flushPending(e *Entry[T]) {
	if e.pending > 0 {
		if p.cfg.Rec != nil {
			p.cfg.Rec.PoolCheckouts.Add(int64(e.pending))
		}
		e.pending = 0
	}
}

// Close stops admission, wakes blocked waiters, and drains the pool to
// balanced books: idle entries are retired through Config.Retire and
// outstanding checkouts are waited for until the deadline (a straggler
// that returns later still retires itself — see Release). It returns the
// number of entries still outstanding at the deadline. Idempotent.
func (p *Pool[T]) Close(deadline time.Time) int {
	if p.closed.Swap(true) {
		// Lost the race to another closer; still help drain below so the
		// first caller's deadline is not the only chance.
	} else {
		close(p.stop)
	}
	for {
		// Empty the global tier and the table: claiming flips idle→out,
		// making us the owner, so retiring through Config.Retire is safe.
		for {
			select {
			case e := <-p.idle:
				if e.claim() {
					p.retireOwned(e)
				}
				continue
			default:
			}
			break
		}
		if e := p.takeFast(); e != nil {
			p.retireOwned(e)
			continue
		}
		if e := p.scavenge(); e != nil {
			p.retireOwned(e)
			continue
		}
		left := p.created.Load()
		if left == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return int(left)
		}
		// Outstanding checkouts: give their borrowers a moment to return.
		time.Sleep(200 * time.Microsecond)
	}
}
