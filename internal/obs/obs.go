// Package obs is the observability layer for the reclamation core: a
// low-overhead, always-compiled tracing and metrics gate in the style of
// internal/fault. Instrumentation points in internal/brcu, internal/hp,
// internal/core and internal/alloc are guarded by a single package-level
// boolean, so a disabled build costs one predictable branch per site and
// nothing else:
//
//	if obs.On {
//	        h.trace.Rec(obs.EvEpochAdvance, int64(e))
//	}
//
// The layer has three parts:
//
//   - per-handle ring-buffer event traces (Trace) with a merge-and-dump
//     API on the Collector, so a chaos-invariant failure can print the
//     last N events of every handle instead of just a message;
//   - HDR-style histograms (stats.Histogram) for poll epoch-lag,
//     critical-section latency, retire→reclaim age and grace-period
//     length, recorded by the instrumented packages into their
//     stats.Reclamation and surfaced on stats.Snapshot;
//   - a "current run" registration (SetRun) that the benchmark harness
//     uses to expose the live stats of the measurement in flight to the
//     expvar/HTTP exporter and the -watch ticker in cmd/smrbench.
//
// # Concurrency contract
//
// Like fault.On, the gate and the active collector may only change while
// no goroutine is inside an instrumented region: Activate before the
// workers start, Deactivate after they have joined (and after any
// janitor has been stopped). Each Trace is single-writer: it belongs to
// the goroutine that owns the traced handle, which is also why recording
// needs no CAS. Merging is safe after the writers have quiesced; a live
// dump (the HTTP exporter) may observe torn events near each ring's write
// position and must treat the output as diagnostic, not exact.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// EventKind identifies one traced event of the reclamation core.
type EventKind uint8

const (
	// EvEpochAdvance: a successful global epoch advance; Arg is the new
	// epoch.
	EvEpochAdvance EventKind = iota
	// EvForcedAdvance: an epoch advance that required signalling; Arg is
	// the new epoch.
	EvForcedAdvance
	// EvSignal: the handle (as reclaimer) neutralized a laggard; Arg is
	// the victim's announced epoch.
	EvSignal
	// EvRollback: the handle rolled its critical section back; Arg is 0.
	EvRollback
	// EvMaskDefer: a neutralization landed inside an abort-masked region
	// and was deferred to the region's exit (Algorithm 6); Arg is the
	// region's epoch.
	EvMaskDefer
	// EvDrain: the handle executed expired deferred batches; Arg is the
	// number of tasks run.
	EvDrain
	// EvReclaim: an HP reclamation pass; Arg is the number of nodes
	// freed.
	EvReclaim
	// EvSlabGrow: the allocator materialized or carved fresh slots
	// instead of reusing freed ones; Arg is the number of slots carved.
	EvSlabGrow
	// EvLeaseExpire: the reaper observed a handle whose status word has
	// stood still for the lease timeout and is about to try claiming it;
	// Arg is how long the word stood, in nanoseconds.
	EvLeaseExpire
	// EvAdopt: the reaper adopted a dead handle's deferred batch and
	// retired list into the domain-global paths; Arg is the node count.
	EvAdopt
	// EvReap: the reaper removed the handles it claimed and adopted; Arg
	// is the number of handles reaped this pass.
	EvReap
	// EvThrottle: allocations were delayed by the backpressure throttle;
	// Arg is the number of throttled admissions since the last tick.
	EvThrottle
	// EvReject: allocations were refused with ErrMemoryPressure; Arg is
	// the number of rejections since the last tick.
	EvReject
	// EvPanic: a panic in user code was contained by the recover barrier
	// and the handle driven through the abort path; Arg is 1 if the
	// handle could not be restored and was poisoned, 0 otherwise.
	EvPanic
	// EvCancel: a context cancellation self-neutralized the handle's
	// critical section and the operation returned early; Arg is 0.
	EvCancel
	// EvClose: the domain began its unified shutdown drain; Arg is the
	// unreclaimed count at that moment.
	EvClose
	// EvCheckout: the handle pool lent a registered handle to a facade
	// operation; Arg is the entry's checkout count so far.
	EvCheckout
	// EvReturn: a facade operation returned its pooled handle; Arg is 0
	// for a clean return into the pool, 1 when the entry was discarded
	// instead (a panic unwound through the operation, or a poisoned
	// handle).
	EvReturn
	// EvExhausted: a facade operation gave up acquiring a handle after
	// the bounded wait and returned ErrHandleExhausted; Arg is the pool's
	// hard size ceiling.
	EvExhausted
	// EvAccept: the cache server accepted a connection into service; Arg
	// is the connection's accept sequence number. Recorded on the accept
	// loop's trace.
	EvAccept
	// EvConnClose: a server connection ended (client went away, drain, or
	// a contained per-connection panic); Arg is the connection's accept
	// sequence number. Recorded on the connection's own trace, which the
	// handler goroutine owns.
	EvConnClose
	// EvShed: the server refused work; Arg is what decided (1 = scan shed
	// at the ladder's first rung, 2 = write rejected at its second, 3 =
	// connection turned away at the door, over MaxConns).
	EvShed
	// EvDrainBegin: Shutdown started the graceful drain; Arg is the
	// number of live connections at that moment.
	EvDrainBegin

	numEventKinds
)

var eventNames = [numEventKinds]string{
	"epoch-advance", "forced-advance", "signal", "rollback", "mask-defer",
	"drain", "reclaim", "slab-grow",
	"lease-expire", "adopt", "reap", "throttle", "reject",
	"panic-recover", "cancel", "close", "checkout", "return", "exhausted",
	"accept", "conn-close", "shed", "drain-begin",
}

// String returns the event kind's name.
func (k EventKind) String() string {
	if k < numEventKinds {
		return eventNames[k]
	}
	return "event?"
}

// Event is one traced occurrence. Seq is a collector-global sequence
// number that totally orders events across handles; Nanos is relative to
// the collector's creation.
type Event struct {
	Seq   uint64
	Nanos int64
	Kind  EventKind
	Arg   int64
}

// Trace is one handle's ring buffer. The zero/nil Trace drops every
// event, so instrumented code can record unconditionally once past the
// obs.On gate. A Trace is single-writer (the handle's owner goroutine).
type Trace struct {
	c    *Collector
	name string
	pos  atomic.Uint64
	buf  []Event
}

// Rec records one event. It is a no-op on a nil Trace.
func (t *Trace) Rec(k EventKind, arg int64) {
	if t == nil {
		return
	}
	e := Event{
		Seq:   t.c.seq.Add(1),
		Nanos: int64(time.Since(t.c.start)),
		Kind:  k,
		Arg:   arg,
	}
	i := t.pos.Add(1) - 1
	t.buf[i%uint64(len(t.buf))] = e
}

// Len returns the number of events recorded (not capped by the ring).
func (t *Trace) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.pos.Load()
}

// DefaultRingSize is the per-handle event capacity of a collector's
// traces.
const DefaultRingSize = 256

// Collector owns the traces of one observed run plus the "current run"
// stats registration used by the live exporter.
type Collector struct {
	seq      atomic.Uint64
	start    time.Time
	ringSize int

	mu     sync.Mutex
	traces []*Trace

	runMu    sync.Mutex
	runLabel string
	runStats *stats.Reclamation
}

// NewCollector creates a collector whose traces hold ringSize events
// each (<=0 selects DefaultRingSize).
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Collector{start: time.Now(), ringSize: ringSize}
}

// NewTrace registers a new ring buffer under name; an instance number is
// appended so handles of the same kind stay distinguishable.
func (c *Collector) NewTrace(name string) *Trace {
	t := &Trace{c: c, buf: make([]Event, c.ringSize)}
	c.mu.Lock()
	t.name = fmt.Sprintf("%s#%d", name, len(c.traces))
	c.traces = append(c.traces, t)
	c.mu.Unlock()
	return t
}

// MergedEvent is an Event attributed to its handle.
type MergedEvent struct {
	Handle string
	Event
}

// Merged returns the last (up to) tail events of every trace, merged
// into one sequence ordered by Seq. tail <= 0 means the full rings.
func (c *Collector) Merged(tail int) []MergedEvent {
	c.mu.Lock()
	traces := make([]*Trace, len(c.traces))
	copy(traces, c.traces)
	c.mu.Unlock()

	var out []MergedEvent
	for _, t := range traces {
		n := t.pos.Load()
		size := uint64(len(t.buf))
		avail := n
		if avail > size {
			avail = size
		}
		if tail > 0 && avail > uint64(tail) {
			avail = uint64(tail)
		}
		for i := n - avail; i < n; i++ {
			out = append(out, MergedEvent{Handle: t.name, Event: t.buf[i%size]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FormatTail renders the merged tail as one line per event, for
// embedding in failure messages.
func (c *Collector) FormatTail(tail int) []string {
	merged := c.Merged(tail)
	lines := make([]string, len(merged))
	for i, e := range merged {
		lines[i] = fmt.Sprintf("seq=%-6d t=%-12s %-10s %-17s arg=%d",
			e.Seq, time.Duration(e.Nanos).String(), e.Handle, e.Kind.String(), e.Arg)
	}
	return lines
}

// String renders FormatTail as a single block.
func (c *Collector) String() string {
	return strings.Join(c.FormatTail(0), "\n")
}

// SetRun registers the stats of the measurement currently in flight; the
// exporter and the -watch ticker read it via Run.
func (c *Collector) SetRun(label string, rec *stats.Reclamation) {
	c.runMu.Lock()
	c.runLabel = label
	c.runStats = rec
	c.runMu.Unlock()
}

// Run returns the currently registered run, or ("", nil) when none is.
func (c *Collector) Run() (string, *stats.Reclamation) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	return c.runLabel, c.runStats
}

// On gates every instrumentation point. Hot paths read it as a single
// predictable branch; see the package comment for when it may change.
var On bool

var active *Collector

// Activate installs c and opens the gate. It must not run while any
// goroutine is inside an instrumented region.
func Activate(c *Collector) {
	active = c
	On = c != nil
}

// Deactivate closes the gate. Same contract as Activate.
func Deactivate() {
	On = false
	active = nil
}

// Active returns the installed collector (nil when the gate is closed).
func Active() *Collector { return active }

// NewTrace registers a ring buffer with the active collector, or returns
// nil (a valid, dropping Trace) when the gate is closed. Instrumented
// packages call it at handle registration.
func NewTrace(name string) *Trace {
	if c := active; c != nil {
		return c.NewTrace(name)
	}
	return nil
}

// SetRun forwards to the active collector's SetRun; no-op when the gate
// is closed.
func SetRun(label string, rec *stats.Reclamation) {
	if c := active; c != nil {
		c.SetRun(label, rec)
	}
}

// Nanos is the timestamp instrumented code stamps durations with.
func Nanos() int64 { return time.Now().UnixNano() }
