// Package server is smrcached: a TCP cache service over the handle-free
// facade of the hpbrcu package, built to demonstrate end-to-end graceful
// degradation under overload. The library's two fail-fast load-shed
// surfaces — ErrMemoryPressure from the tiered backpressure ladder and
// ErrHandleExhausted from the facade's handle pool — plus the read-only
// pressure rung (hpbrcu.Pressure) drive a two-rung degradation ladder:
//
//	rung 1 (PressureDrain): shed optional work — SCAN gets -BUSY;
//	rung 2:                 reject writes with -BUSY. Reactive by
//	                        design: SET runs through TryInsert's
//	                        admission gate and the gate's verdict
//	                        (throttle backoff, then ErrMemoryPressure)
//	                        is mapped onto the wire; DEL, which has no
//	                        gate, is refused proactively at the reject
//	                        tier.
//
// The ladder closes no connection: at the reject tier every write is
// already refused, and a connection holds no handle and no garbage between
// requests, so closing one frees nothing the map is short of.
//
// Any facade error that hpbrcu.IsLoadShed recognizes — including
// ErrHandleExhausted from the handle pool — turns into the same
// retryable -BUSY reply, so every shed path speaks one protocol.
//
// Robustness properties, each covered by a test in this package:
//
//   - per-connection panic containment: the map runs under PanicRecover
//     and each connection handler carries its own recover barrier, so a
//     poisoned request kills at most its own connection;
//   - bounded resources: per-request read/write deadlines, a connection
//     cap, and an in-flight admission gate — a wedged or slow peer
//     cannot pin a handler forever;
//   - graceful drain: Shutdown stops accepting, unblocks reads so every
//     handler finishes (in-flight replies still flush), then closes the
//     map to balanced books via hpbrcu.Close, all under one deadline.
//
// DESIGN.md §14 walks through the architecture.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// Config parameterizes a Server. The zero value of every field except
// Map selects a sensible default.
type Config struct {
	// Map is the cache store. Required. The server owns its lifecycle
	// from Serve on: Shutdown closes it to balanced books.
	Map hpbrcu.Map
	// MaxConns caps concurrently served connections; accepts past the
	// cap are answered -BUSY and closed at the door. Default 256.
	MaxConns int
	// MaxInflight caps requests executing concurrently across all
	// connections; requests over the cap get -BUSY without touching the
	// map. Default 128.
	MaxInflight int
	// ReadTimeout bounds waiting for the next request line on an idle
	// connection. Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one reply. Default 5s.
	WriteTimeout time.Duration
	// RetryAfter is the delay advertised in -BUSY replies. Default 10ms.
	RetryAfter time.Duration
	// ScanLimit caps the row count of one SCAN. Default 128.
	ScanLimit int
	// Logf, when non-nil, receives diagnostic lines (accept errors,
	// contained panics).
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() error {
	if c.Map == nil {
		return errors.New("server: Config.Map is required")
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 10 * time.Millisecond
	}
	if c.ScanLimit <= 0 {
		c.ScanLimit = 128
	}
	return nil
}

// Server is one smrcached instance. Create with New, start with Listen
// (or Serve on an existing listener), stop with Shutdown.
type Server struct {
	cfg Config
	m   hpbrcu.Map
	rec *hpbrcu.Stats

	ln       net.Listener
	mu       sync.Mutex
	conns    map[uint64]*conn
	seq      atomic.Uint64
	inflight atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup

	acceptDone chan struct{}

	// connPanics counts panics contained by the per-connection recover
	// barrier. Deliberately NOT stats.PanicsRecovered: that counter
	// belongs to the library's in-critical-section recover barrier and
	// the chaos harness asserts it equals the injected-panic fire count.
	connPanics atomic.Int64
	// inflightRejects counts requests refused by the admission gate.
	inflightRejects atomic.Int64

	acceptTrace *obs.Trace
}

// conn is one accepted connection. Its handler goroutine owns nc's read
// side and the trace.
type conn struct {
	id    uint64
	nc    net.Conn
	trace *obs.Trace
}

// New validates cfg and builds a server.
func New(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		m:          cfg.Map,
		rec:        cfg.Map.Stats(),
		conns:      make(map[uint64]*conn),
		acceptDone: make(chan struct{}),
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving on it in
// background goroutines; it returns the resolved address immediately.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve starts the accept loop on ln and returns immediately. The server
// owns ln from here on.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	if obs.On {
		s.acceptTrace = obs.NewTrace("srv-accept")
	}
	go s.acceptLoop()
}

// acceptLoop admits connections up to MaxConns; over-capacity accepts
// are turned away at the door with the same retryable -BUSY the ladder
// uses, so a thundering herd degrades into polite retries instead of a
// connection pile-up.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed (Shutdown) or a transient accept error; the
			// loop only ends on close.
			if s.draining.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.logf("server: accept: %v", err)
			return
		}
		s.mu.Lock()
		live := len(s.conns)
		if live >= s.cfg.MaxConns || s.draining.Load() {
			s.mu.Unlock()
			s.rec.ClosedByLadder.Inc()
			if obs.On {
				s.acceptTrace.Rec(obs.EvShed, 3)
			}
			nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			fmt.Fprint(nc, replyBusy(s.cfg.RetryAfter))
			nc.Close()
			continue
		}
		id := s.seq.Add(1)
		c := &conn{id: id, nc: nc, trace: obs.NewTrace("srv-conn")}
		s.conns[id] = c
		s.wg.Add(1)
		s.mu.Unlock()
		s.rec.AcceptedConns.Inc()
		if obs.On {
			s.acceptTrace.Rec(obs.EvAccept, int64(id))
		}
		go s.serveConn(c)
	}
}

// serveConn runs one connection's request loop under the per-connection
// recover barrier. A panic that escapes a request (a poisoned handle
// surfacing, a protocol-handler bug) is contained here: counted, a
// best-effort -ERR sent, and only this connection torn down.
func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.connPanics.Add(1)
			s.logf("server: conn %d: contained panic: %v", c.id, r)
			c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			fmt.Fprint(c.nc, replyErr("internal error"))
		}
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c.id)
		s.mu.Unlock()
		if obs.On {
			c.trace.Rec(obs.EvConnClose, int64(c.id))
		}
	}()

	br := newLineReader(c.nc)
	for {
		if s.draining.Load() {
			return
		}
		c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		if s.draining.Load() {
			// Shutdown's read-unblock ran between our two loads and this
			// deadline reset would have undone it; redo it.
			c.nc.SetReadDeadline(time.Now())
		}
		line, err := br.ReadLine()
		if err != nil {
			return
		}
		fault.FireDyn(fault.SiteNetRead)
		reply, quit := s.dispatch(c, line)
		c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		fault.FireDyn(fault.SiteNetWrite)
		if _, err := c.nc.Write([]byte(reply)); err != nil {
			return
		}
		if quit {
			return
		}
		if fault.FireDyn(fault.SiteNetDrop) {
			// Injected server-side disconnect: the peer sees a mid-stream
			// close after a complete reply, and this handler takes the
			// normal teardown path.
			return
		}
	}
}

// dispatch executes one request under the admission gate and the
// degradation ladder, returning the complete reply and whether the
// connection should close.
func (s *Server) dispatch(c *conn, line string) (reply string, quit bool) {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if n > int64(s.cfg.MaxInflight) {
		s.inflightRejects.Add(1)
		return replyBusy(s.cfg.RetryAfter), false
	}

	req, err := parseRequest(line)
	if err != nil {
		return replyErr(err.Error()), false
	}
	level := hpbrcu.Pressure(s.m)

	switch req.verb {
	case cmdPing:
		return replySimple("PONG"), false

	case cmdQuit:
		return replySimple("BYE"), true

	case cmdStats:
		return replyMulti(s.StatsLines()), false

	case cmdGet:
		key, aerr := req.int64Arg(0)
		if aerr != nil {
			return replyErr(aerr.Error()), false
		}
		v, ok, gerr := s.m.Get(key)
		if gerr != nil {
			return s.errReply(c, gerr)
		}
		if !ok {
			return replyNil(), false
		}
		return replyInt(v), false

	case cmdSet:
		// Rung 2 is reactive by design: the write goes through TryInsert's
		// backpressure admission gate, and the gate's own verdict
		// (throttle delay, or ErrMemoryPressure at the reject tier) is
		// mapped onto -BUSY by errReply. The server adds no second
		// admission policy the library already implements.
		key, aerr := req.int64Arg(0)
		if aerr != nil {
			return replyErr(aerr.Error()), false
		}
		val, aerr := req.int64Arg(1)
		if aerr != nil {
			return replyErr(aerr.Error()), false
		}
		if serr := s.upsert(key, val); serr != nil {
			return s.errReply(c, serr)
		}
		return replySimple("OK"), false

	case cmdDel:
		key, aerr := req.int64Arg(0)
		if aerr != nil {
			return replyErr(aerr.Error()), false
		}
		// Remove has no admission gate of its own (it only produces
		// garbage, never allocates), so deletes get a proactive rung-2
		// check at the reject tier — the one rung where a write would
		// certainly have been refused.
		if hpbrcu.Pressure(s.m) >= hpbrcu.PressureReject {
			s.rec.RejectedWrites.Inc()
			if obs.On {
				c.trace.Rec(obs.EvShed, 2)
			}
			return replyBusy(s.cfg.RetryAfter), false
		}
		_, ok, derr := s.m.Remove(key)
		if derr != nil {
			return s.errReply(c, derr)
		}
		if ok {
			return replyInt(1), false
		}
		return replyInt(0), false

	case cmdScan:
		if level >= hpbrcu.PressureDrain {
			// Rung 1: scans are the service's optional work — the first
			// thing to go when the drain tier engages.
			s.rec.ShedScans.Inc()
			if obs.On {
				c.trace.Rec(obs.EvShed, 1)
			}
			return replyBusy(s.cfg.RetryAfter), false
		}
		start, aerr := req.int64Arg(0)
		if aerr != nil {
			return replyErr(aerr.Error()), false
		}
		count, aerr := req.int64Arg(1)
		if aerr != nil {
			return replyErr(aerr.Error()), false
		}
		if count > int64(s.cfg.ScanLimit) {
			count = int64(s.cfg.ScanLimit)
		}
		rows := make([]string, 0, count)
		for k := start; k < start+count; k++ {
			v, ok, gerr := s.m.Get(k)
			if gerr != nil {
				return s.errReply(c, gerr)
			}
			if ok {
				rows = append(rows, fmt.Sprintf("%d=%d", k, v))
			}
		}
		return replyMulti(rows), false
	}
	return replyErr("unknown command " + req.verb), false
}

// upsert implements SET over the facade's insert-if-absent semantics:
// TryInsert (through the backpressure admission gate), and on
// key-present, Remove then re-insert. The remove/insert window is racy
// against concurrent SETs of the same key by design — last write wins,
// like any cache.
func (s *Server) upsert(key, val int64) error {
	for attempt := 0; attempt < 4; attempt++ {
		ok, err := s.m.TryInsert(key, val)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if _, _, err := s.m.Remove(key); err != nil {
			return err
		}
	}
	return errors.New("set: persistent insert conflict")
}

// errReply maps a facade error onto the wire: load-shed errors become
// the retryable -BUSY (counting write rejections the ladder caused
// reactively — rung 2), ErrClosed terminates the connection, anything
// else is a terminal -ERR.
func (s *Server) errReply(c *conn, err error) (reply string, quit bool) {
	if hpbrcu.IsLoadShed(err) {
		s.rec.RejectedWrites.Inc()
		if obs.On {
			c.trace.Rec(obs.EvShed, 2)
		}
		return replyBusy(s.cfg.RetryAfter), false
	}
	if errors.Is(err, hpbrcu.ErrClosed) {
		return replyErr("closed"), true
	}
	return replyErr(err.Error()), false
}

// StatsLines renders the service counters as "name=value" rows — the
// STATS reply, and the final dump smrcached prints after a drain.
func (s *Server) StatsLines() []string {
	snap := s.m.Stats().Snapshot()
	s.mu.Lock()
	live := len(s.conns)
	s.mu.Unlock()
	return []string{
		fmt.Sprintf("accepted_conns=%d", snap.AcceptedConns),
		fmt.Sprintf("live_conns=%d", live),
		fmt.Sprintf("pressure=%s", hpbrcu.Pressure(s.m)),
		fmt.Sprintf("shed_scans=%d", snap.ShedScans),
		fmt.Sprintf("rejected_writes=%d", snap.RejectedWrites),
		fmt.Sprintf("closed_by_ladder=%d", snap.ClosedByLadder),
		fmt.Sprintf("inflight_rejects=%d", s.inflightRejects.Load()),
		fmt.Sprintf("conn_panics=%d", s.connPanics.Load()),
		fmt.Sprintf("drain_nanos=%d", snap.DrainNanos),
		fmt.Sprintf("backpressure_rejects=%d", snap.BackpressureRejects),
		fmt.Sprintf("backpressure_throttles=%d", snap.BackpressureThrottles),
		fmt.Sprintf("pool_exhausted=%d", snap.PoolExhausted),
		fmt.Sprintf("retired=%d", snap.Retired),
		fmt.Sprintf("reclaimed=%d", snap.Reclaimed),
		fmt.Sprintf("unreclaimed=%d", snap.Unreclaimed),
	}
}

// ServiceStats is the Extra payload section smrcached contributes to
// the shared obs exporter: the counters that live on the server rather
// than the map's Reclamation.
func (s *Server) ServiceStats() map[string]any {
	s.mu.Lock()
	live := len(s.conns)
	s.mu.Unlock()
	return map[string]any{
		"LiveConns":       live,
		"Inflight":        s.inflight.Load(),
		"InflightRejects": s.inflightRejects.Load(),
		"ConnPanics":      s.connPanics.Load(),
		"Pressure":        hpbrcu.Pressure(s.m).String(),
	}
}

// ConnPanics returns how many per-connection panics the recover barrier
// contained.
func (s *Server) ConnPanics() int64 { return s.connPanics.Load() }

// Shutdown drains the server gracefully: stop accepting, unblock every
// handler's pending read (in-flight replies still flush), join the
// handlers, then close the map to balanced books. ctx bounds the whole
// drain; when it expires, remaining connections are force-closed and
// the map close gets a short grace so books still balance. Shutdown is
// idempotent; concurrent calls after the first return ErrClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return hpbrcu.ErrClosed
	}
	t0 := time.Now()
	s.mu.Lock()
	live := len(s.conns)
	for _, c := range s.conns {
		// Wake blocked reads; handlers notice draining and exit after
		// flushing whatever reply they are producing.
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if obs.On && s.acceptTrace != nil {
		s.acceptTrace.Rec(obs.EvDrainBegin, int64(live))
	}
	s.ln.Close()
	<-s.acceptDone

	handlers := make(chan struct{})
	go func() { s.wg.Wait(); close(handlers) }()
	forced := false
	select {
	case <-handlers:
	case <-ctx.Done():
		forced = true
		s.mu.Lock()
		for _, c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-handlers
	}

	// Close the map with whatever budget remains (or a short grace when
	// the deadline already passed — the books must still balance).
	budget := 2 * time.Second
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 50*time.Millisecond {
			budget = rem
		} else {
			budget = 50 * time.Millisecond
		}
	}
	err := hpbrcu.Close(s.m, budget)
	s.rec.DrainNanos.Add(time.Since(t0).Nanoseconds())
	if err != nil {
		return err
	}
	if forced {
		return ctx.Err()
	}
	return nil
}

// lineReader reads CRLF- or LF-terminated lines with a bounded line
// length, so a malicious peer cannot balloon server memory with one
// endless line.
type lineReader struct {
	nc  net.Conn
	buf []byte
	r   int
	w   int
}

const maxLineLen = 4096

func newLineReader(nc net.Conn) *lineReader {
	return &lineReader{nc: nc, buf: make([]byte, maxLineLen)}
}

// ReadLine returns the next line without its terminator. A line longer
// than maxLineLen is an error — the connection is torn down rather than
// resynchronized, because a peer that overflows the line length is not
// speaking the protocol.
func (l *lineReader) ReadLine() (string, error) {
	for {
		if i := bytes.IndexByte(l.buf[l.r:l.w], '\n'); i >= 0 {
			line := string(l.buf[l.r : l.r+i])
			l.r += i + 1
			line = strings.TrimSuffix(line, "\r")
			return line, nil
		}
		if l.r > 0 {
			copy(l.buf, l.buf[l.r:l.w])
			l.w -= l.r
			l.r = 0
		}
		if l.w == len(l.buf) {
			return "", errors.New("request line too long")
		}
		n, err := l.nc.Read(l.buf[l.w:])
		if n > 0 {
			l.w += n
			continue
		}
		if err != nil {
			return "", err
		}
	}
}
