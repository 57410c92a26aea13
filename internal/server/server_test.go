package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/fault"
)

// startServer builds a map, a server and a listener on an ephemeral
// port. The server owns the map: Shutdown closes it, and the test's
// cleanup asserts the drain left balanced books.
func startServer(t *testing.T, mcfg hpbrcu.Config, scfg Config) (*Server, hpbrcu.Map, string) {
	t.Helper()
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 64, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Map = m
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, m, addr.String()
}

// shutdown drains the server and asserts the books balanced.
func shutdown(t *testing.T, s *Server, m hpbrcu.Map) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if snap := m.Stats().Snapshot(); snap.Unreclaimed != 0 {
		t.Fatalf("drain left %d unreclaimed nodes", snap.Unreclaimed)
	}
}

// tclient is a minimal protocol client for tests.
type tclient struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialT(t *testing.T, addr string) *tclient {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &tclient{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// cmd sends one request and returns the reply head plus any multi-line
// rows.
func (c *tclient) cmd(line string) (head string, rows []string, err error) {
	c.nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err = c.nc.Write([]byte(line + "\r\n")); err != nil {
		return "", nil, err
	}
	head, err = c.readLine()
	if err != nil {
		return "", nil, err
	}
	if strings.HasPrefix(head, "*") {
		n := 0
		for _, d := range head[1:] {
			n = n*10 + int(d-'0')
		}
		for i := 0; i < n; i++ {
			row, rerr := c.readLine()
			if rerr != nil {
				return head, rows, rerr
			}
			rows = append(rows, strings.TrimPrefix(row, "+"))
		}
	}
	return head, rows, nil
}

func (c *tclient) readLine() (string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// must sends a request and fails the test unless the reply head matches.
func (c *tclient) must(line, want string) []string {
	c.t.Helper()
	head, rows, err := c.cmd(line)
	if err != nil {
		c.t.Fatalf("%s: %v", line, err)
	}
	if head != want {
		c.t.Fatalf("%s: got %q, want %q", line, head, want)
	}
	return rows
}

// statRow extracts "name=..." from STATS output.
func statRow(rows []string, name string) string {
	for _, r := range rows {
		if strings.HasPrefix(r, name+"=") {
			return strings.TrimPrefix(r, name+"=")
		}
	}
	return ""
}

// TestServerBasicOps round-trips every command of the protocol.
func TestServerBasicOps(t *testing.T) {
	s, m, addr := startServer(t, hpbrcu.Config{}, Config{})
	c := dialT(t, addr)

	c.must("PING", "+PONG")
	c.must("GET 1", "$-1")
	c.must("SET 1 42", "+OK")
	c.must("GET 1", ":42")
	c.must("SET 1 43", "+OK") // upsert replaces
	c.must("GET 1", ":43")
	c.must("SET 2 7", "+OK")
	rows := c.must("SCAN 1 10", "*2")
	if rows[0] != "1=43" || rows[1] != "2=7" {
		t.Fatalf("SCAN rows = %v", rows)
	}
	c.must("DEL 1", ":1")
	c.must("DEL 1", ":0")
	c.must("GET 1", "$-1")

	if head, _, _ := c.cmd("GET notanumber"); !strings.HasPrefix(head, "-ERR") {
		t.Fatalf("bad argument: got %q, want -ERR", head)
	}
	if head, _, _ := c.cmd("FROB 1"); !strings.HasPrefix(head, "-ERR") {
		t.Fatalf("unknown command: got %q, want -ERR", head)
	}

	srows := c.must("STATS", "*18")
	if got := statRow(srows, "accepted_conns"); got != "1" {
		t.Fatalf("accepted_conns = %q, want 1", got)
	}
	if got := statRow(srows, "pressure"); got != "ok" {
		t.Fatalf("pressure = %q, want ok", got)
	}
	c.must("QUIT", "+BYE")
	shutdown(t, s, m)
}

// TestServerDegradationLadder drives the two rungs deterministically
// by forcing the unreclaimed gauge against an absolute ceiling of 100
// (drain at 50, throttle at 75, reject at 90 with the default
// fractions), which is exactly how the ladder reads pressure in
// production — no sleeps, no reclamation races. The reject tier refuses
// writes and closes no connection.
func TestServerDegradationLadder(t *testing.T) {
	s, m, addr := startServer(t,
		hpbrcu.Config{Backpressure: hpbrcu.BackpressureConfig{Enabled: true, Ceiling: 100}},
		Config{},
	)
	gauge := &m.Stats().Unreclaimed
	c := dialT(t, addr)
	c.must("SET 1 10", "+OK")

	// Rung 1: drain tier sheds scans, reads and writes still work.
	gauge.Add(60)
	if head, _, _ := c.cmd("SCAN 1 10"); !strings.HasPrefix(head, "-BUSY retry-after=") {
		t.Fatalf("scan at drain tier: got %q, want -BUSY", head)
	}
	c.must("GET 1", ":10")
	c.must("SET 2 20", "+OK")
	if got := m.Stats().ShedScans.Load(); got < 1 {
		t.Fatalf("ShedScans = %d, want >= 1", got)
	}

	// Rung 2 (reactive): at the reject tier TryInsert fails with
	// ErrMemoryPressure, which the server maps to -BUSY; DEL is refused
	// proactively. Reads keep working — the ladder never sheds GETs.
	gauge.Add(40) // 100 >= reject threshold 90
	if head, _, _ := c.cmd("SET 3 30"); !strings.HasPrefix(head, "-BUSY") {
		t.Fatalf("set at reject tier: got %q, want -BUSY", head)
	}
	if head, _, _ := c.cmd("DEL 1"); !strings.HasPrefix(head, "-BUSY") {
		t.Fatalf("del at reject tier: got %q, want -BUSY", head)
	}
	c.must("GET 1", ":10")
	if got := m.Stats().RejectedWrites.Load(); got < 2 {
		t.Fatalf("RejectedWrites = %d, want >= 2", got)
	}
	if got := m.Stats().BackpressureRejects.Load(); got < 1 {
		t.Fatalf("BackpressureRejects = %d, want >= 1", got)
	}

	// The reject tier holds writes off and nothing more: connections
	// opened under it, and the one that saw it engage, stay open and
	// served for as long as it lasts.
	extra := make([]*tclient, 3)
	for i := range extra {
		extra[i] = dialT(t, addr)
		extra[i].must("PING", "+PONG")
	}
	for _, e := range append(extra, c) {
		e.must("PING", "+PONG")
		e.must("GET 1", ":10")
	}
	if got := m.Stats().ClosedByLadder.Load(); got != 0 {
		t.Fatalf("ClosedByLadder = %d at the reject tier, want 0", got)
	}

	// Pressure recedes: the ladder disengages completely.
	gauge.Add(-100)
	c.must("SET 3 30", "+OK")
	c.must("SCAN 1 10", "*3")
	shutdown(t, s, m)
}

// TestServerBusyOnTinyCeiling reproduces the CI smoke scenario in-process:
// a tiny absolute ceiling plus write churn forces real -BUSY replies
// through the backpressure ladder (no gauge forcing), and the final
// STATS shows non-zero rejects.
func TestServerBusyOnTinyCeiling(t *testing.T) {
	s, m, addr := startServer(t,
		hpbrcu.Config{Backpressure: hpbrcu.BackpressureConfig{
			Enabled: true, Ceiling: 16,
			// Inline emergency drains off (threshold above the ceiling), so
			// churn garbage genuinely accumulates into the reject tier.
			DrainFraction: 2,
		}},
		Config{},
	)
	c := dialT(t, addr)
	busy := 0
	for i := 0; i < 3000 && busy == 0; i++ {
		k := int64(i % 8)
		if head, _, err := c.cmd(sprintfSET(k, int64(i))); err != nil {
			t.Fatal(err)
		} else if strings.HasPrefix(head, "-BUSY") {
			busy++
			break
		}
		if head, _, err := c.cmd(sprintfDEL(k)); err != nil {
			t.Fatal(err)
		} else if strings.HasPrefix(head, "-BUSY") {
			busy++
			break
		}
	}
	if busy == 0 {
		t.Fatal("no -BUSY observed under a 16-node ceiling and 3000 write ops")
	}
	rows := c.must("STATS", "*18")
	rejects := statRow(rows, "rejected_writes")
	if rejects == "" || rejects == "0" {
		t.Fatalf("rejected_writes = %q, want non-zero", rejects)
	}
	shutdown(t, s, m)
}

func sprintfSET(k, v int64) string { return fmt.Sprintf("SET %d %d", k, v) }

func sprintfDEL(k int64) string { return fmt.Sprintf("DEL %d", k) }

// TestServerPanicContainment injects a panic into a critical section
// under PanicRethrow, so it unwinds through the facade into the
// connection handler. The per-connection recover barrier must contain
// it: that connection dies, the server and every other connection keep
// working, and the next drain still balances the books.
//
// The fault gate's quiescence contract (no toggling while instrumented
// code runs) is honoured by activating before the server starts and
// deactivating after the drain has joined every goroutine; the huge
// cooldown makes exactly the first critical-section arrival — the
// victim's GET — fire, leaving later traffic exempt.
func TestServerPanicContainment(t *testing.T) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 64, hpbrcu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Prefill through the facade before the gate opens, so the victim's
	// GET has a non-trivial traversal to panic in.
	if _, err := m.Insert(1, 11); err != nil {
		t.Fatal(err)
	}

	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePanic] = fault.Plan{Period: 1, Cooldown: 1 << 40}
	fault.Activate(fault.New(fault.Config{Seed: 1, Plans: plans}))
	defer fault.Deactivate()

	s, err := New(Config{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	victim := dialT(t, addr.String())
	head, _, verr := victim.cmd("GET 1")
	// The victim sees either a best-effort -ERR or a bare disconnect,
	// depending on where the unwind won the race with the reply write.
	if verr == nil && !strings.HasPrefix(head, "-ERR") {
		t.Fatalf("victim got %q, want -ERR or disconnect", head)
	}
	if got := s.ConnPanics(); got != 1 {
		t.Fatalf("ConnPanics = %d, want 1", got)
	}

	// The poisoned connection is gone; the server still serves others
	// (the cooldown exempts these arrivals).
	healthy := dialT(t, addr.String())
	healthy.must("GET 1", ":11")
	healthy.must("SET 2 22", "+OK")
	shutdown(t, s, m)
}

// TestServerShutdownUnderLoad drains while clients are mid-storm:
// Shutdown must stop accepts, let in-flight replies flush, close the
// map to balanced books, and leave no goroutines behind.
func TestServerShutdownUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	s, m, addr := startServer(t, hpbrcu.Config{}, Config{})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			br := bufio.NewReader(c)
			k := seed
			for !stop.Load() {
				c.SetDeadline(time.Now().Add(time.Second))
				if _, err := c.Write([]byte(sprintfSET(k%64, k) + "\r\n")); err != nil {
					return
				}
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
				k++
			}
		}(int64(i) * 1000)
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	if snap := m.Stats().Snapshot(); snap.Unreclaimed != 0 {
		t.Fatalf("drain left %d unreclaimed", snap.Unreclaimed)
	}
	if snap := m.Stats().Snapshot(); snap.DrainNanos <= 0 {
		t.Fatal("DrainNanos not recorded")
	}
	// Accepts are refused after drain.
	if nc, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		nc.Close()
		t.Fatal("dial succeeded after Shutdown")
	}
	// Second Shutdown reports ErrClosed.
	if err := s.Shutdown(context.Background()); !errors.Is(err, hpbrcu.ErrClosed) {
		t.Fatalf("second Shutdown = %v, want ErrClosed", err)
	}

	// All server goroutines joined (accept loop, handlers).
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Fatalf("goroutines leaked: before=%d now=%d", before, now)
	}
}

// TestServerConnCap asserts over-capacity accepts are refused at the
// door with -BUSY and counted.
func TestServerConnCap(t *testing.T) {
	s, m, addr := startServer(t, hpbrcu.Config{}, Config{MaxConns: 2})
	a := dialT(t, addr)
	b := dialT(t, addr)
	a.must("PING", "+PONG")
	b.must("PING", "+PONG")

	over := dialT(t, addr)
	head, err := over.readLine()
	if err != nil {
		t.Fatalf("over-capacity conn: %v", err)
	}
	if !strings.HasPrefix(head, "-BUSY retry-after=") {
		t.Fatalf("over-capacity conn got %q, want -BUSY", head)
	}
	if got := m.Stats().ClosedByLadder.Load(); got != 1 {
		t.Fatalf("ClosedByLadder = %d, want 1", got)
	}
	shutdown(t, s, m)
}
