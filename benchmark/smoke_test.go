package main

import (
	"math"
	"net"
	"strconv"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// smokeRepeat is the measured time of the one repeat each workload gets
// here; the point is to build and exercise every path, not to measure.
const smokeRepeat = 200 * time.Millisecond

func checkMetrics(t *testing.T, what string, want []metricSpec, got result) {
	t.Helper()
	if len(got.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", what, len(got.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := got.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is declared in BENCHMARK.json but was not emitted", what, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v is not finite", what, m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, want %q", what, m.Name, v.Unit, m.Unit)
		}
	}
	if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, got.Correct, got.Attempted, got.Failed)
	}
}

// TestSmoke runs all four workloads and the ledger at 1 repeat × 200 ms
// and checks that every metric BENCHMARK.json names comes out once, with
// a finite value, and that nothing failed.
func TestSmoke(t *testing.T) {
	if err := checkEnvironment(); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, wl.Name, workloadNames[i])
		}
	}
	const seed = 11
	for _, wl := range workloadNames {
		res, err := runEndToEnd(spec, wl, seed, smokeRepeat.Seconds(), 1)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		checkMetrics(t, wl+" end to end", spec.EndToEnd, res)
		if ok := res.Metrics["ok_frac"].Value; ok != 1 {
			t.Errorf("%s: ok_frac = %v, want 1", wl, ok)
		}
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0; the contract wants metrics that never are", wl, m.Name)
			}
		}
	}
	led, err := runLedger(seed, smokeRepeat, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		res, err := runTracedWorkload(spec, wl, seed, smokeRepeat, led, nil)
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		checkMetrics(t, wl+" per layer", spec.PerLayer, res)
		for _, must0 := range []string{"facade.exhausted", "reap.throttles", "reap.rejects", "server.busy_replies", "server.err_replies"} {
			if v := res.Metrics[must0].Value; v != 0 {
				t.Errorf("%s: %s = %v in a healthy run, want 0", wl, must0, v)
			}
		}
	}
}

// TestScheduleDeterminism: the same seed must give byte-identical op
// schedules, a different seed must not.
func TestScheduleDeterminism(t *testing.T) {
	for _, wl := range workloadNames {
		a, b, c := newSchedule(wl, 42).hash(), newSchedule(wl, 42).hash(), newSchedule(wl, 43).hash()
		if a != b {
			t.Errorf("%s: seed 42 hashed to %x and then %x", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 43 hash alike (%x)", wl, a)
		}
	}
}

// stuckInst makes progress on worker 0 and blocks worker 1 until abort.
type stuckInst struct{ unblock chan struct{} }

func (s *stuckInst) run(w int, ph *phase, wk *worker) {
	if w == 1 {
		<-s.unblock
		return
	}
	for !ph.stop.Load() {
		wk.attempted++
		wk.progress.Store(wk.attempted)
		time.Sleep(time.Millisecond)
	}
}
func (s *stuckInst) abort()            { close(s.unblock) }
func (s *stuckInst) close() error      { return nil }
func (s *stuckInst) store() hpbrcu.Map { return nil }

// TestWatchdogAbortsStalledWorker: a worker whose op counter stands
// still past stallLimit fails the phase instead of hanging it.
func TestWatchdogAbortsStalledWorker(t *testing.T) {
	defer func(old time.Duration) { stallLimit = old }(stallLimit)
	stallLimit = 300 * time.Millisecond
	start := time.Now()
	err := runPhase(&stuckInst{unblock: make(chan struct{})}, time.Minute, nil, newLatBufs().wks)
	if err != errStalled {
		t.Fatalf("runPhase = %v, want errStalled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("the watchdog took %v to give up", took)
	}
}

// TestReadReply feeds the client parser each reply shape of the line
// protocol.
func TestReadReply(t *testing.T) {
	const key = 40
	v := func(k int64) string { return strconv.FormatInt(valueOf(k), 10) }
	cases := []struct {
		name  string
		verb  uint8
		reply string
		want  replyKind
	}{
		{"get hit", verbGet, ":" + v(key) + "\r\n", replyOK},
		{"get miss", verbGet, "$-1\r\n", replyOK},
		{"get wrong value", verbGet, ":7\r\n", replyWrong},
		{"set ok", verbSet, "+OK\r\n", replyOK},
		{"del hit", verbDel, ":1\r\n", replyOK},
		{"del count out of range", verbDel, ":2\r\n", replyWrong},
		{"busy", verbSet, "-BUSY retry-after=10\r\n", replyBusy},
		{"err", verbGet, "-ERR closed\r\n", replyErr},
		{"scan rows", verbScan, "*2\r\n+40=" + v(40) + "\r\n+55=" + v(55) + "\r\n", replyOK},
		{"scan empty", verbScan, "*0\r\n", replyOK},
		{"scan key outside window", verbScan, "*1\r\n+56=" + v(56) + "\r\n", replyWrong},
		{"scan wrong value", verbScan, "*1\r\n+41=3\r\n", replyWrong},
		{"multi-row for a get", verbGet, "*1\r\n+40=" + v(40) + "\r\n", replyWrong},
	}
	for _, tc := range cases {
		client, srv := net.Pipe()
		go func() {
			srv.Write([]byte(tc.reply + "+NEXT\r\n"))
			srv.Close()
		}()
		c := &lineConn{nc: client, buf: make([]byte, 4096)}
		got, err := c.readReply(tc.verb, key)
		if err != nil || got != tc.want {
			t.Errorf("%s: readReply = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		// The whole reply, and nothing more, must have been consumed.
		if next, err := c.readLine(); err != nil || string(next) != "+NEXT" {
			t.Errorf("%s: after the reply the stream reads %q, %v", tc.name, next, err)
		}
		client.Close()
	}
}
