package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark owns its clients. internal/server/loadgen paces arrivals
// with one time.Sleep each, which on this class of host reports a 590 µs
// p50 for a 12 µs round trip; nothing here reuses it.

// replyKind classifies one complete reply.
type replyKind int

const (
	replyOK    replyKind = iota // well-formed and the value checks out
	replyBusy                   // -BUSY: load shed
	replyErr                    // -ERR
	replyWrong                  // well-formed but not what the request allows
)

// lineConn is a line-protocol client connection with an allocation-free
// reader: lines are returned as slices of its buffer.
type lineConn struct {
	nc   net.Conn
	buf  []byte
	r, w int
}

func dialLine(addr string) (*lineConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &lineConn{nc: nc, buf: make([]byte, 16<<10)}, nil
}

// readLine returns the next line without its CRLF. The slice is valid
// until the next call.
func (c *lineConn) readLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(c.buf[c.r:c.w], '\n'); i >= 0 {
			line := c.buf[c.r : c.r+i]
			c.r += i + 1
			return bytes.TrimSuffix(line, []byte{'\r'}), nil
		}
		if c.r > 0 {
			copy(c.buf, c.buf[c.r:c.w])
			c.w -= c.r
			c.r = 0
		}
		if c.w == len(c.buf) {
			return nil, errors.New("reply line too long")
		}
		n, err := c.nc.Read(c.buf[c.w:])
		c.w += n
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// atoi parses a decimal int64 without allocating; ok is false on any
// non-digit.
func atoi(b []byte) (v int64, ok bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		v = v*10 + int64(ch-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// readReply consumes one complete reply (all rows of a multi-row one)
// and checks it against what the request permits: GET → $-1 or
// :valueOf(key); SET → +OK; DEL → :0 or :1; SCAN k n → *m (m ≤ n) rows
// +k'=valueOf(k') with k ≤ k' < k+n.
func (c *lineConn) readReply(verb uint8, key int64) (replyKind, error) {
	line, err := c.readLine()
	if err != nil {
		return replyWrong, err
	}
	if len(line) == 0 {
		return replyWrong, nil
	}
	switch line[0] {
	case '-':
		if bytes.HasPrefix(line, []byte("-BUSY")) {
			return replyBusy, nil
		}
		return replyErr, nil
	case ':':
		v, ok := atoi(line[1:])
		switch {
		case !ok:
			return replyWrong, nil
		case verb == verbGet && v == valueOf(key):
			return replyOK, nil
		case verb == verbDel && (v == 0 || v == 1):
			return replyOK, nil
		}
		return replyWrong, nil
	case '$':
		if verb == verbGet && string(line) == "$-1" {
			return replyOK, nil
		}
		return replyWrong, nil
	case '+':
		if verb == verbSet && string(line) == "+OK" {
			return replyOK, nil
		}
		return replyWrong, nil
	case '*':
		rows, ok := atoi(line[1:])
		if !ok || rows < 0 {
			return replyWrong, nil
		}
		kind := replyOK
		if verb != verbScan || rows > scanRows {
			kind = replyWrong
		}
		for i := int64(0); i < rows; i++ {
			row, err := c.readLine()
			if err != nil {
				return replyWrong, err
			}
			eq := bytes.IndexByte(row, '=')
			if len(row) == 0 || row[0] != '+' || eq < 0 {
				kind = replyWrong
				continue
			}
			k, ok1 := atoi(row[1:eq])
			v, ok2 := atoi(row[eq+1:])
			if !ok1 || !ok2 || k < key || k >= key+scanRows || v != valueOf(k) {
				kind = replyWrong
			}
		}
		return kind, nil
	}
	return replyWrong, nil
}

// ---------------------------------------------------------------------
// Open-loop generator (diagnostic only).

// openLoopResult is what one paced pass observed.
type openLoopResult struct {
	latUS   []float64 // reply time − due time, per completed request
	lateUS  []float64 // send time − due time, per sent request
	dropped int64     // skipped because the sender fell > maxBehind behind, or never answered
	failed  int64     // -BUSY, -ERR or wrong replies
}

// maxBehind is how far behind schedule a sender may run before it skips
// arrivals instead of sending them in a burst.
const maxBehind = 100 * time.Millisecond

// runOpenLoop offers ratePerConn requests per second on each of the
// service's connections for d, following each connection's pre-built
// schedule. A sender sleeps until shortly before the due time and then
// yields-and-spins up to it; a separate reader per connection matches
// replies (which arrive in order) to their due times, so latency counts
// the wait a stall imposes on later requests.
func runOpenLoop(addr string, sched *schedule, ratePerConn int, d time.Duration) (openLoopResult, error) {
	interval := time.Second / time.Duration(ratePerConn)
	n := int(d / interval)
	type sent struct {
		due  time.Time
		verb uint8
		key  int32
	}
	var (
		mu  sync.Mutex
		res openLoopResult
		wg  sync.WaitGroup
	)
	conns := make([]*lineConn, workers)
	for w := range conns {
		c, err := dialLine(addr)
		if err != nil {
			for _, open := range conns[:w] {
				open.nc.Close()
			}
			return res, err
		}
		conns[w] = c
	}
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < workers; w++ {
		c := conns[w]
		// Sized to the whole pass so the sender never blocks on the reader.
		inflight := make(chan sent, n)
		wg.Add(2)
		go func(w int) { // sender
			defer wg.Done()
			defer close(inflight)
			var late []float64
			var dropped int64
			for i := 0; i < n; i++ {
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 200*time.Microsecond {
					time.Sleep(wait - 100*time.Microsecond)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				behind := time.Since(due)
				if behind > maxBehind {
					dropped++
					continue
				}
				j := i % serviceSchedLen
				req := sched.reqs[w][sched.off[w][j]:sched.off[w][j+1]]
				c.nc.SetWriteDeadline(time.Now().Add(stallLimit))
				if _, err := c.nc.Write(req); err != nil {
					dropped += int64(n - i)
					break
				}
				late = append(late, float64(behind)/1e3)
				inflight <- sent{due: due, verb: sched.verb[w][j], key: sched.key[w][j]}
			}
			mu.Lock()
			res.lateUS = append(res.lateUS, late...)
			res.dropped += dropped
			mu.Unlock()
		}(w)
		go func() { // reader
			defer wg.Done()
			var lat []float64
			var failed, dropped int64
			for s := range inflight {
				c.nc.SetReadDeadline(time.Now().Add(stallLimit))
				kind, err := c.readReply(s.verb, int64(s.key))
				if err != nil {
					dropped++
					for range inflight {
						dropped++
					}
					break
				}
				if kind != replyOK {
					failed++
				}
				lat = append(lat, float64(time.Since(s.due))/1e3)
			}
			mu.Lock()
			res.latUS = append(res.latUS, lat...)
			res.failed += failed
			res.dropped += dropped
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, c := range conns {
		c.nc.Close()
	}
	sort.Float64s(res.latUS)
	sort.Float64s(res.lateUS)
	return res, nil
}
