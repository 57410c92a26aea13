package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// The host probe: a loopback echo service owned by the benchmark, timed
// in short slices between a run's repeats. It touches no code of the
// repository, so a later change cannot move it; what moves it is the
// host. On the authoring host (a 2-vCPU microVM with neighbours)
// everything memory-bound — a DRAM pointer chase, an L3 one, a private
// hash table, this echo, and all four workloads — slows and recovers
// together by 15-35% in stretches of minutes, and of the kernels tried
// the echo's mean round trip tracked all four workloads best (r = 0.9
// over 40 s windows; see README.md, Steadiness). Timings are therefore
// reported at the probe's nominal speed: rates ÷ hostScale, times ×
// hostScale.

// probeNominalNS is the round trip reported timings are scaled to: the
// authoring host in its fast state. It is a unit, not a claim; changing
// it rescales every run alike.
const probeNominalNS = 12_000

// probeExponent is how much of the probe's slowdown the workloads share.
// The echo is more sensitive to the host than they are (log-log slopes of
// throughput on round trip were 0.4-1.0 over five 10-15 minute
// recordings) and has some 10% of run-to-run noise of its own. Over the
// recordings and five ten-seed sweeps 0.75 kept both the spread inside a
// sweep and the drift of medians between sweeps smallest: at 1 a calm
// sweep's spread doubles, at 0.5 half of a regime stays in the medians.
const probeExponent = 0.75

// hostScale is the factor a repeat's raw rates are divided by and its
// raw times multiplied by.
func (r repeat) hostScale() float64 { return math.Pow(r.hostSpeed, probeExponent) }

// probeShare of a repeat's measured time is spent in each probe slice.
const probeShare = 0.15

type hostProbe struct {
	ln      net.Listener
	conns   [workers]net.Conn
	servers sync.WaitGroup
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &hostProbe{ln: ln}
	for w := range p.conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			p.close()
			return nil, fmt.Errorf("host probe: %w", err)
		}
		p.conns[w] = c
		sc, err := ln.Accept()
		if err != nil {
			p.close()
			return nil, fmt.Errorf("host probe: %w", err)
		}
		p.servers.Add(1)
		go func() { // echo until the client side closes
			defer p.servers.Done()
			defer sc.Close()
			buf := make([]byte, 64)
			for {
				n, err := sc.Read(buf)
				if err != nil {
					return
				}
				if _, err := sc.Write(buf[:n]); err != nil {
					return
				}
			}
		}()
	}
	return p, nil
}

// run ping-pongs one request-sized line on every connection for d and
// returns the mean round trip in nanoseconds. The plain mean on purpose:
// a mean without the slowest 1% of round trips tracked the workloads
// worse (README.md, Steadiness).
func (p *hostProbe) run(d time.Duration) (float64, error) {
	var (
		wg     sync.WaitGroup
		trips  [workers]int64
		spent  [workers]int64
		failed [workers]error
	)
	for w, c := range p.conns {
		wg.Add(1)
		go func(w int, c net.Conn) {
			defer wg.Done()
			msg := []byte("GET 1234\r\n")
			buf := make([]byte, len(msg))
			c.SetDeadline(time.Now().Add(d + stallLimit))
			t0 := nowNS()
			for nowNS()-t0 < int64(d) {
				if _, err := c.Write(msg); err != nil {
					failed[w] = err
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					failed[w] = err
					return
				}
				trips[w]++
			}
			spent[w] = nowNS() - t0
		}(w, c)
	}
	wg.Wait()
	var n, ns int64
	for w := range trips {
		if failed[w] != nil {
			return 0, fmt.Errorf("host probe: %w", failed[w])
		}
		n += trips[w]
		ns += spent[w]
	}
	if n == 0 {
		return 0, fmt.Errorf("host probe: no round trip completed in %v", d)
	}
	return float64(ns) / float64(n), nil
}

func (p *hostProbe) close() {
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	p.ln.Close()
	p.servers.Wait()
}
