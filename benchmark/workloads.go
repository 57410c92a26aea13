package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/server"
)

// epoch anchors the one monotonic clock every timing and span shares.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

const (
	// latBatch is how many sub-µs facade ops one latency sample covers: a
	// clock read costs a quarter of such an op, so the point workloads
	// time 64 ops per pair of reads and report batch latency.
	latBatch = 64
	// spanBatch is the ops one traced span covers on the point workloads
	// and ledger rungs.
	spanBatch = 4096
	// closeTimeout bounds the drain that must balance the books.
	closeTimeout = 5 * time.Second
	// maxLatSamples bounds one worker's latency log per repeat.
	maxLatSamples = 1 << 21
	// setupsPerRepeat instances are built (and all but the last closed
	// again) at the start of every repeat: set-up takes about a
	// millisecond, so one sample per repeat would make setup_s mostly
	// timer and allocator noise.
	setupsPerRepeat = 3
)

// stallLimit is how long a worker's op counter may stand still before
// the repeat is aborted as failed instead of hanging the pipeline. A
// variable only so the watchdog's own test need not wait five seconds.
var stallLimit = 5 * time.Second

// prodConfig is the production posture smrcached runs its store in.
func prodConfig() hpbrcu.Config {
	return hpbrcu.Config{
		PanicPolicy:  hpbrcu.PanicRecover,
		Reaper:       hpbrcu.ReaperConfig{Enabled: true},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true},
	}
}

// phase is one timed stretch (warm-up or measurement) of a repeat.
type phase struct {
	stop atomic.Bool
	tr   *tracer // nil when untraced
}

// worker is one goroutine's (or connection's) accounting for a phase.
type worker struct {
	// progress is republished after every batch; the stall watchdog
	// reads it from another goroutine.
	progress atomic.Int64
	_        [56]byte

	// Owner-local until the phase ends.
	ops        int64 // operations counted into ops_per_s
	writes     int64 // operations counted into writer_ops_per_s
	attempted  int64
	failed     int64
	busy       int64 // -BUSY replies (service only)
	errReplies int64 // -ERR replies (service only)
	startNS    int64
	endNS      int64
	lat        []uint32 // ns per sample
	latVerb    []uint8  // service only: the verb of each sample
	latDropped int64
}

func (wk *worker) sample(dt int64) {
	if len(wk.lat) == cap(wk.lat) {
		wk.latDropped++
		return
	}
	wk.lat = append(wk.lat, uint32(min(dt, math.MaxUint32)))
}

func (wk *worker) reset() {
	wk.progress.Store(0)
	wk.ops, wk.writes, wk.attempted, wk.failed, wk.busy, wk.errReplies = 0, 0, 0, 0, 0, 0
	wk.lat, wk.latVerb = wk.lat[:0], wk.latVerb[:0]
	wk.latDropped = 0
}

// instance is one freshly built system under test.
type instance interface {
	// run drives worker w until ph.stop is set.
	run(w int, ph *phase, wk *worker)
	// abort unblocks workers stuck in I/O after a stall verdict.
	abort()
	// close shuts the instance down; the store must drain to balanced
	// books within closeTimeout.
	close() error
	store() hpbrcu.Map
}

// ---------------------------------------------------------------------
// point_read_mostly / write_churn: the handle-free facade.

type facadeInst struct {
	m     hpbrcu.Map
	sched *schedule
	pos   [workers]int
}

func newHashMap(sc hpbrcu.Scheme, buckets int, cfg hpbrcu.Config) (hpbrcu.Map, error) {
	m, err := hpbrcu.NewHashMap(sc, buckets, cfg)
	if err != nil {
		return nil, err
	}
	// 50% prefilled: every even key.
	h := m.Register()
	for k := int64(0); k < pointKeys; k += 2 {
		h.Insert(k, valueOf(k))
	}
	err = hpbrcu.TakeHandleErr(h)
	h.Unregister()
	return m, err
}

func buildFacade(sc hpbrcu.Scheme, sched *schedule) (instance, error) {
	m, err := newHashMap(sc, hpbrcu.DefaultBuckets(pointKeys), prodConfig())
	if err != nil {
		return nil, err
	}
	return &facadeInst{m: m, sched: sched}, nil
}

func (in *facadeInst) store() hpbrcu.Map { return in.m }
func (in *facadeInst) abort()            {}
func (in *facadeInst) close() error      { return hpbrcu.Close(in.m, closeTimeout) }

func (in *facadeInst) run(w int, ph *phase, wk *worker) {
	m, ops, pos := in.m, in.sched.ops[w], in.pos[w]
	mask := len(ops) - 1
	spanStart, spanOps := nowNS(), 0
	for !ph.stop.Load() {
		t0 := nowNS()
		for j := 0; j < latBatch; j++ {
			op := ops[pos&mask]
			pos++
			key := int64(op >> 2)
			switch op & 3 {
			case opGet:
				if v, ok, err := m.Get(key); err != nil || (ok && v != valueOf(key)) {
					wk.failed++
				}
			case opInsert:
				if _, err := m.Insert(key, valueOf(key)); err != nil {
					wk.failed++
				}
				wk.writes++
			default:
				if v, ok, err := m.Remove(key); err != nil || (ok && v != valueOf(key)) {
					wk.failed++
				}
				wk.writes++
			}
		}
		t1 := nowNS()
		wk.sample(t1 - t0)
		wk.ops += latBatch
		wk.attempted += latBatch
		wk.progress.Store(wk.attempted)
		if ph.tr != nil {
			if spanOps += latBatch; spanOps == spanBatch {
				ph.tr.add(span{Name: "batch", Layer: "facade", Worker: int32(w), N: spanBatch, StartNS: spanStart, EndNS: t1})
				spanStart, spanOps = t1, 0
			}
		}
	}
	in.pos[w] = pos
}

// ---------------------------------------------------------------------
// long_scan: one reader doing uniform Gets over a 4 096-node list, one
// writer churning the head, both on registered handles.

const headKey = -1

type scanInst struct {
	m     hpbrcu.Map
	sched *schedule
	pos   int
}

func newScanList(sc hpbrcu.Scheme, cfg hpbrcu.Config) (hpbrcu.Map, error) {
	var (
		m   hpbrcu.Map
		err error
	)
	if sc == hpbrcu.HP {
		// Plain HP cannot protect Harris's optimistic traversal (Table 1);
		// its long-scan comparator is the Harris-Michael list.
		m, err = hpbrcu.NewHMList(sc, cfg)
	} else {
		m, err = hpbrcu.NewHHSList(sc, cfg)
	}
	if err != nil {
		return nil, err
	}
	// Descending, so every prefill insert lands at the head.
	h := m.Register()
	for k := int64(scanKeys - 2); k >= 0; k -= 2 {
		h.Insert(k, valueOf(k))
	}
	err = hpbrcu.TakeHandleErr(h)
	h.Unregister()
	return m, err
}

func buildScan(sc hpbrcu.Scheme, sched *schedule) (instance, error) {
	m, err := newScanList(sc, prodConfig())
	if err != nil {
		return nil, err
	}
	return &scanInst{m: m, sched: sched}, nil
}

func (in *scanInst) store() hpbrcu.Map { return in.m }
func (in *scanInst) abort()            {}
func (in *scanInst) close() error      { return hpbrcu.Close(in.m, closeTimeout) }

// scanSteps is how many nodes a Get(key) visits on the long_scan list
// (every even key below key, plus the node it stops on).
func scanSteps(key int64) int64 { return (key+1)/2 + 1 }

func (in *scanInst) run(w int, ph *phase, wk *worker) {
	h := in.m.Register()
	defer h.Unregister()
	if w == 1 {
		// The writer: back-to-back Insert/Remove of the head key, no
		// yields. It is the only writer, so both must always succeed.
		for !ph.stop.Load() {
			for j := 0; j < latBatch; j++ {
				if !h.Insert(headKey, valueOf(headKey)) {
					wk.failed++
				}
				if v, ok := h.Remove(headKey); !ok || v != valueOf(headKey) {
					wk.failed++
				}
			}
			if hpbrcu.TakeHandleErr(h) != nil {
				wk.failed++
			}
			wk.writes += 2 * latBatch
			wk.attempted += 2 * latBatch
			wk.progress.Store(wk.attempted)
		}
		return
	}
	ops, pos := in.sched.ops[0], in.pos
	mask := len(ops) - 1
	for !ph.stop.Load() {
		key := int64(ops[pos&mask] >> 2)
		pos++
		t0 := nowNS()
		v, ok := h.Get(key)
		t1 := nowNS()
		// Even keys are always present, odd keys never.
		if present := key&1 == 0; ok != present || (ok && v != valueOf(key)) || hpbrcu.TakeHandleErr(h) != nil {
			wk.failed++
		}
		wk.sample(t1 - t0)
		wk.ops++
		wk.attempted++
		wk.progress.Store(wk.attempted)
		if ph.tr != nil {
			ph.tr.add(span{Name: "get", Layer: "handle", Key: key, Worker: 0, N: 1, StartNS: t0, EndNS: t1})
		}
	}
	in.pos = pos
}

// ---------------------------------------------------------------------
// service_mixed: internal/server in-process on loopback, two closed-loop
// connections.

type serviceInst struct {
	m     hpbrcu.Map
	srv   *server.Server
	addr  string
	conns [workers]*lineConn
	sched *schedule
	pos   [workers]int
}

func buildService(sc hpbrcu.Scheme, sched *schedule, tr *tracer) (*serviceInst, error) {
	m, err := newHashMap(sc, serviceBuckets, prodConfig())
	if err != nil {
		return nil, err
	}
	var served hpbrcu.Map = m
	if tr != nil {
		served = &spanMap{Map: m, t: tr}
	}
	srv, err := server.New(server.Config{Map: served})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &serviceInst{m: m, srv: srv, addr: addr.String(), sched: sched}
	for w := range in.conns {
		c, err := dialLine(in.addr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.conns[w] = c
	}
	return in, nil
}

func (in *serviceInst) store() hpbrcu.Map { return in.m }

func (in *serviceInst) abort() {
	for _, c := range in.conns {
		if c != nil {
			c.nc.Close()
		}
	}
}

func (in *serviceInst) close() error {
	in.abort()
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	// Shutdown closes the map it was given; behind the tracing wrapper
	// that is not the real store, so close it here (idempotent otherwise).
	if cerr := hpbrcu.Close(in.m, closeTimeout); err == nil {
		err = cerr
	}
	return err
}

func (in *serviceInst) run(w int, ph *phase, wk *worker) {
	c, s, pos := in.conns[w], in.sched, in.pos[w]
	for !ph.stop.Load() {
		j := pos % serviceSchedLen
		pos++
		req := s.reqs[w][s.off[w][j]:s.off[w][j+1]]
		verb, key := s.verb[w][j], int64(s.key[w][j])
		if pos%1024 == 1 {
			// A wedged server must surface as an error, not a hang.
			c.nc.SetDeadline(time.Now().Add(2 * stallLimit))
		}
		wk.attempted++
		t0 := nowNS()
		_, err := c.nc.Write(req)
		tw := nowNS()
		kind := replyWrong
		if err == nil {
			kind, err = c.readReply(verb, key)
		}
		t1 := nowNS()
		if err != nil {
			wk.failed++
			break
		}
		switch kind {
		case replyOK:
		case replyBusy:
			wk.busy++
			wk.failed++
		case replyErr:
			wk.errReplies++
			wk.failed++
		default:
			wk.failed++
		}
		wk.sample(t1 - t0)
		if len(wk.latVerb) < cap(wk.latVerb) {
			wk.latVerb = append(wk.latVerb, verb)
		}
		wk.ops++
		if verb == verbSet || verb == verbDel {
			wk.writes++
		}
		wk.progress.Store(wk.attempted)
		if ph.tr != nil {
			id := uint64(w)<<32 | uint64(uint32(pos))
			ph.tr.add(span{Name: "request", Layer: "client", ID: id, Key: key, Worker: int32(w), N: 1, StartNS: t0, EndNS: t1})
			ph.tr.add(span{Name: "write", Layer: "client", Parent: "request", ID: id, Key: key, Worker: int32(w), N: 1, StartNS: t0, EndNS: tw})
			ph.tr.add(span{Name: "wait_reply", Layer: "client", Parent: "request", ID: id, Key: key, Worker: int32(w), N: 1, StartNS: tw, EndNS: t1})
		}
	}
	in.pos[w] = pos
}

// ---------------------------------------------------------------------
// Running a repeat.

func buildInstance(workload string, sc hpbrcu.Scheme, sched *schedule, tr *tracer) (instance, error) {
	switch workload {
	case wlPointReadMostly, wlWriteChurn:
		return buildFacade(sc, sched)
	case wlLongScan:
		return buildScan(sc, sched)
	case wlServiceMixed:
		return buildService(sc, sched, tr)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

var errStalled = errors.New("a worker's op counter stopped advancing")

// runPhase drives every worker of inst for d under the progress
// watchdog.
func runPhase(inst instance, d time.Duration, tr *tracer, wks []*worker) error {
	ph := &phase{tr: tr}
	var wg sync.WaitGroup
	for w, wk := range wks {
		wk.reset()
		wg.Add(1)
		go func(w int, wk *worker) {
			defer wg.Done()
			wk.startNS = nowNS()
			inst.run(w, ph, wk)
			wk.endNS = nowNS()
		}(w, wk)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	stalled := false
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	last := make([]int64, len(wks))
	lastAt := make([]time.Time, len(wks))
	for i := range lastAt {
		lastAt[i] = time.Now()
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-done: // every worker bailed out early (I/O error)
			running = false
		case <-deadline.C:
			running = false
		case now := <-tick.C:
			for i, wk := range wks {
				if p := wk.progress.Load(); p != last[i] {
					last[i], lastAt[i] = p, now
				} else if now.Sub(lastAt[i]) > stallLimit {
					stalled, running = true, false
				}
			}
		}
	}
	ph.stop.Store(true)
	if stalled {
		inst.abort()
	}
	select {
	case <-done:
	case <-time.After(stallLimit):
		inst.abort()
		return errStalled
	}
	if stalled {
		return errStalled
	}
	return nil
}

// gcSample reads the process-wide allocation and GC-CPU counters.
type gcSample struct {
	allocs        uint64
	gcCPU, allCPU float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[2].Value.Float64()
	}
	return out
}

// repeat is what one fresh-instance repeat measured.
type repeat struct {
	setupS        []float64 // one per instance built
	opsPerS       float64
	writerOpsPerS float64
	p50US, p90US  float64 // latency percentiles of the measured phase
	p99US         float64
	latSamples    int64
	attempted     int64
	failed        int64
	busy, errs    int64
	peak, bound   int64 // bound < 0: scheme has no §5 bound
	// during holds the reclamation counters of the measured phase alone
	// (after minus before), so the Close drain's forced rounds and the
	// warm-up do not count.
	during      hpbrcu.StatsSnapshot
	allocsPerOp float64
	gcCPUFrac   float64
	verbP50US   [numVerbs]float64 // service only
	meanLatNS   float64
	// typicalNS is the mean of the fastest 99% of the latency samples: the
	// mean without the rare multi-millisecond stalls that this class of
	// host adds to a loopback closed loop in episodes (README.md,
	// Steadiness), which move the plain mean by 2x and no percentile at all.
	typicalNS float64
	// hostSpeed is the host probe's nominal round trip over the one
	// measured around this repeat: below 1 on a slow host (probe.go).
	hostSpeed float64
}

// latBufs are the per-worker latency logs, allocated once per process and
// reused by every repeat so measurement never allocates.
type latBufs struct {
	wks    []*worker
	merged []uint32
}

func newLatBufs() *latBufs {
	b := &latBufs{}
	for w := 0; w < workers; w++ {
		b.wks = append(b.wks, &worker{lat: make([]uint32, 0, maxLatSamples), latVerb: make([]uint8, 0, maxLatSamples)})
	}
	return b
}

// runRepeat builds a fresh instance (timed as set-up), warms it up,
// measures it, closes it and certifies the books.
func runRepeat(workload string, sc hpbrcu.Scheme, sched *schedule, warm, measure time.Duration, tr *tracer, bufs *latBufs) (repeat, error) {
	var (
		r    repeat
		inst instance
	)
	for i := 0; i < setupsPerRepeat; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return r, fmt.Errorf("set-up: close: %w", err)
			}
		}
		t0 := time.Now()
		built, err := buildInstance(workload, sc, sched, tr)
		if err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		inst = built
	}

	if err := runPhase(inst, warm, nil, bufs.wks); err != nil {
		return r, fmt.Errorf("warm-up: %w", err)
	}
	s0, g0 := hpbrcu.AggregateSnapshot(inst.store()), readGC()
	if err := runPhase(inst, measure, tr, bufs.wks); err != nil {
		return r, fmt.Errorf("measure: %w", err)
	}
	s1, g1 := hpbrcu.AggregateSnapshot(inst.store()), readGC()
	r.during = hpbrcu.StatsSnapshot{
		EpochAdvances:         s1.EpochAdvances - s0.EpochAdvances,
		ForcedAdvances:        s1.ForcedAdvances - s0.ForcedAdvances,
		Signals:               s1.Signals - s0.Signals,
		BackpressureThrottles: s1.BackpressureThrottles - s0.BackpressureThrottles,
		BackpressureRejects:   s1.BackpressureRejects - s0.BackpressureRejects,
		ReapedHandles:         s1.ReapedHandles - s0.ReapedHandles,
	}

	bufs.merged = bufs.merged[:0]
	var latSum float64
	for _, wk := range bufs.wks {
		secs := float64(wk.endNS-wk.startNS) / 1e9
		r.opsPerS += float64(wk.ops) / secs
		r.writerOpsPerS += float64(wk.writes) / secs
		r.attempted += wk.attempted
		r.failed += wk.failed
		r.busy += wk.busy
		r.errs += wk.errReplies
		if wk.latDropped > 0 {
			return r, fmt.Errorf("latency log overflowed by %d samples", wk.latDropped)
		}
		bufs.merged = append(bufs.merged, wk.lat...)
		for _, v := range wk.lat {
			latSum += float64(v)
		}
	}
	slices.Sort(bufs.merged)
	r.latSamples = int64(len(bufs.merged))
	r.p50US = percentileUS(bufs.merged, 0.50)
	r.p90US = percentileUS(bufs.merged, 0.90)
	r.p99US = percentileUS(bufs.merged, 0.99)
	if r.latSamples > 0 {
		r.meanLatNS = latSum / float64(r.latSamples)
		var kept float64
		fastest := bufs.merged[:(len(bufs.merged)*99+99)/100]
		for _, v := range fastest {
			kept += float64(v)
		}
		r.typicalNS = kept / float64(len(fastest))
	}
	if done := r.attempted; done > 0 {
		r.allocsPerOp = float64(g1.allocs-g0.allocs) / float64(done)
	}
	if d := g1.allCPU - g0.allCPU; d > 0 {
		r.gcCPUFrac = math.Max(0, (g1.gcCPU-g0.gcCPU)/d)
	}
	if workload == wlServiceMixed {
		var byVerb [numVerbs][]uint32
		for _, wk := range bufs.wks {
			for i, v := range wk.latVerb {
				byVerb[v] = append(byVerb[v], wk.lat[i])
			}
		}
		for v := range byVerb {
			slices.Sort(byVerb[v])
			r.verbP50US[v] = percentileUS(byVerb[v], 0.50)
		}
	}

	// Books: the drain must balance within the timeout and the peak must
	// respect the §5 bound the domain actually observed.
	if err := inst.close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}
	m := inst.store()
	r.peak = hpbrcu.AggregateSnapshot(m).PeakUnreclaimed
	r.bound = hpbrcu.GarbageBoundObserved(m)
	if r.bound >= 0 && r.peak > r.bound {
		return r, fmt.Errorf("peak unreclaimed %d exceeds the §5 bound %d", r.peak, r.bound)
	}
	return r, nil
}
