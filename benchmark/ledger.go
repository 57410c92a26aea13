package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hashmap"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
	"github.com/smrgo/hpbrcu/internal/ds/hmlist"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/pool"
)

// The layer ledger: one row per layer boundary, every row timed from
// this directory around exported calls, two goroutines, one span per
// batch of calls. A row's value is the median ns per call over its
// spans; "self" rows are a rung minus the rung below it.

// ledgerPasses is how many times the micro rows are measured, each pass
// on freshly built domains, maps and handles; a row is the median over
// the passes. One pass is not enough: where two handles land in memory
// moves a hash-map Get between ~80 and ~200 ns from one registration to
// the next.
const ledgerPasses = 5

// ledger holds the workload-independent rows of one traced pass.
type ledger struct {
	vals  map[string]float64   // the reported rows
	pass  map[string][]float64 // per-pass values of the measured rows
	tr    *tracer
	rung  time.Duration     // how long each row is measured
	ops   [workers][]uint32 // the point_read_mostly schedule; keys sit above the verb bits
	fails int64
	mu    sync.Mutex
}

// kv is what every rung from the raw structure handle up to the
// registered handle has in common.
type kv interface {
	Get(key int64) (int64, bool)
	Insert(key, val int64) bool
	Remove(key int64) (int64, bool)
}

// rungWorker is one goroutine's share of a row.
type rungWorker struct {
	call func(n int) // n back-to-back calls into the layer
	done func()      // release the worker's handle
}

func (l *ledger) fail(n int64) {
	l.mu.Lock()
	l.fails += n
	l.mu.Unlock()
}

func (l *ledger) record(name string, v float64) { l.pass[name] = append(l.pass[name], v) }

// row measures one row for one pass and records it.
func (l *ledger) row(name, layer string, nw, batch int, mk func(w int) rungWorker) {
	l.record(name, l.measure(name, layer, l.rung, nw, batch, mk))
}

// measure runs nw goroutines that each loop call(batch) for d, recording
// a span per batch; it returns the median ns per call over the spans.
func (l *ledger) measure(name, layer string, d time.Duration, nw, batch int, mk func(w int) rungWorker) float64 {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		per []float64
	)
	deadline := nowNS() + int64(d)
	for w := 0; w < nw; w++ {
		rw := mk(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []float64
			rw.call(batch) // warm the path before the first span
			for {
				t0 := nowNS()
				rw.call(batch)
				t1 := nowNS()
				mine = append(mine, float64(t1-t0)/float64(batch))
				l.tr.add(span{Name: name, Layer: layer, Worker: int32(w), N: int32(batch), StartNS: t0, EndNS: t1})
				if t1 >= deadline {
					break
				}
			}
			if rw.done != nil {
				rw.done()
			}
			mu.Lock()
			per = append(per, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return medianOf(per)
}

// pairKey maps a schedule key to an odd key (absent from the prefill)
// that only worker w touches, so an Insert/Remove pair always succeeds.
func pairKey(key int64, w int) int64 {
	k := key | 1
	if int(k>>1)&1 != w {
		k ^= 2
	}
	return k
}

// getRung and pairRung build the two call shapes shared by the ds,
// handle and (through facadeKV) facade rows.
func (l *ledger) getRung(w int, h kv, done func()) rungWorker {
	ops, pos := l.ops[w], 0
	mask := len(ops) - 1
	return rungWorker{done: done, call: func(n int) {
		var bad int64
		for i := 0; i < n; i++ {
			k := int64(ops[pos&mask] >> 2)
			pos++
			if v, ok := h.Get(k); ok && v != valueOf(k) {
				bad++
			}
		}
		if bad > 0 {
			l.fail(bad)
		}
	}}
}

func (l *ledger) pairRung(w int, h kv, done func()) rungWorker {
	ops, pos := l.ops[w], 0
	mask := len(ops) - 1
	return rungWorker{done: done, call: func(n int) {
		var bad int64
		for i := 0; i < n; i++ {
			k := pairKey(int64(ops[pos&mask]>>2), w)
			pos++
			if !h.Insert(k, valueOf(k)) {
				bad++
			}
			if v, ok := h.Remove(k); !ok || v != valueOf(k) {
				bad++
			}
		}
		if bad > 0 {
			l.fail(bad)
		}
	}}
}

// facadeKV adapts the error-returning facade to kv; any facade error is
// a ledger failure.
type facadeKV struct {
	m hpbrcu.Map
	l *ledger
}

func (f facadeKV) Get(key int64) (int64, bool) {
	v, ok, err := f.m.Get(key)
	if err != nil {
		f.l.fail(1)
	}
	return v, ok
}

func (f facadeKV) Insert(key, val int64) bool {
	ok, err := f.m.Insert(key, val)
	if err != nil {
		f.l.fail(1)
	}
	return ok
}

func (f facadeKV) Remove(key int64) (int64, bool) {
	v, ok, err := f.m.Remove(key)
	if err != nil {
		f.l.fail(1)
	}
	return v, ok
}

type benchNode struct {
	key  int64
	next uint64
	pad  [5]uint64
}

const pairBatch = spanBatch / 2 // a pair is two calls

// runLedger measures every workload-independent row. d is one repeat's
// measured time; each row gets a twelfth of it, split over the passes.
func runLedger(seed int64, d time.Duration, tl *traceLog) (*ledger, error) {
	l := &ledger{vals: map[string]float64{}, pass: map[string][]float64{}, tr: newTracer(), rung: d / 12 / ledgerPasses}
	l.ops = newSchedule(wlPointReadMostly, seed).ops
	scan := newSchedule(wlLongScan, seed).ops[0]
	for p := 0; p < ledgerPasses; p++ {
		l.brcuRows()
		l.hpRows()
		l.allocRows()
		l.coreRows(scan)
		if err := l.mapRows(); err != nil {
			return nil, err
		}
	}
	for name, vs := range l.pass {
		l.vals[name] = medianOf(vs)
	}
	l.vals["handle.self_ns"] = l.vals["handle.get_ns"] - l.vals["ds.get_ns"]
	l.vals["handle.posture_ns"] = l.vals["handle.get_ns"] - l.vals["handle.get_ns.zero_config"]
	l.vals["facade.self_ns"] = l.vals["facade.get_ns"] - l.vals["handle.get_ns"]
	l.vals["sharded.self_ns"] = l.vals["sharded.get_ns"] - l.vals["facade.get_ns"]
	if err := l.serverRows(seed, d, tl); err != nil {
		return nil, err
	}
	tl.absorb("ledger", l.tr)
	if l.fails > 0 {
		return nil, fmt.Errorf("ledger: %d calls returned a wrong value or an error", l.fails)
	}
	l.print()
	return l, nil
}

func (l *ledger) brcuRows() {
	for _, leased := range []bool{false, true} {
		suffix := "_ns"
		if leased {
			suffix = "_leased_ns"
		}
		dom := brcu.NewDomain(nil)
		if leased {
			dom.EnableLeases()
		}
		l.row("brcu.enter_exit"+suffix, "brcu", workers, spanBatch, func(int) rungWorker {
			h := dom.Register()
			return rungWorker{done: h.Unregister, call: func(n int) {
				for i := 0; i < n; i++ {
					h.Enter()
					h.Exit()
				}
			}}
		})
		l.row("brcu.poll"+suffix, "brcu", workers, spanBatch, func(int) rungWorker {
			h := dom.Register()
			return rungWorker{done: h.Unregister, call: func(n int) {
				h.Enter()
				bad := 0
				for i := 0; i < n; i++ {
					if !h.Poll() {
						bad++
					}
				}
				h.Exit()
				if bad > 0 {
					l.fail(int64(bad)) // nothing advances the epoch here
				}
			}}
		})
	}
	dom := brcu.NewDomain(nil)
	nodes := alloc.NewPool[benchNode]()
	l.row("brcu.defer_cycle_ns", "brcu", workers, spanBatch, func(int) rungWorker {
		h, cache := dom.Register(), nodes.NewCache()
		return rungWorker{done: h.Unregister, call: func(n int) {
			for i := 0; i < n; i++ {
				slot, _ := nodes.Alloc(cache)
				nodes.Hdr(slot).Retire()
				h.Defer(slot, nodes)
			}
		}}
	})
}

func (l *ledger) hpRows() {
	dom := hp.NewDomain(nil)
	nodes := alloc.NewPool[benchNode]()
	l.row("hp.protect_clear_ns", "hp", workers, spanBatch, func(int) rungWorker {
		h := dom.Register()
		s := h.NewShield()
		slot, _ := nodes.Alloc(nodes.NewCache())
		return rungWorker{done: h.Unregister, call: func(n int) {
			for i := 0; i < n; i++ {
				s.ProtectSlot(slot)
				s.Clear()
			}
		}}
	})
	l.row("hp.retire_cycle_ns", "hp", workers, spanBatch, func(int) rungWorker {
		h, cache := dom.Register(), nodes.NewCache()
		h.NewShield() // the scan has something to read
		return rungWorker{done: h.Unregister, call: func(n int) {
			for i := 0; i < n; i++ {
				slot, _ := nodes.Alloc(cache)
				nodes.Hdr(slot).Retire()
				h.Retire(slot, nodes)
			}
		}}
	})
}

func (l *ledger) allocRows() {
	for _, mode := range []alloc.Mode{alloc.ModePool, alloc.ModeArena} {
		nodes := alloc.NewPool[benchNode](mode)
		l.row("alloc.alloc_free_ns."+mode.String(), "alloc", workers, spanBatch, func(int) rungWorker {
			cache := nodes.NewCache()
			return rungWorker{call: func(n int) {
				for i := 0; i < n; i++ {
					slot, _ := nodes.Alloc(cache)
					nodes.Hdr(slot).Retire()
					nodes.FreeLocal(cache, slot)
				}
			}}
		})
	}
}

// scanHandle is one registered accessor to the long_scan list under some
// backend.
type scanHandle interface {
	kv
	Unregister()
}

// hhsGet makes Get the Herlihy-Shavit optimistic contains, which is what
// HHSList means (the root package's optimisticAsGet does the same).
type hhsGet struct {
	scanHandle
	optimistic func(key int64) (int64, bool)
}

func (h hhsGet) Get(key int64) (int64, bool) { return h.optimistic(key) }

// scanBackends open the long_scan list under each backend: a register
// function and, where the backend counts them, a rollback counter.
var scanBackends = []struct {
	suffix string
	open   func() (register func() scanHandle, rollbacks func() int64)
}{
	{"", func() (func() scanHandle, func() int64) {
		lst := hlist.NewHPBRCU(core.Config{})
		return func() scanHandle { h := lst.Register(); return hhsGet{h, h.GetOptimistic} }, lst.Stats().Rollbacks.Load
	}},
	{".ebr", func() (func() scanHandle, func() int64) {
		lst := hlist.NewEBR()
		return func() scanHandle { h := lst.Register(); return hhsGet{h, h.GetOptimistic} }, nil
	}},
	{".nbr", func() (func() scanHandle, func() int64) {
		lst := hlist.NewNBR()
		return func() scanHandle { h := lst.Register(); return hhsGet{h, h.GetOptimistic} }, nil
	}},
	// Plain HP cannot protect Harris's optimistic traversal; its row is
	// the Harris-Michael list over the same keys.
	{".hp", func() (func() scanHandle, func() int64) {
		lst := hmlist.NewHP()
		return func() scanHandle { return lst.Register() }, nil
	}},
}

// scanRow is one single-reader row over the long_scan list: 16 Gets per
// span, reported per traversal step (steps are known from the key's
// position). With churn, a second goroutine hammers the head key the way
// the long_scan writer does.
func (l *ledger) scanRow(name string, keys []uint32, register func() scanHandle, churn bool) (gets int64) {
	const getsPerSpan = 16
	var (
		stop   = make(chan struct{})
		writer sync.WaitGroup
	)
	if churn {
		w := register()
		writer.Add(1)
		go func() {
			defer writer.Done()
			defer w.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < latBatch; j++ {
					w.Insert(headKey, valueOf(headKey))
					w.Remove(headKey)
				}
			}
		}()
	}
	var steps int64
	pos, mask := 0, len(keys)-1
	perGet := l.measure(name, "core", l.rung, 1, getsPerSpan, func(int) rungWorker {
		h := register()
		return rungWorker{done: h.Unregister, call: func(n int) {
			for i := 0; i < n; i++ {
				k := int64(keys[pos&mask] >> 2)
				pos++
				v, ok := h.Get(k)
				if present := k&1 == 0; ok != present || (ok && v != valueOf(k)) {
					l.fail(1)
				}
				steps += scanSteps(k)
				gets++
			}
		}}
	})
	close(stop)
	writer.Wait()
	l.record(name, perGet*float64(gets)/float64(steps))
	return gets
}

// coreRows drive the Traverse engine through the raw hlist HHS handle on
// the long_scan list: per-step cost alone, then with the head-churn
// writer, then the same list under the other backends.
func (l *ledger) coreRows(keys []uint32) {
	for _, b := range scanBackends {
		register, rollbacks := b.open()
		h := register()
		for k := int64(scanKeys - 2); k >= 0; k -= 2 {
			h.Insert(k, valueOf(k))
		}
		h.Unregister()
		l.scanRow("core.step_ns"+b.suffix, keys, register, false)
		if rollbacks != nil { // the HP-BRCU list: also with the head-churn writer
			rb0 := rollbacks()
			gets := l.scanRow("core.step_ns"+b.suffix+".contended", keys, register, true)
			l.record("core.rollbacks_per_kop", float64(rollbacks()-rb0)/float64(gets)*1e3)
		}
	}
}

// mapRows climb from the raw hash-map handle to the sharded facade over
// the point_read_mostly keys.
func (l *ledger) mapRows() error {
	buckets := hpbrcu.DefaultBuckets(pointKeys)
	fillPoint := func(h kv) {
		for k := int64(0); k < pointKeys; k += 2 {
			h.Insert(k, valueOf(k))
		}
	}

	// ds: the raw structure handle, no decorators.
	raw := hashmap.NewHPBRCU(buckets, core.Config{})
	h0 := raw.Register()
	fillPoint(h0)
	h0.Unregister()
	l.row("ds.get_ns", "ds", workers, spanBatch, func(w int) rungWorker {
		h := raw.Register()
		return l.getRung(w, h, h.Unregister)
	})
	l.row("ds.insert_remove_ns", "ds", workers, pairBatch, func(w int) rungWorker {
		h := raw.Register()
		return l.pairRung(w, h, h.Unregister)
	})
	rawEBR := hashmap.NewEBR(buckets)
	he := rawEBR.Register()
	fillPoint(he)
	he.Unregister()
	l.row("ds.get_ns.ebr", "ds", workers, spanBatch, func(w int) rungWorker {
		h := rawEBR.Register()
		return l.getRung(w, h, h.Unregister)
	})
	rawHP := hashmap.NewHP(buckets)
	hh := rawHP.Register()
	fillPoint(hh)
	hh.Unregister()
	l.row("ds.get_ns.hp", "ds", workers, spanBatch, func(w int) rungWorker {
		h := rawHP.Register()
		return l.getRung(w, h, h.Unregister)
	})

	// handle: the root package's decorator stack from m.Register(), in
	// the production posture and with a zero Config.
	prod, err := newHashMap(hpbrcu.HPBRCU, buckets, prodConfig())
	if err != nil {
		return err
	}
	bare, err := newHashMap(hpbrcu.HPBRCU, buckets, hpbrcu.Config{})
	if err != nil {
		return err
	}
	shardCfg := prodConfig()
	shardCfg.Shards.Count = 4
	sharded, err := newHashMap(hpbrcu.HPBRCU, buckets, shardCfg)
	if err != nil {
		return err
	}
	l.row("handle.get_ns", "handle", workers, spanBatch, func(w int) rungWorker {
		h := prod.Register()
		return l.getRung(w, h, h.Unregister)
	})
	l.row("handle.insert_remove_ns", "handle", workers, pairBatch, func(w int) rungWorker {
		h := prod.Register()
		return l.pairRung(w, h, h.Unregister)
	})
	l.row("handle.get_ns.zero_config", "handle", workers, spanBatch, func(w int) rungWorker {
		h := bare.Register()
		return l.getRung(w, h, h.Unregister)
	})

	// pool: internal/pool alone.
	hpool := pool.New(pool.Config[*int]{Size: 4 * workers, New: func() *int { return new(int) }})
	l.row("pool.acquire_release_ns", "pool", workers, spanBatch, func(int) rungWorker {
		return rungWorker{call: func(n int) {
			for i := 0; i < n; i++ {
				e, err := hpool.Acquire(nil)
				if err != nil {
					l.fail(1)
					continue
				}
				hpool.Release(e)
			}
		}}
	})
	hpool.Close(time.Now())

	// facade: the handle-free methods (pool checkout + handle).
	l.row("facade.get_ns", "facade", workers, spanBatch, func(w int) rungWorker {
		return l.getRung(w, facadeKV{prod, l}, nil)
	})
	l.row("facade.insert_remove_ns", "facade", workers, pairBatch, func(w int) rungWorker {
		return l.pairRung(w, facadeKV{prod, l}, nil)
	})

	// sharded: the same Gets routed over four domains.
	l.row("sharded.get_ns", "sharded", workers, spanBatch, func(w int) rungWorker {
		return l.getRung(w, facadeKV{sharded, l}, nil)
	})

	exhausted := int64(0)
	for _, m := range []hpbrcu.Map{prod, bare, sharded} {
		if err := hpbrcu.Close(m, closeTimeout); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		exhausted += hpbrcu.AggregateSnapshot(m).PoolExhausted
	}
	l.vals["facade.exhausted"] += float64(exhausted)
	return nil
}

// serverRows run the service pass of the ledger: a traced closed-loop
// pass for the per-verb latencies, the same verb schedule executed
// against the facade in-process, and the open-loop diagnostic.
func (l *ledger) serverRows(seed int64, d time.Duration, tl *traceLog) error {
	sched := newSchedule(wlServiceMixed, seed)
	bufs := newLatBufs()
	tr := newTracer()
	r, err := runRepeat(wlServiceMixed, hpbrcu.HPBRCU, sched, d/8, d/2, tr, bufs)
	if err != nil {
		return fmt.Errorf("ledger: service pass: %w", err)
	}
	l.fail(r.failed)
	for v, name := range verbNames {
		l.vals["server."+name+"_p50_us"] = r.verbP50US[v]
	}
	l.vals["server.busy_replies"] = float64(r.busy)
	l.vals["server.err_replies"] = float64(r.errs)
	// Process-wide over the measured window: the client side does not
	// allocate, so what is left is the server's request path.
	l.vals["server.allocs_per_req"] = r.allocsPerOp
	tl.absorb("ledger/server", tr)

	// In-process: the dispatch logic of each verb replayed on the facade.
	m, err := newHashMap(hpbrcu.HPBRCU, serviceBuckets, prodConfig())
	if err != nil {
		return err
	}
	inproc := l.measure("server.inproc_req_ns", "facade", d/6, workers, spanBatch/4, func(w int) rungWorker {
		pos := 0
		return rungWorker{call: func(n int) {
			for i := 0; i < n; i++ {
				j := pos % serviceSchedLen
				pos++
				if !inprocRequest(m, sched.verb[w][j], int64(sched.key[w][j])) {
					l.fail(1)
				}
			}
		}}
	})
	if err := hpbrcu.Close(m, closeTimeout); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.vals["server.inproc_req_ns"] = inproc
	l.vals["server.self_us"] = (r.meanLatNS - inproc) / 1e3

	// Open loop, 2 connections × 10 k req/s, latency from the due time.
	// Reported, never gated: on a two-core host the generator's own
	// lateness dwarfs the service time.
	in, err := buildService(hpbrcu.HPBRCU, sched, nil)
	if err != nil {
		return err
	}
	ol, err := runOpenLoop(in.addr, sched, 10_000, d/2)
	cerr := in.close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("ledger: open loop: %w", cerr)
	}
	l.fail(ol.failed)
	l.vals["loadgen.open_p50_us"] = quantileOrZero(ol.latUS, 0.50)
	l.vals["loadgen.open_p99_us"] = quantileOrZero(ol.latUS, 0.99)
	l.vals["loadgen.late_p99_us"] = quantileOrZero(ol.lateUS, 0.99)
	l.vals["loadgen.dropped"] = float64(ol.dropped)
	return nil
}

func quantileOrZero(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, q)
}

// inprocRequest performs what server.dispatch does for one verb, minus
// parsing, replies and the socket.
func inprocRequest(m hpbrcu.Map, verb uint8, key int64) bool {
	switch verb {
	case verbGet:
		v, ok, err := m.Get(key)
		return err == nil && (!ok || v == valueOf(key))
	case verbSet:
		for attempt := 0; attempt < 4; attempt++ {
			ok, err := m.TryInsert(key, valueOf(key))
			if err != nil {
				return false
			}
			if ok {
				return true
			}
			if _, _, err := m.Remove(key); err != nil {
				return false
			}
		}
		return false
	case verbDel:
		_, _, err := m.Remove(key)
		return err == nil
	default:
		for k := key; k < key+scanRows; k++ {
			if v, ok, err := m.Get(k); err != nil || (ok && v != valueOf(k)) {
				return false
			}
		}
		return true
	}
}

func (l *ledger) print() {
	names := make([]string, 0, len(l.vals))
	for n := range l.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n== layer ledger: 2 goroutines, one span per batch of calls, each row the median of %d fresh passes ==\n", ledgerPasses)
	for _, n := range names {
		fmt.Printf("%-32s %14.4g\n", n, l.vals[n])
	}
	fmt.Printf("ladder: ds.get %.1f + handle.self %.1f + facade.self %.1f = facade.get %.1f ns; sharded adds %.1f\n",
		l.vals["ds.get_ns"], l.vals["handle.self_ns"], l.vals["facade.self_ns"], l.vals["facade.get_ns"], l.vals["sharded.self_ns"])
}
