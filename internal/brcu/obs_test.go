package brcu

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// TestObservabilityCapturesEpochTraffic runs a small retire/drain
// workload with the obs layer on and checks that the trace and the
// latency histograms actually fill: epoch advances show up as events and
// drained batches land in GraceNanos.
func TestObservabilityCapturesEpochTraffic(t *testing.T) {
	col := obs.NewCollector(64)
	obs.Activate(col)
	defer obs.Deactivate()

	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(1))
	h := d.Register()

	for i := 0; i < 16; i++ {
		h.Enter()
		h.Poll()
		h.Exit()
		retireOne(t, pool, cache, h)
	}
	h.Barrier()
	h.Unregister()

	rec := d.Stats()
	if rec.GraceNanos.Count() == 0 {
		t.Error("no grace-period lengths recorded")
	}
	if rec.EpochAdvances.Load() == 0 {
		t.Fatal("workload did not advance the epoch; test is vacuous")
	}

	var advances, drains int
	for _, e := range col.Merged(0) {
		switch e.Kind {
		case obs.EvEpochAdvance, obs.EvForcedAdvance:
			advances++
		case obs.EvDrain:
			drains++
		}
	}
	if advances == 0 {
		t.Error("no epoch-advance events in the trace")
	}
	if drains == 0 {
		t.Error("no drain events in the trace")
	}
	if len(col.FormatTail(8)) == 0 {
		t.Error("FormatTail empty despite recorded events")
	}
}

// TestObservabilityOffRecordsNothing is the disabled-layer contract: the
// same workload with the gate closed must leave histograms and traces
// empty.
func TestObservabilityOffRecordsNothing(t *testing.T) {
	if obs.On {
		t.Fatal("gate open at test start")
	}
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(1))
	h := d.Register()
	for i := 0; i < 8; i++ {
		h.Enter()
		h.Poll()
		h.Exit()
		retireOne(t, pool, cache, h)
	}
	h.Barrier()
	h.Unregister()

	rec := d.Stats()
	if rec.GraceNanos.Count() != 0 ||
		rec.PollLag.Count() != 0 || rec.ReclaimAgeNanos.Count() != 0 {
		t.Fatal("histograms recorded with the obs gate closed")
	}
}
