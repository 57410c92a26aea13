package hpbrcu_test

// Sharded-domain regression tests (DESIGN.md §15): cross-shard retire
// routing under -race, per-shard book balancing and the Σ-over-shards §5
// bound. What a wedged shard keeps doing is internal/chaos's shard-wedge
// gate.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/stats"
)

func shardedCfg(shards int) hpbrcu.Config {
	return hpbrcu.Config{
		Reaper: hpbrcu.ReaperConfig{Enabled: true},
		Shards: hpbrcu.ShardsConfig{Count: shards},
	}
}

// TestShardedRoutingCoversAllShards pins the hash routing: a dense key
// range spreads over every shard, and the facade and registered APIs
// agree on which shard owns a key (one write is visible through both).
func TestShardedRoutingCoversAllShards(t *testing.T) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, shardedCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	defer hpbrcu.Close(m, 5*time.Second)

	if got := hpbrcu.ShardCount(m); got != 8 {
		t.Fatalf("ShardCount = %d, want 8", got)
	}
	seen := make([]int, 8)
	for k := int64(0); k < 4096; k++ {
		s := hpbrcu.ShardOf(m, k)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", k, s)
		}
		seen[s]++
	}
	for s, n := range seen {
		if n == 0 {
			t.Errorf("shard %d received no keys from a dense 4096-key range", s)
		}
	}

	h := m.Register()
	defer h.Unregister()
	for k := int64(0); k < 256; k++ {
		if ok, err := m.Insert(k, k*10); err != nil || !ok {
			t.Fatalf("facade Insert(%d): ok=%v err=%v", k, ok, err)
		}
		if v, ok := h.Get(k); !ok || v != k*10 {
			t.Fatalf("handle Get(%d) = (%d,%v) after facade insert", k, v, ok)
		}
	}
}

// TestAggregateSnapshotSumsEveryField: AggregateSnapshot merges the books
// with a hand-written field list, so a counter added to StatsSnapshot (or a
// line dropped from the list) would silently read as the map's own value
// alone. Every book — two shards and the map's own — gets a distinct
// nonzero level in every counter and gauge, and every int64 field of the
// aggregate must be their sum.
func TestAggregateSnapshotSumsEveryField(t *testing.T) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 64, hpbrcu.Config{Shards: hpbrcu.ShardsConfig{Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Closed first: nothing but this test moves the books from here on.
	if err := hpbrcu.Close(m, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for b, rec := range []*hpbrcu.Stats{hpbrcu.ShardStats(m, 0), hpbrcu.ShardStats(m, 1), m.Stats()} {
		rec.Reset()
		v := reflect.ValueOf(rec).Elem()
		for i := 0; i < v.NumField(); i++ {
			n := int64(1000*(b+1) + i)
			switch f := v.Field(i).Addr().Interface().(type) {
			case *stats.Counter:
				f.Add(n)
			case *stats.Gauge:
				f.Add(n)
			}
		}
	}

	agg := reflect.ValueOf(hpbrcu.AggregateSnapshot(m))
	parts := append(hpbrcu.ShardSnapshots(m), m.Stats().Snapshot())
	if len(parts) != 3 {
		t.Fatalf("%d books for a two-shard map, want 3", len(parts))
	}
	for i := 0; i < agg.NumField(); i++ {
		if agg.Field(i).Kind() != reflect.Int64 {
			continue
		}
		name := agg.Type().Field(i).Name
		var sum int64
		for _, p := range parts {
			n := reflect.ValueOf(p).Field(i).Int()
			if n == 0 {
				t.Fatalf("%s is zero in one of the books: the loop above no longer reaches it", name)
			}
			sum += n
		}
		if got := agg.Field(i).Int(); got != sum {
			t.Errorf("AggregateSnapshot.%s = %d, want the sum of the books %d", name, got, sum)
		}
	}
}

// TestShardedCrossShardRetire is the cross-shard retire regression test:
// concurrent composite handles insert and remove keys spanning every
// shard, so each handle retires nodes into several shards' defer batches.
// The pinning invariant demands that every shard's books balance
// independently, the global bound be the sum of the per-shard bounds,
// and Close drain all shards to zero.
func TestShardedCrossShardRetire(t *testing.T) {
	const shards = 4
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, shardedCfg(shards))
	if err != nil {
		t.Fatal(err)
	}
	single, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 256, hpbrcu.Config{
		Reaper: hpbrcu.ReaperConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hpbrcu.Close(single, 5*time.Second)

	// Σ-over-shards bound: each shard runs an identical config, so the
	// sharded bound is exactly shards× the single-domain bound.
	if sb, ub := hpbrcu.GarbageBound(m, 0), hpbrcu.GarbageBound(single, 0); sb != shards*ub {
		t.Fatalf("GarbageBound sharded=%d, single=%d: want Σ over shards (=%d)", sb, ub, shards*ub)
	}

	const workers, ops, keyRange = 8, 3000, 512
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Int63n(keyRange)
				if rng.Intn(2) == 0 {
					h.Insert(k, k)
				} else {
					h.Remove(k)
				}
			}
			h.Barrier()
		}(int64(w) * 7919)
	}
	wg.Wait()

	// Every shard must have seen retire traffic of its own: a dense key
	// range crossed through per-goroutine composite handles reaches all
	// of them.
	for i, s := range hpbrcu.ShardSnapshots(m) {
		if s.Retired == 0 {
			t.Errorf("shard %d retired nothing — cross-shard routing is not reaching it", i)
		}
		if s.Reclaimed > s.Retired {
			t.Errorf("shard %d books corrupt: reclaimed %d > retired %d", i, s.Reclaimed, s.Retired)
		}
	}

	if err := hpbrcu.Close(m, 10*time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Post-close: every shard's books balance independently, and the
	// aggregate agrees.
	for i, s := range hpbrcu.ShardSnapshots(m) {
		if s.Unreclaimed != 0 || s.Retired != s.Reclaimed {
			t.Errorf("shard %d unbalanced after Close: retired=%d reclaimed=%d unreclaimed=%d",
				i, s.Retired, s.Reclaimed, s.Unreclaimed)
		}
	}
	agg := hpbrcu.AggregateSnapshot(m)
	if agg.Unreclaimed != 0 || agg.Retired != agg.Reclaimed || agg.Retired == 0 {
		t.Errorf("aggregate unbalanced after Close: retired=%d reclaimed=%d unreclaimed=%d",
			agg.Retired, agg.Reclaimed, agg.Unreclaimed)
	}

	// Facade traffic after Close fails closed, not load-shed.
	if _, err := m.Insert(1, 1); err == nil || hpbrcu.IsLoadShed(err) {
		t.Errorf("Insert after Close: err=%v, want a non-load-shed failure", err)
	}
	// Close is idempotent.
	if err := hpbrcu.Close(m, time.Second); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestUnshardedPressureHelpers pins the helpers' unsharded fallbacks so
// services can call them unconditionally.
func TestUnshardedPressureHelpers(t *testing.T) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 64, hpbrcu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer hpbrcu.Close(m, 5*time.Second)

	if got := hpbrcu.ShardCount(m); got != 1 {
		t.Errorf("ShardCount unsharded = %d, want 1", got)
	}
	if got := hpbrcu.ShardOf(m, 12345); got != 0 {
		t.Errorf("ShardOf unsharded = %d, want 0", got)
	}
	if kp := hpbrcu.KeyPressure(m, 7); kp != hpbrcu.Pressure(m) {
		t.Errorf("KeyPressure unsharded = %v, want %v", kp, hpbrcu.Pressure(m))
	}
	rows := hpbrcu.ShardPressures(m)
	if len(rows) != 1 || rows[0].Shard != 0 {
		t.Errorf("ShardPressures unsharded = %+v, want one shard-0 row", rows)
	}
	if snaps := hpbrcu.ShardSnapshots(m); len(snaps) != 1 {
		t.Errorf("ShardSnapshots unsharded returned %d rows, want 1", len(snaps))
	}
}
