package hashmap

import (
	"runtime"
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
)

// variants builds the hash map under every scheme that shares the list
// family's code, fresh for each check (the VBR map is a different list;
// the root package's model tests cover it).
func variants(buckets int) []listtest.Variant {
	small := core.Config{BackupPeriod: 4}
	return []listtest.Variant{
		listtest.Of("NR", false, false, NewNR(buckets)),
		listtest.Of("EBR", false, true, NewEBR(buckets)),
		listtest.Of("HP", false, true, NewHP(buckets)),
		listtest.Of("HP-RCU", false, true, NewHPRCU(buckets, small)),
		listtest.Of("HP-BRCU", false, true, NewHPBRCU(buckets, small)),
		listtest.Of("NBR", false, true, NewNBR(buckets)),
		listtest.Of("NBR-Large", false, true, NewNBRLarge(buckets)),
	}
}

func TestSequentialSemantics(t *testing.T) { listtest.Sequential(t, variants(16)) }
func TestSequentialBulk(t *testing.T)      { listtest.Bulk(t, variants(16)) }

// TestSingleBucketDegenerate: with one bucket the map degenerates to a
// single list; all keys collide.
func TestSingleBucketDegenerate(t *testing.T) { listtest.Bulk(t, variants(1)) }

func TestConcurrentMixed(t *testing.T)        { listtest.ConcurrentMixed(t, variants(32)) }
func TestConcurrentDisjointKeys(t *testing.T) { listtest.ConcurrentDisjoint(t, variants(32)) }
func TestConcurrentContendedKey(t *testing.T) { listtest.ConcurrentContended(t, variants(2)) }

// TestReclamationAcrossBuckets: one domain and one pool serve all buckets,
// so the books must balance map-wide.
func TestReclamationAcrossBuckets(t *testing.T) { listtest.ReclamationBalance(t, variants(8)) }

// TestChurn: 1 024 keys over 256 buckets, about two live keys a chain.
func TestChurn(t *testing.T) { listtest.Churn(t, variants(256)) }

// TestVBROneCachePerHandle: a VBR handle is single-threaded, so it owns
// one allocation cache for all its buckets. A cache per (handle, bucket)
// made Register cost three allocations a bucket, and every bucket a handle
// touched carved its own batch of 64 fresh slots: one live node per 64
// slots, a 320 KB slab every 128 buckets.
func TestVBROneCachePerHandle(t *testing.T) {
	const buckets = 4096
	m := NewVBR(buckets)
	if n := testing.AllocsPerRun(10, func() { m.Register() }); n > 4 {
		t.Errorf("Register on a %d-bucket map allocates %v objects; want <= 4, whatever the bucket count", buckets, n)
	}

	var keys []int64 // one key in each of 2 048 distinct buckets
	taken := make([]bool, buckets)
	for k := int64(0); len(keys) < buckets/2; k++ {
		if b := hlist.BucketOf(k, buckets); !taken[b] {
			taken[b] = true
			keys = append(keys, k)
		}
	}
	h := m.Register()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys {
		if !h.Insert(k, k) {
			t.Fatalf("Insert(%d) into an empty map failed", k)
		}
	}
	runtime.ReadMemStats(&after)
	// The heads fill half of the first slab and these nodes fit in the
	// rest: the inserts should carve no slab at all.
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("%d inserts into distinct buckets allocated %d KB; want < 1 MB (at most one slab)", len(keys), grew>>10)
	}
}
