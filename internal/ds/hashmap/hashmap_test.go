package hashmap

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
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
