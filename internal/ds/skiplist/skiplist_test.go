package skiplist

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
)

// variants builds the skip list under every scheme its constructors
// accept, fresh for each check. Every check ends on CheckSlow (the tower
// invariants), through listtest.Of.
func variants() []listtest.Variant {
	small := core.Config{BackupPeriod: 8} // small period: exercise mid-descent checkpoints
	return []listtest.Variant{
		listtest.Of("NR", true, false, NewNR()),
		listtest.Of("EBR", true, true, NewEBR()),
		listtest.Of("HP", true, true, NewHP()),
		listtest.Of("HP-RCU", true, true, NewHPRCU(small)),
		listtest.Of("HP-BRCU", true, true, NewHPBRCU(small)),
	}
}

func TestSequentialSemantics(t *testing.T) { listtest.Sequential(t, variants()) }
func TestSequentialBulk(t *testing.T)      { listtest.Bulk(t, variants()) }
func TestConcurrentMixed(t *testing.T)     { listtest.ConcurrentMixed(t, variants()) }
func TestConcurrentDisjoint(t *testing.T)  { listtest.ConcurrentDisjoint(t, variants()) }
func TestConcurrentContended(t *testing.T) { listtest.ConcurrentContended(t, variants()) }
func TestReclamationBalance(t *testing.T)  { listtest.ReclamationBalance(t, variants()) }

// TestChurn is the check that found the retirement protocol unsound: at
// the parent of the commit that added it, the RCU and HP skip lists
// livelock within ~3 s (package comment, DESIGN.md §3.2).
func TestChurn(t *testing.T) {
	vs := variants()
	// The production posture skips mid-descent checkpoints.
	vs = append(vs, listtest.Of("HP-BRCU-default", true, true, NewHPBRCU(core.Config{})))
	listtest.Churn(t, vs)
}

func TestRandomHeightDistribution(t *testing.T) {
	rng := atomicx.NewRand(12345)
	counts := make([]int, MaxHeight+1)
	const n = 100000
	for i := 0; i < n; i++ {
		h := randomHeight(rng)
		if h < 1 || h > MaxHeight {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	// Height 1 should be ~50%, height 2 ~25%.
	if counts[1] < n*4/10 || counts[1] > n*6/10 {
		t.Fatalf("height-1 fraction off: %d/%d", counts[1], n)
	}
	if counts[2] < n*2/10 || counts[2] > n*3/10 {
		t.Fatalf("height-2 fraction off: %d/%d", counts[2], n)
	}
}
