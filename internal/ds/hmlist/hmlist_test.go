package hmlist

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
)

// variants builds the Harris-Michael list under every scheme its
// constructors accept, fresh for each check.
func variants() []listtest.Variant {
	small := core.Config{BackupPeriod: 4} // small period: exercise phase switches
	return []listtest.Variant{
		listtest.Of("NR", true, false, NewNR()),
		listtest.Of("EBR", true, true, NewEBR()),
		listtest.Of("HP", true, true, NewHP()),
		listtest.Of("HP-RCU", true, true, NewHPRCU(small)),
		listtest.Of("HP-BRCU", true, true, NewHPBRCU(small)),
	}
}

func TestSequentialSemantics(t *testing.T)    { listtest.Sequential(t, variants()) }
func TestSequentialBulk(t *testing.T)         { listtest.Bulk(t, variants()) }
func TestConcurrentMixed(t *testing.T)        { listtest.ConcurrentMixed(t, variants()) }
func TestConcurrentDisjointKeys(t *testing.T) { listtest.ConcurrentDisjoint(t, variants()) }
func TestConcurrentContendedKey(t *testing.T) { listtest.ConcurrentContended(t, variants()) }
func TestReclamationBalance(t *testing.T)     { listtest.ReclamationBalance(t, variants()) }
func TestChurn(t *testing.T)                  { listtest.Churn(t, variants()) }

// TestExpeditedLongTraversal drives a traversal much longer than the
// backup period so checkpoints and (for BRCU) epoch refreshes actually
// trigger, with concurrent deleters churning the prefix of the list.
func TestExpeditedLongTraversal(t *testing.T) {
	for _, mk := range []struct {
		name string
		l    *Expedited
	}{
		{"HP-RCU", NewHPRCU(core.Config{BackupPeriod: 8})},
		{"HP-BRCU", NewHPBRCU(core.Config{BackupPeriod: 8, MaxLocalTasks: 16, ForceThreshold: 2})},
	} {
		t.Run(mk.name, func(t *testing.T) {
			l := mk.l
			const n = 2000
			{
				h := l.Register()
				for i := int64(0); i < n; i++ {
					h.Insert(i*2, i) // even keys
				}
				h.Unregister()
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			// Churners: insert/remove odd keys near the head, forcing
			// epoch pressure and (for BRCU) neutralizations.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					h := l.Register()
					defer h.Unregister()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := rng.Int63n(200)*2 + 1
						h.Insert(k, k)
						h.Remove(k)
					}
				}(int64(w + 1))
			}

			reader := l.Register()
			for i := 0; i < 30; i++ {
				// Full-length traversals: Get of the last key.
				if _, ok := reader.Get((n - 1) * 2); !ok {
					t.Fatal("tail key vanished")
				}
			}
			reader.Unregister()
			close(stop)
			wg.Wait()

			if mk.name == "HP-BRCU" {
				s := l.Stats().Snapshot()
				t.Logf("signals=%d rollbacks=%d advances=%d forced=%d peak=%d",
					s.Signals, s.Rollbacks, s.EpochAdvances, s.ForcedAdvances, s.PeakUnreclaimed)
			}
		})
	}
}
