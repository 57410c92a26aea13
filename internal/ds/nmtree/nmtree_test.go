package nmtree

import (
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
	"github.com/smrgo/hpbrcu/internal/nbr"
)

// variants builds the tree under every scheme its constructors accept,
// fresh for each check.
func variants() []listtest.Variant {
	return []listtest.Variant{
		listtest.Of("NR", true, false, NewNR()),
		listtest.Of("EBR", true, true, NewEBR()),
		listtest.Of("HP-RCU", true, true, NewHPRCU(core.Config{})),
		listtest.Of("HP-BRCU", true, true, NewHPBRCU(core.Config{})),
		listtest.Of("NBR", true, true, NewNBR()),
	}
}

func TestSequentialSemantics(t *testing.T) { listtest.Sequential(t, variants()) }
func TestSequentialBulk(t *testing.T)      { listtest.Bulk(t, variants()) }
func TestConcurrentMixed(t *testing.T)     { listtest.ConcurrentMixed(t, variants()) }
func TestConcurrentDisjoint(t *testing.T)  { listtest.ConcurrentDisjoint(t, variants()) }
func TestConcurrentContended(t *testing.T) { listtest.ConcurrentContended(t, variants()) }
func TestChurn(t *testing.T)               { listtest.Churn(t, variants()) }

// TestFindFirstAttemptUnderSignals runs listtest.FindUnderSignals on an
// HP-BRCU tree: with no hook armed, every seek shields its record before
// its committing poll while a reclaimer that flushes at every retire
// signals the first laggard.
func TestFindFirstAttemptUnderSignals(t *testing.T) {
	tr := NewHPBRCU(core.Config{MaxLocalTasks: 1, ForceThreshold: 1, ScanThreshold: 1})
	listtest.FindUnderSignals(t, listtest.Of("NMTree/HP-BRCU", true, true, tr), 1<<8)
}

// TestReclamationBalanceMostlyDrains: a chain splice leaks the chain's
// interior (package comment) — without retiring it, so everything that is
// retired must still drain.
func TestReclamationBalanceMostlyDrains(t *testing.T) {
	listtest.ReclamationBalance(t, variants())
}

// stagedPos runs test code around a remover's seeks.
type stagedPos struct {
	positioner
	seeks  int
	before func(n int)                // before the nth seek
	after  func(n int, sr seekRecord) // after it, while its record is held
}

func (p *stagedPos) seek(key int64) seekRecord {
	p.seeks++
	p.before(p.seeks)
	sr := p.positioner.seek(key)
	p.after(p.seeks, sr)
	return sr
}

// leafSlot returns the slot of the leaf a seek for key ends on;
// single-threaded use only.
func leafSlot(t *tree, key int64) uint64 {
	c := t.seekInit()
	for !t.seekStep(key, &c) {
	}
	return c.sr.leaf
}

// stagedHandle adds the handle's shared half to the conformance surface,
// so the test below can wrap its positioner.
type stagedHandle interface {
	listtest.Handle
	shared() *ops
}

func (o *ops) shared() *ops { return o }

type stagedCase struct {
	name     string
	register func() stagedHandle
	recycles bool // nothing keeps the remover's record alive between its attempts
}

func newStagedCase[H stagedHandle](name string, recycles bool, l interface{ Register() H }) stagedCase {
	return stagedCase{name, func() stagedHandle { return l.Register() }, recycles}
}

// TestRemoveLosesSpliceToHelper stages the one way a remover meets its
// own leaf's slot again: it flags the leaf, loses the splice to a helper,
// and before its next seek the leaf is reclaimed and its slot comes back
// as the leaf of the same key, re-inserted. The remover must see that the
// edge is no longer flagged and return; it must neither spin (the NBR
// tree, before the removes were merged, re-ran cleanup on the new leaf for
// as long as the key stayed) nor delete the new incarnation. Where shields
// keep the record alive across the remover's attempts (HP-RCU, HP-BRCU)
// the slot cannot come back, and the remover returns on the slot mismatch.
func TestRemoveLosesSpliceToHelper(t *testing.T) {
	for _, c := range []stagedCase{
		newStagedCase("EBR", true, NewEBR(brcu.WithMaxLocalTasks(1))),
		newStagedCase("NBR", true, NewNBR(nbr.WithBatchSize(1))),
		newStagedCase("HP-RCU", false, NewHPRCU(core.Config{})),
		newStagedCase("HP-BRCU", false, NewHPBRCU(core.Config{})),
	} {
		t.Run(c.name, func(t *testing.T) {
			remover, helper := c.register(), c.register()
			defer remover.Unregister()
			defer helper.Unregister()
			// The filler keys use up the helper's first allocation batch (64
			// slots, two an insert) but for the three inserts below, so that
			// its next allocation — the new leaf of 20 — is the slot freed
			// last: the old leaf. 30, 20 after 10 then builds
			// G(30){P(20){10, 20}, 30}: removing 30 splices G out and leaves
			// the edge G→P tagged, which is what makes a cleanup through a
			// record taken before it fail.
			for k := int64(100); k < 129; k++ {
				helper.Insert(k, k)
			}
			for _, k := range []int64{10, 30, 20} {
				helper.Insert(k, k)
			}
			tr := remover.shared().t
			var doomed uint64
			recycled := false
			remover.shared().pos = &stagedPos{
				positioner: remover.shared().pos,
				after: func(n int, sr seekRecord) {
					if n == 1 { // the remover now holds a record through G
						doomed = sr.leaf
						helper.Remove(30)
					}
				},
				before: func(n int) {
					if n != 2 { // the remover flagged its leaf and lost the splice
						return
					}
					if _, ok := helper.Remove(20); ok {
						t.Error("the helper's Remove(20) removed a key that was already logically deleted")
					}
					// The old leaf and its parent are the two slots freed last;
					// which of them the new leaf gets depends on the order the
					// scheme freed them in, and a second round reverses it.
					for round := 0; round < 4 && !recycled; round++ {
						if round > 0 {
							helper.Remove(20)
						}
						for i := 0; i < 8; i++ {
							helper.Barrier()
						}
						helper.Insert(20, 200)
						recycled = leafSlot(tr, 20) == doomed
					}
				},
			}
			type result struct {
				val int64
				ok  bool
			}
			done := make(chan result, 1) // one send, so the remover never blocks on a test that gave up
			go func() {
				val, ok := remover.Remove(20)
				done <- result{val, ok}
			}()
			select {
			case r := <-done:
				if !r.ok || r.val != 20 {
					t.Fatalf("Remove(20) = %d,%v want 20,true", r.val, r.ok)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Remove(20) spins on the recycled leaf")
			}
			if recycled != c.recycles {
				t.Fatalf("doomed slot recycled = %v, want %v", recycled, c.recycles)
			}
			if val, ok := helper.Get(20); !ok || val != 200 {
				t.Fatalf("Get(20) = %d,%v want the re-inserted 200,true", val, ok)
			}
		})
	}
}
