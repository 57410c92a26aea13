package hpbrcu

// Containment through the facade's one deferred call: Get, Insert and
// Remove run the structure handle directly, so checkin alone decides what
// a panic does to the operation's result and to its pooled entry.

import (
	"errors"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// boomHandle is a structure handle whose every operation panics with
// value (none while value is nil).
type boomHandle struct{ value any }

func (b *boomHandle) boom() {
	if b.value != nil {
		panic(b.value)
	}
}
func (b *boomHandle) Get(int64) (int64, bool)    { b.boom(); return 7, true }
func (b *boomHandle) Insert(int64, int64) bool   { b.boom(); return true }
func (b *boomHandle) Remove(int64) (int64, bool) { b.boom(); return 7, true }
func (b *boomHandle) Unregister()                {}
func (b *boomHandle) Barrier()                   {}

// boomMap is a map whose handles are b, under the given panic policy; it
// counts its registrations.
func boomMap(b *boomHandle, rec bool) (*mapImpl, *int) {
	st := &stats.Reclamation{}
	minted := new(int)
	m := &mapImpl{
		reg: func() MapHandle { *minted++; return b },
		st:  func() *stats.Reclamation { return st },
		rec: rec,
	}
	return m.withPool(Config{Pool: PoolConfig{Size: 1}}), minted
}

// facadeOps runs each facade point operation and reports its error.
var facadeOps = map[string]func(m Map) error{
	"Get":    func(m Map) error { _, _, err := m.Get(1); return err },
	"Insert": func(m Map) error { _, err := m.Insert(1, 1); return err },
	"Remove": func(m Map) error { _, _, err := m.Remove(1); return err },
}

func TestFacadeContainsThroughOneDefer(t *testing.T) {
	for name, op := range facadeOps {
		t.Run(name+"/recover", func(t *testing.T) {
			for _, poisoned := range []bool{false, true} {
				pe := &PanicError{Value: "boom", Op: name, Poisoned: poisoned}
				b := &boomHandle{value: pe}
				m, minted := boomMap(b, true)
				if err := op(m); err != pe {
					t.Fatalf("poisoned=%v: err = %v, want the *PanicError", poisoned, err)
				}
				// A restored handle goes back to the pool; a poisoned one
				// is retired, and the next checkout mints.
				wantLive, wantMinted := int64(1), 1
				if poisoned {
					wantLive, wantMinted = 0, 2
				}
				if live := m.hpool.Load().Live(); live != wantLive {
					t.Fatalf("poisoned=%v: Live = %d after the contained panic, want %d", poisoned, live, wantLive)
				}
				b.value = nil
				if err := op(m); err != nil {
					t.Fatalf("poisoned=%v: clean op after containment: %v", poisoned, err)
				}
				if *minted != wantMinted {
					t.Fatalf("poisoned=%v: %d handles minted, want %d", poisoned, *minted, wantMinted)
				}
			}
		})
		t.Run(name+"/recover-foreign", func(t *testing.T) {
			// A panic the containment layer did not raise is not its to
			// swallow, even under PanicRecover.
			boom := errors.New("foreign")
			m, _ := boomMap(&boomHandle{value: boom}, true)
			checkRethrown(t, m, op, boom)
		})
		t.Run(name+"/rethrow", func(t *testing.T) {
			boom := errors.New("boom")
			m, _ := boomMap(&boomHandle{value: boom}, false)
			checkRethrown(t, m, op, boom)
		})
		t.Run(name+"/closed", func(t *testing.T) {
			m, _ := boomMap(&boomHandle{}, true)
			if err := op(m); err != nil {
				t.Fatal(err)
			}
			if err := Close(m, time.Second); err != nil {
				t.Fatal(err)
			}
			if err := op(m); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v after Close, want ErrClosed", err)
			}
		})
	}
}

// checkRethrown runs op on a map whose handle panics with boom: the panic
// must leave the operation, and the entry must be retired.
func checkRethrown(t *testing.T, m *mapImpl, op func(Map) error, boom error) {
	t.Helper()
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the original panic", r)
			}
		}()
		op(m)
	}()
	if live := m.hpool.Load().Live(); live != 0 {
		t.Fatalf("Live = %d after a rethrown panic, want 0 (the entry retired)", live)
	}
}

// TestFacadeContainsInjectedPanic is the same contract on a real HP-BRCU
// map in the production posture: an injected panic mid-Get comes back as
// a *PanicError under PanicRecover with the handle recycled, and is
// rethrown under PanicRethrow with the handle retired.
func TestFacadeContainsInjectedPanic(t *testing.T) {
	for _, policy := range []PanicPolicy{PanicRecover, PanicRethrow} {
		m, err := NewHashMap(HPBRCU, 64, Config{
			PanicPolicy:  policy,
			Reaper:       ReaperConfig{Enabled: true},
			Backpressure: BackpressureConfig{Enabled: true},
			Pool:         PoolConfig{Size: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Insert(5, 10); err != nil {
			t.Fatal(err)
		}
		var plans [fault.NumSites]fault.Plan
		plans[fault.SitePanic] = fault.Plan{Period: 1, Cooldown: 1 << 62}
		fault.Activate(fault.New(fault.Config{Seed: 1, Plans: plans}))
		var r any
		func() {
			defer func() { r = recover() }()
			_, _, err = m.Get(5)
		}()
		fault.Deactivate()
		live := m.(*mapImpl).hpool.Load().Live()
		var pe *PanicError
		switch {
		case policy == PanicRecover && (r != nil || !errors.As(err, &pe) || pe.Value != fault.ErrInjectedPanic):
			t.Fatalf("PanicRecover: Get returned %v and panicked %v, want the injected *PanicError", err, r)
		case policy == PanicRecover && live != 1:
			t.Fatalf("PanicRecover: Live = %d, want the restored handle back in the pool", live)
		case policy == PanicRethrow && r != fault.ErrInjectedPanic:
			t.Fatalf("PanicRethrow: recovered %v, want the injected panic", r)
		case policy == PanicRethrow && live != 0:
			t.Fatalf("PanicRethrow: Live = %d, want the handle retired", live)
		}
		if v, ok, err := m.Get(5); err != nil || !ok || v != 10 {
			t.Fatalf("Get after containment = (%d, %v, %v), want (10, true, nil)", v, ok, err)
		}
		if err := Close(m, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
