package registry

import (
	"sync"
	"testing"
)

type member struct{ id int }

func TestAddRemoveSnapshot(t *testing.T) {
	var r Registry[member]
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("zero registry must be empty")
	}
	a, b, c := &member{1}, &member{2}, &member{3}
	r.Add(a)
	r.Add(b)
	r.Add(c)
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	r.Remove(b)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0] != a || snap[1] != c {
		t.Fatalf("snapshot = %v", snap)
	}
	// Removing an absent member is a no-op.
	r.Remove(b)
	if r.Len() != 2 {
		t.Fatal("remove of absent member changed membership")
	}
}

func TestSnapshotImmutableUnderMutation(t *testing.T) {
	var r Registry[member]
	a, b := &member{1}, &member{2}
	r.Add(a)
	snap := r.Snapshot()
	r.Add(b)
	r.Remove(a)
	if len(snap) != 1 || snap[0] != a {
		t.Fatal("an earlier snapshot changed after mutation")
	}
}

func TestConcurrentChurn(t *testing.T) {
	var r Registry[member]
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := &member{i}
				r.Add(m)
				// Concurrent readers must always see a consistent slice.
				for _, e := range r.Snapshot() {
					if e == nil {
						t.Error("nil member in snapshot")
						return
					}
				}
				r.Remove(m)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("len = %d after balanced add/remove", r.Len())
	}
}

// TestConcurrentAddRemoveSnapshot interleaves targeted removes, removers
// sweeping a snapshot member by member, and snapshot readers with
// registrations — reclaimers scanning while workers come and go. Run under
// -race it stresses the registry's copy-on-write contract.
func TestConcurrentAddRemoveSnapshot(t *testing.T) {
	var r Registry[member]
	var wg sync.WaitGroup
	const (
		adders   = 4
		removers = 2
		readers  = 2
		rounds   = 300
	)
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := &member{id: w*rounds + i}
				r.Add(m)
				if i%3 == 0 {
					r.Remove(m) // targeted remove racing the sweeps
				}
			}
		}(w)
	}
	for w := 0; w < removers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, m := range r.Snapshot() {
					if m.id%removers == w {
						r.Remove(m)
					}
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				prev := -1
				for _, e := range r.Snapshot() {
					if e == nil {
						t.Error("nil member in snapshot")
						return
					}
					_ = prev
					prev = e.id
				}
			}
		}()
	}
	wg.Wait()
	// Drain the survivors; the registry must end empty and stay usable.
	for _, m := range r.Snapshot() {
		r.Remove(m)
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d after removing every member", r.Len())
	}
	m := &member{99}
	r.Add(m)
	if snap := r.Snapshot(); len(snap) != 1 || snap[0] != m {
		t.Fatal("registry unusable after concurrent churn")
	}
}
