// Package registry provides the copy-on-write participant registry shared
// by every reclamation scheme: writers (register/unregister) are rare and
// take a mutex; readers (reclaimers scanning all threads) get a consistent
// immutable snapshot with a single atomic load.
package registry

import (
	"sync"
	"sync/atomic"
)

// Registry is a concurrent set of *T with lock-free snapshot reads.
// The zero value is ready to use.
type Registry[T any] struct {
	mu   sync.Mutex
	list atomic.Pointer[[]*T]
}

// Snapshot returns the current membership. The returned slice is immutable;
// callers must not modify it.
func (r *Registry[T]) Snapshot() []*T {
	p := r.list.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Add inserts v.
func (r *Registry[T]) Add(v *T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.Snapshot()
	next := make([]*T, len(old)+1)
	copy(next, old)
	next[len(old)] = v
	r.list.Store(&next)
}

// Remove deletes v if present.
func (r *Registry[T]) Remove(v *T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.Snapshot()
	next := make([]*T, 0, len(old))
	for _, o := range old {
		if o != v {
			next = append(next, o)
		}
	}
	r.list.Store(&next)
}

// Len returns the current number of members.
func (r *Registry[T]) Len() int { return len(r.Snapshot()) }
