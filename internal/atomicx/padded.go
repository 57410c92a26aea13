package atomicx

import "sync/atomic"

// Padded is a cache-line-padded atomic.Uint64: the word owns its cache
// line, so two Padded values updated by different threads never false-share
// no matter how the allocator or an enclosing array packs them.
//
// Use it for per-handle hot words that sit in shared arrays or in small
// heap objects the allocator co-locates — HP shield slots are the canonical
// case: a bare shield is an 8-byte object, so Go's size classes pack eight
// of them (usually belonging to eight different threads) into one line, and
// every Protect store invalidates seven other threads' cached copies. The
// padding trades 56 bytes per word for private lines; over-padding is
// harmless (see CacheLineSize).
type Padded struct {
	atomic.Uint64
	_ [CacheLineSize - 8]byte
}
