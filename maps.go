package hpbrcu

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hashmap"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
	"github.com/smrgo/hpbrcu/internal/ds/nmtree"
	"github.com/smrgo/hpbrcu/internal/ds/skiplist"
	"github.com/smrgo/hpbrcu/internal/ebr"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/nbr"
	"github.com/smrgo/hpbrcu/internal/reap"
	"github.com/smrgo/hpbrcu/internal/stats"
	"github.com/smrgo/hpbrcu/internal/vbr"
)

// mapImpl adapts a data-structure variant to the Map interface.
type mapImpl struct {
	scheme Scheme
	reg    func() MapHandle
	st     func() *stats.Reclamation
	dom    *core.Domain       // non-nil for HP-RCU/HP-BRCU maps
	jan    *core.Janitor      // non-nil when Config.Reaper started one
	bp     *reap.Backpressure // non-nil when Config.Backpressure enabled
	rec    bool               // Config.PanicPolicy == PanicRecover

	// The handle pool behind the handle-free facade, created lazily on
	// the first facade operation (see facade.go). poolCfg is copied from
	// Config at construction so the lazy init needs no lock on the map's
	// configuration.
	poolCfg PoolConfig
	hpool   atomic.Pointer[handlePool]
	poolMu  sync.Mutex

	closed    atomic.Bool // Close has begun: stop admitting operations
	closeOnce sync.Once
	closeErr  error
}

// withPool records the facade pool configuration; every constructor
// chains it (directly or via withDomain) so the handle-free facade works
// on every scheme.
func (m *mapImpl) withPool(cfg Config) *mapImpl {
	m.poolCfg = cfg.Pool
	return m
}

func (m *mapImpl) Register() MapHandle {
	if m.closed.Load() {
		// Post-Close registration returns an inert stub: every operation
		// latches and reports ErrClosed, Unregister is a no-op. Returning
		// a handle (rather than nil) keeps worker loops panic-free.
		return &guardedHandle{m: m, err: ErrClosed}
	}
	// The guard is the only wrapper: the structure handle's optional
	// capabilities are resolved here, once, not asserted per operation.
	h := m.reg()
	g := &guardedHandle{m: m, inner: h}
	g.ctx, _ = h.(ContextHandle)
	return g
}
func (m *mapImpl) Stats() *Stats  { return m.st() }
func (m *mapImpl) Scheme() Scheme { return m.scheme }

// withDomain records the HP-(B)RCU domain for GarbageBound and starts the
// janitor when the configuration asks for one of its stages (HP-BRCU
// domains only). Backpressure installs first: the janitor's tick
// refreshes its thresholds.
func (m *mapImpl) withDomain(d *core.Domain, cfg Config) *mapImpl {
	m.withPool(cfg)
	m.dom = d
	m.rec = cfg.PanicPolicy == PanicRecover
	if cfg.Backpressure.Enabled {
		m.bp = d.EnableBackpressure(cfg.coreBackpressureConfig())
	}
	m.jan = d.StartJanitor(cfg.CoreJanitorConfig())
	return m
}

func (c Config) ebrOpts(s Scheme) []ebr.Option {
	opts := []ebr.Option{ebr.WithBatchSize(c.BatchSize)}
	if s == NR {
		opts = append(opts, ebr.NoReclaim())
	}
	return opts
}

func (c Config) hpOpts() []hp.Option {
	return []hp.Option{hp.WithScanThreshold(c.BatchSize)}
}

func (c Config) nbrOpts(s Scheme) []nbr.Option {
	batch := c.BatchSize
	if s == NBRLarge {
		batch = nbr.LargeBatchSize
	}
	return []nbr.Option{nbr.WithBatchSize(batch)}
}

// backend maps HPRCU/HPBRCU to the core backend behind them.
func (s Scheme) backend() core.Backend {
	if s == HPRCU {
		return core.BackendRCU
	}
	return core.BackendBRCU
}

// structure is what every data-structure variant offers the adapter: a
// typed Register and its books.
type structure[H MapHandle] interface {
	Register() H
	Stats() *stats.Reclamation
}

// plain adapts a variant without an HP-(B)RCU domain to Map.
func plain[H MapHandle](s Scheme, cfg Config, l structure[H]) (Map, error) {
	m := &mapImpl{scheme: s, reg: func() MapHandle { return l.Register() }, st: l.Stats}
	return m.withPool(cfg), nil
}

// expedited adapts an HP-RCU/HP-BRCU variant to Map.
func expedited[H MapHandle](s Scheme, cfg Config, l interface {
	structure[H]
	Domain() *core.Domain
}) (Map, error) {
	m := &mapImpl{scheme: s, reg: func() MapHandle { return l.Register() }, st: l.Stats}
	return m.withDomain(l.Domain(), cfg), nil
}

// structureID indexes structures.
type structureID int

const (
	hList structureID = iota
	hhsList
	hmList
	hashMap
	skipList
	nmTree
)

// structures is the applicability table (Table 1): each public structure
// is a name, the schemes that apply to it, and one build function. The
// four list rows are one hlist kind each and differ in nothing else —
// HashMap is the same list with `heads` head sentinels.
var structures = [...]struct {
	name    string
	schemes []Scheme
	build   func(s Scheme, heads int, cfg Config) (Map, error)
}{
	hList:    {"HList", []Scheme{NR, RCU, NBR, NBRLarge, HPRCU, HPBRCU, VBR}, listOf(hlist.Harris)},
	hhsList:  {"HHSList", []Scheme{NR, RCU, NBR, NBRLarge, HPRCU, HPBRCU, VBR}, listOf(hlist.HHS)},
	hmList:   {"HMList", []Scheme{NR, RCU, HP, HPRCU, HPBRCU}, listOf(hlist.HarrisMichael)},
	hashMap:  {"HashMap", []Scheme{NR, RCU, HP, NBR, NBRLarge, HPRCU, HPBRCU, VBR}, listOf(hlist.HHS)},
	skipList: {"SkipList", []Scheme{NR, RCU, HP, HPRCU, HPBRCU}, buildSkipList},
	nmTree:   {"NMTree", []Scheme{NR, RCU, NBR, NBRLarge, HPRCU, HPBRCU}, buildNMTree},
}

// newStructure builds structure st under scheme s, if Table 1 has that
// cell. heads is the number of head sentinels (the hash map's buckets).
func newStructure(st structureID, s Scheme, heads int, cfg Config) (Map, error) {
	row := &structures[st]
	if !slices.Contains(row.schemes, s) {
		return nil, &ErrUnsupported{Structure: row.name, Scheme: s}
	}
	return row.build(s, heads, cfg)
}

// listOf builds the member of the sorted-list family of kind k: one
// constructor per scheme.
func listOf(k hlist.Kind) func(Scheme, int, Config) (Map, error) {
	return func(s Scheme, heads int, cfg Config) (Map, error) {
		switch s {
		case NR, RCU:
			return plain(s, cfg, hlist.NewEBROf(k, heads, cfg.ebrOpts(s)...))
		case HP: // Harris-Michael whatever the row says: Figure 2
			return plain(s, cfg, hlist.NewHPOf(heads, cfg.hpOpts()...))
		case NBR, NBRLarge:
			return plain(s, cfg, hlist.NewNBROf(k, heads, cfg.nbrOpts(s)...))
		case VBR: // its own list algorithm (internal/vbr), optimistic Get for every kind
			if heads > 1 {
				return plain(s, cfg, hashmap.NewVBR(heads))
			}
			return plain(s, cfg, vbr.New())
		default: // HPRCU, HPBRCU
			return expedited(s, cfg, hlist.NewExpeditedOf(s.backend(), k, heads, cfg.CoreConfig()))
		}
	}
}

func buildSkipList(s Scheme, _ int, cfg Config) (Map, error) {
	switch s {
	case NR, RCU:
		return plain(s, cfg, skiplist.NewEBR(cfg.ebrOpts(s)...))
	case HP:
		return plain(s, cfg, skiplist.NewHP(cfg.hpOpts()...))
	case HPRCU:
		return expedited(s, cfg, skiplist.NewHPRCU(cfg.CoreConfig()))
	default:
		return expedited(s, cfg, skiplist.NewHPBRCU(cfg.CoreConfig()))
	}
}

func buildNMTree(s Scheme, _ int, cfg Config) (Map, error) {
	switch s {
	case NR, RCU:
		return plain(s, cfg, nmtree.NewEBR(cfg.ebrOpts(s)...))
	case NBR, NBRLarge:
		return plain(s, cfg, nmtree.NewNBR(cfg.nbrOpts(s)...))
	case HPRCU:
		return expedited(s, cfg, nmtree.NewHPRCU(cfg.CoreConfig()))
	default:
		return expedited(s, cfg, nmtree.NewHPBRCU(cfg.CoreConfig()))
	}
}

// NewHList creates Harris's linked list [Harris 2001] (optimistic
// traversal; gets help with run excision). Supported schemes: NR, RCU,
// NBR(-Large), HP-RCU, HP-BRCU. Plain HP does not apply (Figure 2).
func NewHList(s Scheme, cfg Config) (Map, error) {
	return newStructure(hList, s, 1, cfg)
}

// NewHHSList creates the paper's HHSList: Harris's list whose get is the
// Herlihy-Shavit wait-free-style contains (no helping). Same scheme
// support as NewHList.
func NewHHSList(s Scheme, cfg Config) (Map, error) {
	return newStructure(hhsList, s, 1, cfg)
}

// NewHMList creates the Harris-Michael linked list [Michael 2002]
// (helping during traversal). Supported schemes: NR, RCU, HP, HP-RCU,
// HP-BRCU. NBR does not apply (Table 1): the traversal performs writes.
func NewHMList(s Scheme, cfg Config) (Map, error) {
	return newStructure(hmList, s, 1, cfg)
}

// NewHashMap creates the paper's chaining hash table (§6): buckets are
// HMList under plain HP and HHSList under every other scheme. All schemes
// are supported.
func NewHashMap(s Scheme, buckets int, cfg Config) (Map, error) {
	if buckets < 1 {
		buckets = 1
	}
	return newStructure(hashMap, s, buckets, cfg)
}

// DefaultBuckets sizes a hash map for a key range at the paper's chain
// length (~1.7 at 50% fill).
func DefaultBuckets(keyRange int64) int { return hashmap.DefaultBucketsFor(keyRange) }

// NewSkipList creates the Herlihy-Shavit lock-free skip list. Supported
// schemes: NR, RCU, HP (helping get only), HP-RCU, HP-BRCU (wait-free-
// style get for all non-HP schemes). NBR does not apply (Table 1).
func NewSkipList(s Scheme, cfg Config) (Map, error) {
	return newStructure(skipList, s, 1, cfg)
}

// NewNMTree creates the Natarajan-Mittal lock-free external BST.
// Supported schemes: NR, RCU, NBR(-Large), HP-RCU, HP-BRCU. Plain HP does
// not apply (Table 1).
func NewNMTree(s Scheme, cfg Config) (Map, error) {
	return newStructure(nmTree, s, 1, cfg)
}

// GarbageBound returns the §5 robustness bound 2GN+GN²+H for an HP-BRCU
// map, or -1 when m is not HP-BRCU-backed or the bound is unavailable.
func GarbageBound(m Map, shields int) int64 {
	if impl, ok := m.(*mapImpl); ok && impl.dom != nil {
		return impl.dom.GarbageBound(shields)
	}
	return -1
}

// GarbageBoundObserved returns the §5 bound 2GN+GN²+H for an HP-BRCU map,
// evaluated with the peak thread count N and peak registered-shield count
// H the domain actually observed — the bound a finished run's
// PeakUnreclaimed must respect. It returns -1 when m is not
// HP-BRCU-backed.
func GarbageBoundObserved(m Map) int64 {
	if impl, ok := m.(*mapImpl); ok && impl.dom != nil {
		return impl.dom.GarbageBoundObserved()
	}
	return -1
}

// AggregateSnapshot returns the whole map's reclamation snapshot. A map is
// one domain, so this is m.Stats().Snapshot().
func AggregateSnapshot(m Map) StatsSnapshot { return m.Stats().Snapshot() }

// ResetUnreclaimedPeaks re-bases m's PeakUnreclaimed at its current level
// (Gauge.ResetPeak); benchmarks call it after prefilling so reported
// peaks cover only the measured interval.
func ResetUnreclaimedPeaks(m Map) { m.Stats().Unreclaimed.ResetPeak() }
