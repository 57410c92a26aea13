package hpbrcu_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/stats"
)

type builder struct {
	name string
	mk   func(s hpbrcu.Scheme) (hpbrcu.Map, error)
}

func builders() []builder {
	cfg := hpbrcu.Config{}
	return []builder{
		{"HList", func(s hpbrcu.Scheme) (hpbrcu.Map, error) { return hpbrcu.NewHList(s, cfg) }},
		{"HHSList", func(s hpbrcu.Scheme) (hpbrcu.Map, error) { return hpbrcu.NewHHSList(s, cfg) }},
		{"HMList", func(s hpbrcu.Scheme) (hpbrcu.Map, error) { return hpbrcu.NewHMList(s, cfg) }},
		{"HashMap", func(s hpbrcu.Scheme) (hpbrcu.Map, error) { return hpbrcu.NewHashMap(s, 64, cfg) }},
		{"SkipList", func(s hpbrcu.Scheme) (hpbrcu.Map, error) { return hpbrcu.NewSkipList(s, cfg) }},
		{"NMTree", func(s hpbrcu.Scheme) (hpbrcu.Map, error) { return hpbrcu.NewNMTree(s, cfg) }},
	}
}

// TestApplicabilityMatrix pins Table 1 for the benchmark structures: which
// scheme×structure combinations must construct and which must refuse.
func TestApplicabilityMatrix(t *testing.T) {
	expect := map[string]map[hpbrcu.Scheme]bool{
		"HList":    {hpbrcu.NR: true, hpbrcu.RCU: true, hpbrcu.HP: false, hpbrcu.NBR: true, hpbrcu.NBRLarge: true, hpbrcu.VBR: true, hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true},
		"HHSList":  {hpbrcu.NR: true, hpbrcu.RCU: true, hpbrcu.HP: false, hpbrcu.NBR: true, hpbrcu.NBRLarge: true, hpbrcu.VBR: true, hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true},
		"HMList":   {hpbrcu.NR: true, hpbrcu.RCU: true, hpbrcu.HP: true, hpbrcu.NBR: false, hpbrcu.NBRLarge: false, hpbrcu.VBR: false, hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true},
		"HashMap":  {hpbrcu.NR: true, hpbrcu.RCU: true, hpbrcu.HP: true, hpbrcu.NBR: true, hpbrcu.NBRLarge: true, hpbrcu.VBR: true, hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true},
		"SkipList": {hpbrcu.NR: true, hpbrcu.RCU: true, hpbrcu.HP: true, hpbrcu.NBR: false, hpbrcu.NBRLarge: false, hpbrcu.VBR: false, hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true},
		"NMTree":   {hpbrcu.NR: true, hpbrcu.RCU: true, hpbrcu.HP: false, hpbrcu.NBR: true, hpbrcu.NBRLarge: true, hpbrcu.VBR: false, hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true},
	}
	for _, b := range builders() {
		for s, want := range expect[b.name] {
			m, err := b.mk(s)
			if want && err != nil {
				t.Errorf("%s/%s: want supported, got %v", b.name, s, err)
			}
			if !want {
				if err == nil {
					t.Errorf("%s/%s: want ErrUnsupported, got a map", b.name, s)
					continue
				}
				var eu *hpbrcu.ErrUnsupported
				if !errors.As(err, &eu) {
					t.Errorf("%s/%s: error is %T, want *ErrUnsupported", b.name, s, err)
				}
			}
			_ = m
		}
	}
}

// TestModelEquivalenceSequential drives every supported map with a random
// operation sequence and compares each result against a plain Go map.
func TestModelEquivalenceSequential(t *testing.T) {
	for _, b := range builders() {
		for _, s := range hpbrcu.Schemes {
			m, err := b.mk(s)
			if err != nil {
				continue
			}
			t.Run(b.name+"/"+s.String(), func(t *testing.T) {
				h := m.Register()
				defer h.Unregister()
				model := map[int64]int64{}
				rng := rand.New(rand.NewSource(99))
				for i := 0; i < 4000; i++ {
					k := rng.Int63n(128)
					switch rng.Intn(3) {
					case 0:
						_, inModel := model[k]
						got := h.Insert(k, k+1000)
						if got == inModel {
							t.Fatalf("op %d: Insert(%d)=%v, model has=%v", i, k, got, inModel)
						}
						if got {
							model[k] = k + 1000
						}
					case 1:
						want, inModel := model[k]
						got, ok := h.Remove(k)
						if ok != inModel || (ok && got != want) {
							t.Fatalf("op %d: Remove(%d)=(%d,%v), model=(%d,%v)", i, k, got, ok, want, inModel)
						}
						delete(model, k)
					default:
						want, inModel := model[k]
						got, ok := h.Get(k)
						if ok != inModel || (ok && got != want) {
							t.Fatalf("op %d: Get(%d)=(%d,%v), model=(%d,%v)", i, k, got, ok, want, inModel)
						}
					}
				}
			})
		}
	}
}

// TestModelEquivalenceQuick is the testing/quick form: any operation
// sequence over a small key space leaves the map and model in agreement.
func TestModelEquivalenceQuick(t *testing.T) {
	for _, s := range []hpbrcu.Scheme{hpbrcu.HPRCU, hpbrcu.HPBRCU} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			f := func(ops []uint16) bool {
				m, err := hpbrcu.NewHMList(s, hpbrcu.Config{BackupPeriod: 2})
				if err != nil {
					return false
				}
				h := m.Register()
				defer h.Unregister()
				model := map[int64]int64{}
				for _, op := range ops {
					k := int64(op % 32)
					switch (op / 32) % 3 {
					case 0:
						_, in := model[k]
						if h.Insert(k, k) == in {
							return false
						}
						model[k] = k
					case 1:
						_, in := model[k]
						if _, ok := h.Remove(k); ok != in {
							return false
						}
						delete(model, k)
					default:
						_, in := model[k]
						if _, ok := h.Get(k); ok != in {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentSmokeAllCombinations runs a short mixed workload on every
// supported structure × scheme pair.
func TestConcurrentSmokeAllCombinations(t *testing.T) {
	for _, b := range builders() {
		for _, s := range hpbrcu.Schemes {
			m, err := b.mk(s)
			if err != nil {
				continue
			}
			t.Run(b.name+"/"+s.String(), func(t *testing.T) {
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						h := m.Register()
						defer h.Unregister()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < 300; i++ {
							k := rng.Int63n(64)
							switch rng.Intn(3) {
							case 0:
								h.Insert(k, k)
							case 1:
								h.Remove(k)
							default:
								h.Get(k)
							}
						}
					}(int64(w + 1))
				}
				wg.Wait()
			})
		}
	}
}

// TestGarbageBound checks the exported §5 bound accessor.
func TestGarbageBound(t *testing.T) {
	m, err := hpbrcu.NewHMList(hpbrcu.HPBRCU, hpbrcu.Config{BatchSize: 8, ForceThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Register()
	defer h.Unregister()
	if b := hpbrcu.GarbageBound(m, 10); b <= 0 {
		t.Fatalf("bound = %d, want positive for HP-BRCU", b)
	}
	m2, _ := hpbrcu.NewHMList(hpbrcu.RCU, hpbrcu.Config{})
	if b := hpbrcu.GarbageBound(m2, 10); b != -1 {
		t.Fatalf("bound = %d for RCU, want -1 (unbounded)", b)
	}
}

// TestSchemeStrings pins names used in reports.
func TestSchemeStrings(t *testing.T) {
	want := []string{"NR", "RCU", "HP", "NBR", "NBR-Large", "VBR", "HP-RCU", "HP-BRCU"}
	for i, s := range hpbrcu.Schemes {
		if s.String() != want[i] {
			t.Fatalf("scheme %d = %q, want %q", i, s, want[i])
		}
	}
	if !hpbrcu.HPBRCU.Robust() || hpbrcu.RCU.Robust() {
		t.Fatal("robustness classification wrong")
	}
}

// TestAggregateSnapshotSumsEveryField: a map is one domain, so the whole
// map's books are that domain's, and AggregateSnapshot — what callers
// that read one snapshot per map use — must carry every counter and
// gauge of them: each gets a distinct nonzero level, and every int64
// field of the aggregate must read it back.
func TestAggregateSnapshotSumsEveryField(t *testing.T) {
	m, err := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 64, hpbrcu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Closed first: nothing but this test moves the books from here on.
	if err := hpbrcu.Close(m, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := m.Stats()
	rec.Reset()
	v := reflect.ValueOf(rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i).Addr().Interface().(type) {
		case *stats.Counter:
			f.Add(int64(1000 + i))
		case *stats.Gauge:
			f.Add(int64(1000 + i))
		}
	}
	agg := reflect.ValueOf(hpbrcu.AggregateSnapshot(m))
	own := reflect.ValueOf(rec.Snapshot())
	for i := 0; i < agg.NumField(); i++ {
		if agg.Field(i).Kind() != reflect.Int64 {
			continue
		}
		name := agg.Type().Field(i).Name
		want := own.Field(i).Int()
		if want == 0 {
			t.Fatalf("%s is zero in the map's books: the loop above no longer reaches it", name)
		}
		if got := agg.Field(i).Int(); got != want {
			t.Errorf("AggregateSnapshot.%s = %d, want the domain's %d", name, got, want)
		}
	}
}
