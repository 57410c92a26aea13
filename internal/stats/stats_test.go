package stats

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-4)
	g.Add(3)
	if g.Load() != 9 {
		t.Fatalf("level = %d, want 9", g.Load())
	}
	if g.Peak() != 10 {
		t.Fatalf("peak = %d, want 10", g.Peak())
	}
	g.ResetPeak()
	if g.Peak() != 9 {
		t.Fatalf("peak after ResetPeak = %d, want 9", g.Peak())
	}
	g.Add(100)
	if g.Peak() != 109 {
		t.Fatalf("peak = %d, want 109", g.Peak())
	}
}

// TestGaugePeakIsMaxPrefix checks the defining property: the peak equals
// the maximum prefix sum of the applied deltas.
func TestGaugePeakIsMaxPrefix(t *testing.T) {
	f := func(deltas []int8) bool {
		var g Gauge
		var sum, max int64
		for _, d := range deltas {
			g.Add(int64(d))
			sum += int64(d)
			if sum > max {
				max = sum
			}
		}
		return g.Load() == sum && g.Peak() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGaugeConcurrentPeakNeverBelowFinal(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Load() != 80000 {
		t.Fatalf("level = %d, want 80000", g.Load())
	}
	if g.Peak() != 80000 {
		t.Fatalf("peak = %d, want 80000 (monotone increments)", g.Peak())
	}
}

// TestReclamationSnapshot: Snapshot and Reset are hand-written field
// lists, so a counter added to Reclamation (or a line dropped from either
// list) would read as zero in every snapshot or survive a Reset. Every
// Counter and Gauge gets a distinct nonzero value (a gauge also a peak
// above its level); Snapshot must copy each into the same-named field
// (a gauge's peak into Peak<name>), and Reset must zero all of them.
func TestReclamationSnapshot(t *testing.T) {
	var r Reclamation
	rv := reflect.ValueOf(&r).Elem()
	want := map[string]int64{}
	for i := 0; i < rv.NumField(); i++ {
		n, name := int64(100+i), rv.Type().Field(i).Name
		switch f := rv.Field(i).Addr().Interface().(type) {
		case *Counter:
			f.Add(n)
		case *Gauge:
			f.Add(n + 50)
			f.Add(-50)
			want["Peak"+name] = n + 50
		default:
			continue
		}
		want[name] = n
	}
	check := func(when string, zero bool) {
		t.Helper()
		s := reflect.ValueOf(r.Snapshot())
		for name, n := range want {
			f := s.FieldByName(name)
			if !f.IsValid() {
				t.Errorf("Snapshot has no field %s", name)
				continue
			}
			if zero {
				n = 0
			}
			if got := f.Int(); got != n {
				t.Errorf("%s: Snapshot.%s = %d, want %d", when, name, got, n)
			}
		}
	}
	check("set", false)
	r.Reset()
	check("after Reset", true)
}
