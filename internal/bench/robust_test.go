package bench

import (
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// TestRunStalledRobustnessTable is the Table 2 experiment as a test: with
// one thread stalled inside each scheme's read-side protection, robust
// schemes must keep peak unreclaimed memory bounded while NR and RCU grow
// without reclaiming anything.
func TestRunStalledRobustnessTable(t *testing.T) {
	dur := 40 * time.Millisecond
	if testing.Short() {
		dur = 15 * time.Millisecond
	}
	cases := []struct {
		scheme hpbrcu.Scheme
		// hasBound: the scheme reports the §5 bound and must stay under it.
		hasBound bool
		// reclaimsNothing: a stalled reader blocks all reclamation, so the
		// leak is total (peak unreclaimed == everything ever retired).
		reclaimsNothing bool
	}{
		{scheme: hpbrcu.NR, reclaimsNothing: true},
		{scheme: hpbrcu.RCU, reclaimsNothing: true},
		{scheme: hpbrcu.HP},
		{scheme: hpbrcu.NBR},
		{scheme: hpbrcu.NBRLarge},
		{scheme: hpbrcu.VBR},
		{scheme: hpbrcu.HPRCU, reclaimsNothing: true},
		{scheme: hpbrcu.HPBRCU, hasBound: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme.String(), func(t *testing.T) {
			res := RunStalled(StallConfig{
				Scheme: tc.scheme, Writers: 2, KeyRange: 64, Duration: dur,
			})
			if res.Retired == 0 {
				t.Fatal("no churn: writers retired nothing")
			}
			if tc.hasBound {
				if res.Bound <= 0 {
					t.Fatalf("bound = %d, want > 0", res.Bound)
				}
				if res.PeakUnreclaimed > res.Bound {
					t.Fatalf("peak unreclaimed %d exceeds §5 bound %d", res.PeakUnreclaimed, res.Bound)
				}
				if res.Signals == 0 {
					t.Fatal("HP-BRCU never neutralized the stalled reader")
				}
			} else if res.Bound != -1 {
				t.Fatalf("bound = %d, want -1 (no bound applies)", res.Bound)
			}
			if tc.reclaimsNothing && res.PeakUnreclaimed != res.Retired {
				t.Fatalf("stalled %s should block all reclamation: peak %d != retired %d",
					tc.scheme, res.PeakUnreclaimed, res.Retired)
			}
		})
	}
}

// TestStallSeedThreading pins the seed plumbing table2 relies on: the
// stall writers draw from streams derived from the run seed (the seed the
// report header stamps), distinct per seed and per writer, and disjoint
// from the mixed workload's streams at equal seeds.
func TestStallSeedThreading(t *testing.T) {
	if stallWorkerSeed(1, 0) == stallWorkerSeed(2, 0) {
		t.Fatal("different run seeds produced the same writer stream")
	}
	if stallWorkerSeed(1, 0) == stallWorkerSeed(1, 1) {
		t.Fatal("different writers share one stream")
	}
	if stallWorkerSeed(DefaultBenchSeed, 0) == mixedWorkerSeed(DefaultBenchSeed, 0) {
		t.Fatal("stall and mixed workloads share a stream at equal seeds")
	}
	// The run loop stamps the seed it hands every point into the header.
	e, _ := Lookup("table2")
	f := e.Run(Sweep{Schemes: []hpbrcu.Scheme{hpbrcu.NR}}, RunOptions{Repeats: 1, Duration: time.Millisecond, Seed: 123})
	if f.Seed != 123 {
		t.Fatalf("header seed %d, want 123", f.Seed)
	}
}
