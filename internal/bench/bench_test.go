package bench

import (
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

func TestSupportedMatchesTable1(t *testing.T) {
	cases := []struct {
		st   Structure
		s    hpbrcu.Scheme
		want bool
	}{
		{HList, hpbrcu.HP, false},
		{HList, hpbrcu.NBR, true},
		{HMList, hpbrcu.NBR, false},
		{HMList, hpbrcu.HP, true},
		{SkipList, hpbrcu.NBR, false},
		{SkipList, hpbrcu.HP, true},
		{NMTree, hpbrcu.HP, false},
		{NMTree, hpbrcu.NBR, true},
		{HashMap, hpbrcu.VBR, true},
		{HHSList, hpbrcu.HPBRCU, true},
	}
	for _, c := range cases {
		if got := Supported(c.st, c.s); got != c.want {
			t.Errorf("Supported(%s,%s) = %v, want %v", c.st, c.s, got, c.want)
		}
	}
}

func TestRunMixedProducesWork(t *testing.T) {
	res := RunMixed(MixedConfig{
		Structure: HHSList, Scheme: hpbrcu.HPBRCU,
		Threads: 2, KeyRange: 128, Mix: ReadWrite,
		Duration: 50 * time.Millisecond,
	})
	if res.Ops == 0 {
		t.Fatal("no operations executed")
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
	if res.Retired == 0 {
		t.Fatal("a write-heavy mix must retire nodes")
	}
}

func TestRunLongScanProducesReadsAndWrites(t *testing.T) {
	res := RunLongScan(LongScanConfig{
		Structure: HHSList, Scheme: hpbrcu.RCU,
		Readers: 1, Writers: 1, KeyRange: 256,
		Duration: 50 * time.Millisecond,
	})
	if res.Ops == 0 {
		t.Fatal("reader completed no scans")
	}
	if res.WriteOps == 0 {
		t.Fatal("writer completed no ops")
	}
	if res.Throughput() <= 0 {
		t.Fatal("read throughput must be positive")
	}
}

func TestLongScanStructureFor(t *testing.T) {
	if LongScanStructureFor(hpbrcu.HP) != HMList {
		t.Fatal("HP must use HMList (no optimistic list under HP)")
	}
	if LongScanStructureFor(hpbrcu.HPBRCU) != HHSList {
		t.Fatal("non-HP schemes use HHSList")
	}
}

func TestRunStalledAllSchemes(t *testing.T) {
	for _, s := range hpbrcu.Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			res := RunStalled(StallConfig{
				Scheme: s, Writers: 1, KeyRange: 64,
				Duration: 30 * time.Millisecond,
			})
			if res.Retired == 0 || res.Ops == 0 {
				t.Fatal("no churn")
			}
			if s == hpbrcu.HPBRCU && res.Bound <= 0 {
				t.Fatal("HP-BRCU must report a positive bound")
			}
		})
	}
}
