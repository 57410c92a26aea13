package main

import (
	"reflect"
	"strings"
	"testing"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
)

func TestParseThreadCounts(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1", []int{1}, false},
		{"1,2,8", []int{1, 2, 8}, false},
		{" 2 , 4 ", []int{2, 4}, false},
		{"0", nil, true},
		{"-1", nil, true},
		{"two", nil, true},
		{"", nil, true},
		{"1,,2", nil, true},
	}
	for _, tc := range tests {
		got, err := parseThreadCounts(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseThreadCounts(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseThreadCounts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseExps(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"8", []int{8}, false},
		{"8,13,15", []int{8, 13, 15}, false},
		{"1", []int{1}, false},   // lower edge
		{"30", []int{30}, false}, // upper edge
		// The satellite bug: exponents outside [1,30] used to flow into
		// 1<<n and overflow (or produce a degenerate range).
		{"0", nil, true},
		{"-3", nil, true},
		{"31", nil, true},
		{"64", nil, true},
		{"ten", nil, true},
		{"", nil, true},
	}
	for _, tc := range tests {
		got, err := parseExps(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseExps(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseExps(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := parseExps("64"); err == nil || !strings.Contains(err.Error(), "outside [1, 30]") {
		t.Errorf("parseExps(64) error %v should name the valid window", err)
	}
}

func TestParseLeakRate(t *testing.T) {
	tests := []struct {
		in      string
		want    float64
		wantErr bool
	}{
		{"0", 0, false},
		{"0.25", 0.25, false},
		{"1", 1, false},
		{" 0.5 ", 0.5, false},
		{"-0.1", 0, true},
		{"1.5", 0, true},
		{"NaN", 0, true}, // NaN passes naive range checks; must be rejected
		{"half", 0, true},
		{"", 0, true},
	}
	for _, tc := range tests {
		got, err := parseLeakRate(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseLeakRate(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseLeakRate(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := parseLeakRate("2"); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
		t.Errorf("parseLeakRate(2) error %v should name the valid window", err)
	}
}

func TestParseSchemes(t *testing.T) {
	tests := []struct {
		in      string
		want    []hpbrcu.Scheme
		wantErr bool
	}{
		{"RCU", []hpbrcu.Scheme{hpbrcu.RCU}, false},
		{"rcu", []hpbrcu.Scheme{hpbrcu.RCU}, false},
		{"HP-BRCU,HP-RCU", []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.HPRCU}, false},
		// The satellite bug: repeated names used to run the experiment
		// once per occurrence. Dedupe preserves first-occurrence order.
		{"RCU,rcu", []hpbrcu.Scheme{hpbrcu.RCU}, false},
		{"hp-brcu,RCU,HP-BRCU", []hpbrcu.Scheme{hpbrcu.HPBRCU, hpbrcu.RCU}, false},
		{"bogus", nil, true},
		{"RCU,bogus", nil, true},
		{"", nil, true},
	}
	for _, tc := range tests {
		got, err := parseSchemes(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseSchemes(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSchemes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseSchemesCoversAll ensures every registered scheme's printed
// name round-trips through the parser, so new schemes are selectable by
// -schemes without touching the parser.
func TestParseSchemesCoversAll(t *testing.T) {
	for _, s := range hpbrcu.Schemes {
		got, err := parseSchemes(s.String())
		if err != nil || len(got) != 1 || got[0] != s {
			t.Errorf("scheme %v does not round-trip: %v, %v", s, got, err)
		}
	}
}

// TestExperimentHintDerivedFromRegistry pins the stale-message bugfix:
// the hint behind `grid -experiments` (its flag help and its
// unknown-experiment error) is derived from the bench registry, so every
// registered experiment appears in it (a hardcoded predecessor went
// stale).
func TestExperimentHintDerivedFromRegistry(t *testing.T) {
	hint := experimentHint()
	for _, name := range bench.ExperimentNames() {
		if !strings.Contains(hint, name) {
			t.Errorf("experiment hint %q omits registered experiment %q", hint, name)
		}
	}
}
