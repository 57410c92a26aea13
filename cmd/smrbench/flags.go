package main

// Pure flag-value parsers, extracted from main so they are testable
// without tripping os.Exit: main's thin wrappers turn an error into the
// usual usage failure.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// Key-range exponents feed 1<<n computations; exponents outside this
// window would overflow the shift (or produce a degenerate 1-key range),
// so they are rejected up front instead of misbehaving mid-experiment.
const (
	minRangeExp = 1
	maxRangeExp = 30
)

// parseThreadCounts parses the -threads list: positive integers,
// comma-separated.
func parseThreadCounts(s string) ([]int, error) {
	var out []int
	for _, t := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", t)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseExps parses the -ranges list of key-range exponents, rejecting
// values outside [minRangeExp, maxRangeExp].
func parseExps(s string) ([]int, error) {
	var out []int
	for _, r := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(r))
		if err != nil {
			return nil, fmt.Errorf("bad range exponent %q", r)
		}
		if n < minRangeExp || n > maxRangeExp {
			return nil, fmt.Errorf("range exponent %d outside [%d, %d] (the key range is 1<<n)", n, minRangeExp, maxRangeExp)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseLeakRate parses the -leak-rate fraction: a float in [0, 1]. NaN
// sneaks past plain range comparisons (every comparison is false), so it
// is rejected explicitly.
func parseLeakRate(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad leak rate %q", s)
	}
	if math.IsNaN(f) || f < 0 || f > 1 {
		return 0, fmt.Errorf("leak rate %v outside [0, 1] (the fraction of writers that leak)", s)
	}
	return f, nil
}

// parseSchemes parses the -schemes filter case-insensitively, preserving
// order and dropping duplicates so `-schemes=RCU,rcu` runs each
// experiment once.
func parseSchemes(s string) ([]hpbrcu.Scheme, error) {
	byName := make(map[string]hpbrcu.Scheme, len(hpbrcu.Schemes))
	for _, sc := range hpbrcu.Schemes {
		byName[strings.ToLower(sc.String())] = sc
	}
	seen := make(map[hpbrcu.Scheme]bool)
	var out []hpbrcu.Scheme
	for _, name := range strings.Split(s, ",") {
		sc, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
		if seen[sc] {
			continue
		}
		seen[sc] = true
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scheme filter %q", s)
	}
	return out, nil
}
