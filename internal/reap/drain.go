package reap

import "math"

// DrainGate is the progress gate on the janitor's forced drain rounds.
//
// An adoption parks work where only the janitor's service handle can
// reach it — the global task set, the HP orphans, the handle's own retired
// batch — and with every worker dead nobody else is left to advance the
// epoch. So the janitor keeps forcing flush-advance-reclaim rounds, one
// per tick. But only while they make progress: with live
// workers retiring, the unreclaimed gauge may never touch zero, and forcing
// advances every tick forever would keep neutralizing their critical
// sections. The zero value is a closed gate.
type DrainGate struct {
	open bool
	last int64 // the gauge level the previous round started from
}

// Arm opens the gate: work was just parked, so the next round runs
// whatever the gauge says.
func (g *DrainGate) Arm() { g.open, g.last = true, math.MaxInt64 }

// Allow reports whether a round should run now, given the current
// unreclaimed gauge: yes while the gate is open and the previous round
// strictly lowered the gauge. It closes the gate when the books balance
// or a round made no progress; only Arm reopens it.
func (g *DrainGate) Allow(unreclaimed int64) bool {
	if !g.open {
		return false
	}
	if unreclaimed <= 0 || unreclaimed >= g.last {
		g.open = false
		return false
	}
	g.last = unreclaimed
	return true
}
