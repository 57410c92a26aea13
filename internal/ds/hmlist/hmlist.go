// Package hmlist names the Harris-Michael list (Michael 2002): the sorted
// list of package hlist with run bound 1 — every marked node is unlinked
// by its own CAS, by whichever traversal meets it first (helping). That
// one constant is the whole difference from Harris's list, and it is what
// lets plain hazard pointers validate each step (and what keeps NBR, which
// restarts after every write, off this list: Table 1). The package holds
// no algorithm; it is the paper's name for hlist.HarrisMichael.
package hmlist

import (
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
	"github.com/smrgo/hpbrcu/internal/hp"
)

// The list and handle types are hlist's.
type (
	// EBR is a Harris-Michael list under epoch-based RCU (or NR).
	EBR = hlist.EBR
	// HP is a Harris-Michael list under plain hazard pointers.
	HP = hlist.HP
	// Expedited is a Harris-Michael list under HP-RCU or HP-BRCU.
	Expedited = hlist.Expedited
)

// NewEBR creates a list reclaimed by epoch-based RCU.
func NewEBR(opts ...brcu.Option) *EBR { return hlist.NewEBROf(hlist.HarrisMichael, 1, opts...) }

// NewNR creates the no-reclamation baseline: retired nodes leak.
func NewNR() *EBR { return NewEBR(brcu.NoReclaim()) }

// NewHP creates a hazard-pointer-protected list.
func NewHP(opts ...hp.Option) *HP { return hlist.NewHPOf(1, opts...) }

// NewHPRCU creates a list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	return hlist.NewExpeditedOf(core.BackendRCU, hlist.HarrisMichael, 1, cfg)
}

// NewHPBRCU creates a list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	return hlist.NewExpeditedOf(core.BackendBRCU, hlist.HarrisMichael, 1, cfg)
}
