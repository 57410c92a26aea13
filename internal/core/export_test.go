package core

// Gen exposes the BRCU half's resurrection generation to the external
// test package: it changes only when a reaped handle resurrects.
func (h *Handle) Gen() uint64 { return h.brcu.Gen() }
