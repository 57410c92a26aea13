package hpbrcu

// Load-shed composition surface: the helpers an embedding service (a
// cache server, a request handler) uses to turn the library's two
// fail-fast signals — ErrMemoryPressure from the backpressure ladder and
// ErrHandleExhausted from the facade's handle pool — into one shed
// decision, plus a read-only view of the backpressure rung so a service
// can degrade *before* operations start failing. internal/server builds
// its two-rung degradation ladder on exactly these two primitives.

import (
	"errors"

	"github.com/smrgo/hpbrcu/internal/reap"
)

// IsLoadShed reports whether err is one of the library's load-shed
// signals: ErrMemoryPressure (the backpressure reject tier) or
// ErrHandleExhausted (every pooled facade handle stayed checked out
// through the bounded wait). Both mean "the operation was refused to
// protect the §5 garbage bound — back off and retry"; they are always
// returned, never panicked. ErrClosed is NOT a load-shed signal: a closed
// map will never accept the retry, so callers must tell the two apart,
// and this predicate is how.
func IsLoadShed(err error) bool {
	return errors.Is(err, ErrMemoryPressure) || errors.Is(err, ErrHandleExhausted)
}

// PressureLevel is a rung of the tiered-backpressure ladder
// (Config.Backpressure), as observed through Pressure. The ordering is
// meaningful: higher levels are strictly more loaded, so services
// compare with >= to pick a degradation response.
type PressureLevel int

// The pressure rungs, in increasing severity. The values mirror the
// internal reap.Level ladder one-to-one (converted, not aliased, so the
// internal package stays internal).
const (
	// PressureOK: unreclaimed garbage is comfortably below the base
	// (the §5 bound or the configured Ceiling).
	PressureOK PressureLevel = iota
	// PressureDrain: the drain tier — the retire path is running inline
	// emergency drains. A service can start shedding optional work
	// (e.g. expensive scans) here, before anything fails.
	PressureDrain
	// PressureThrottle: admissions are backing off before proceeding;
	// TryInsert still succeeds but pays a delay.
	PressureThrottle
	// PressureReject: TryInsert fails fast with ErrMemoryPressure. A
	// service should be rejecting writes at the edge by now.
	PressureReject
)

// String returns the rung's name (ok, drain, throttle, reject).
func (l PressureLevel) String() string {
	return reap.Level(l).String()
}

// Pressure returns the current backpressure rung of m. It is cheap
// enough for per-request use: it reads the unreclaimed gauge and compares
// it against thresholds the ladder caches, writing nothing shared. Maps
// without tiered backpressure (Config.Backpressure disabled, or a
// scheme without an HP-BRCU domain) always report PressureOK — such
// services still degrade reactively via IsLoadShed on operation errors.
func Pressure(m Map) PressureLevel {
	if impl, ok := m.(*mapImpl); ok && impl.bp != nil {
		return PressureLevel(impl.bp.Level())
	}
	return PressureOK
}
