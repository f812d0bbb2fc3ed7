package experiments

import (
	"sync"
	"sync/atomic"

	"graybox/internal/telemetry"
)

// Harness telemetry mirrors the virtual-time accounting below: when
// enabled, every platform built through newSystem/newMultiDiskSystem is
// instrumented at construction and its registry accumulated here; the
// CLI drains the set after each experiment. Workers finish in
// nondeterministic order, so the drain sorts registries by (label,
// content) — making exports byte-identical at any pool width.
var (
	telEnabled atomic.Bool
	telMu      sync.Mutex
	telRegs    []*telemetry.Registry
)

// EnableTelemetry switches harness telemetry on or off (the CLI's
// -trace/-metrics flags). It only affects platforms built afterwards.
func EnableTelemetry(on bool) { telEnabled.Store(on) }

// TakeTelemetry returns the registries of every platform built since the
// previous call, in deterministic order, and resets the accumulator.
func TakeTelemetry() []*telemetry.Registry {
	telMu.Lock()
	regs := telRegs
	telRegs = nil
	telMu.Unlock()
	telemetry.SortRegistries(regs)
	return regs
}
