// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, cooperative processes implemented as
// goroutines with strict one-at-a-time handoff, FIFO resources, and a
// seedable random number generator. A process hands control back to the
// engine loop only when some other event must fire before its own: a
// process whose own wake or timeslice is next resumes inline.
//
// Everything in this repository that "takes time" (disk accesses, memory
// copies, page faults) runs on the virtual clock, so experiments are
// perfectly repeatable: the same seed always produces the same trace, and
// the Go runtime scheduler and garbage collector cannot perturb measured
// timings.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is also used for durations.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with a unit that keeps the mantissa readable.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
