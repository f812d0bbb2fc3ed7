package sim

import (
	"fmt"
	"math"

	"graybox/internal/telemetry"
)

// noDeadline is Engine.until outside runUntil: nothing bounds how far an
// inline resume may advance the clock.
const noDeadline = Time(math.MaxInt64)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
//
// The engine is strictly single-threaded from the caller's perspective:
// although processes are goroutines, exactly one of them (or the engine
// loop itself) runs at any instant, with explicit handoff. This makes every
// run with the same seed bit-for-bit reproducible. A process whose own
// event is the next to fire resumes inline, without a handoff at all
// (resumeInline).
type Engine struct {
	now  Time
	seq  uint64
	rng  *RNG
	seed uint64

	// events holds the pending events (heap.go), fired in (at, seq)
	// order.
	events eventHeap

	// yield carries control back from a running process to the engine
	// loop. All processes share it; only the currently-running process
	// ever sends on it.
	yield chan struct{}

	spawned  uint64 // total Spawn calls, ever
	nBlocked int    // processes in procBlocked, maintained by setState

	// until is runUntil's deadline while it runs, noDeadline otherwise.
	// Inline resumes never fire an event past it.
	until Time

	// sched is the SMP scheduler; nil (the default) is the uncontended
	// infinite-core model where Compute is a pure timer. See sched.go.
	sched *scheduler

	// tel is the engine's telemetry registry; nil (the default) disables
	// all instrumentation at zero cost.
	tel *telemetry.Registry

	// Process resumes (sim.resumes) and the share of them done without a
	// goroutine switch (sim.inline_resumes); nil when telemetry is off.
	resumes       *telemetry.Counter
	inlineResumes *telemetry.Counter

	// observe, when set (tests only), sees every event as it is pushed
	// (fired false) and as it fires (fired true, with the clock already
	// at ev.at).
	observe func(ev event, fired bool)
}

// NewEngine returns an engine with the clock at zero and a deterministic
// RNG seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:   NewRNG(seed),
		seed:  seed,
		yield: make(chan struct{}),
		until: noDeadline,
	}
}

// Seed returns the seed the engine (and its RNG) was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// Checkpoint returns the clock and scheduling cursor of a quiescent
// engine, for snapshot machinery. It panics if events are still pending
// or processes are still blocked: snapshotting mid-flight state is not
// supported and would fork divergent copies.
func (e *Engine) Checkpoint() (now Time, seq uint64) {
	if n := len(e.events); n != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d pending event(s)", n))
	}
	if n := e.nBlocked; n != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d blocked process(es)", n))
	}
	if n := e.schedBusy(); n != 0 {
		panic(fmt.Sprintf("sim: Checkpoint with %d process(es) on CPU or run queue", n))
	}
	return e.now, e.seq
}

// Restore sets the clock and scheduling cursor of a freshly built engine
// to a Checkpoint's values, so events scheduled afterwards continue the
// original (at, seq) order. It panics if the engine has already run.
func (e *Engine) Restore(now Time, seq uint64) {
	if e.now != 0 || e.seq != 0 || e.spawned != 0 {
		panic("sim: Restore on an engine that has already run")
	}
	e.now, e.seq = now, seq
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTelemetry attaches a telemetry registry: processes spawned from now
// on get span tracks, and tracers attached to the engine export their
// events. A nil registry (the default) disables telemetry.
func (e *Engine) SetTelemetry(r *telemetry.Registry) {
	e.tel = r
	e.resumes = r.Counter("sim.resumes")
	e.inlineResumes = r.Counter("sim.inline_resumes")
	e.instrumentSched()
}

// Telemetry returns the attached registry (nil when disabled). The nil
// registry is safe to use: all its methods and handles are no-ops.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// NowNS reports virtual time as int64 nanoseconds — the telemetry.Clock
// for registries attached to this engine.
func (e *Engine) NowNS() int64 { return int64(e.now) }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// schedule runs fn at time at, which must not be in the past.
func (e *Engine) schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule of nil callback")
	}
	e.push(event{at: at, fn: fn})
}

// scheduleWake schedules p.wake() at time at without allocating a closure.
func (e *Engine) scheduleWake(at Time, p *Proc) {
	e.push(event{at: at, proc: p})
}

// push stamps ev with the next sequence number and adds it to the
// pending set.
func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
	if e.observe != nil {
		e.observe(ev, false)
	}
}

// pop removes the earliest pending event and advances the clock to its
// fire time. The heap must not be empty.
func (e *Engine) pop() event {
	ev := e.events.pop()
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	if e.observe != nil {
		e.observe(ev, true)
	}
	return ev
}

// After runs fn after duration d.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, fn)
}

// step fires the earliest pending event. It reports false when none
// remain.
func (e *Engine) step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	switch {
	case ev.proc == nil:
		ev.fn()
	case ev.kind == evSlice:
		e.sliceFire(ev.proc)
	default:
		ev.proc.wake()
	}
	return true
}

// Run processes events until the queue is empty. It panics if processes
// remain blocked with no event that could ever wake them (a simulation
// deadlock), since silently returning would make such bugs easy to miss.
func (e *Engine) Run() {
	for e.step() {
	}
	if e.nBlocked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with empty event queue at %v", e.nBlocked, e.now))
	}
}

// runUntil processes events with fire times <= deadline and then
// advances the clock to exactly deadline. Blocked processes are left
// parked.
func (e *Engine) runUntil(deadline Time) {
	e.until = deadline
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.step()
	}
	e.until = noDeadline
	if e.now < deadline {
		e.now = deadline
	}
}

// resumeInline resumes p, which is about to park, without a goroutine
// switch when its own event is the next to fire: a wake, or a timeslice
// that ends its burst. It pops that event through pop, exactly as step
// would, so the (at, seq) order, the clock and every later seq are what
// the park/wake round trip would have produced. A slice that does not
// end the burst is accounted the same way and the loop looks again: an
// uncontended Compute runs as a chain of inline slices. Events past
// runUntil's deadline are left for later. It reports whether p resumed.
func (e *Engine) resumeInline(p *Proc) bool {
	for len(e.events) > 0 && e.events[0].proc == p && e.events[0].at <= e.until {
		if ev := e.pop(); ev.kind == evSlice && !e.sliceDone(p) {
			continue
		}
		p.setState(procRunning)
		e.resumes.Inc()
		e.inlineResumes.Inc()
		return true
	}
	return false
}
