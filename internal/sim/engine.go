package sim

import (
	"fmt"
	"math"

	"graybox/internal/telemetry"
)

// noDeadline is Engine.until outside runUntil: no event is held back
// for its time.
const noDeadline = Time(math.MaxInt64)

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
//
// The engine is strictly single-threaded from the caller's perspective:
// although processes are goroutines, exactly one of them (or the engine
// driver) runs at any instant, with explicit handoff. This makes every
// run with the same seed bit-for-bit reproducible. The goroutine that
// gives up control fires the due events itself and passes control
// straight to the process they resume (drive); a process whose own wake
// is next carries on without a handoff at all (Proc.Sleep, Proc.park).
type Engine struct {
	now  Time
	seq  uint64
	rng  *RNG
	seed uint64

	// events holds the pending events (heap.go), fired in (at, seq)
	// order.
	events eventHeap

	// driver resumes the goroutine in Run, WaitAll or runUntil. A
	// process sends on it when nothing is due for it to fire.
	driver chan struct{}
	// driving is set while a driver runs, which must not be re-entered.
	driving bool
	// stop is WaitAll's condition while it drives, nil otherwise: no
	// event fires once it holds.
	stop func() bool
	// panicked is an event callback's panic, recovered on the goroutine
	// that fired it and re-panicked by the driver.
	panicked any

	spawned  uint64 // total Spawn calls, ever
	nBlocked int    // processes in procBlocked, maintained by setState

	// until is runUntil's deadline while it runs, noDeadline otherwise.
	// No event past it fires, and no Sleep returns past it.
	until Time

	// sched is the SMP scheduler; nil (the default) is the uncontended
	// infinite-core model where Compute is a pure timer. See sched.go.
	sched *scheduler

	// tel is the engine's telemetry registry; nil (the default) disables
	// all instrumentation at zero cost.
	tel *telemetry.Registry

	// Process resumes (sim.resumes) and those whose own event was the
	// next to fire when the process parked (sim.inline_resumes, a resume
	// with no goroutine switch); nil when telemetry is off.
	resumes       *telemetry.Counter
	inlineResumes *telemetry.Counter

	// observe, when set (tests only), sees every event as it is pushed
	// (fired false) and as it fires (fired true, with the clock already
	// at ev.at), including the wakes Sleep fires without the heap.
	observe func(ev event, fired bool)
}

// NewEngine returns an engine with the clock at zero and a deterministic
// RNG seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:    NewRNG(seed),
		seed:   seed,
		driver: make(chan struct{}),
		until:  noDeadline,
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

// scheduleWake schedules a resume of p at time at without allocating a
// closure.
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

// Run processes events until the queue is empty. It panics if processes
// remain blocked with no event that could ever wake them (a simulation
// deadlock), since silently returning would make such bugs easy to miss.
func (e *Engine) Run() {
	e.drive(noDeadline, nil)
	if e.nBlocked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with empty event queue at %v", e.nBlocked, e.now))
	}
}

// WaitAll runs the engine until every listed process has finished. It
// panics on simulation deadlock.
func (e *Engine) WaitAll(ps ...*Proc) {
	done := func() bool {
		for _, p := range ps {
			if p.state != procDone {
				return false
			}
		}
		return true
	}
	e.drive(noDeadline, done)
	if !done() {
		panic(fmt.Sprintf("sim: WaitAll deadlock at %v", e.now))
	}
}

// runUntil processes events with fire times <= deadline and then
// advances the clock to exactly deadline. Blocked processes are left
// parked.
func (e *Engine) runUntil(deadline Time) {
	e.drive(deadline, nil)
	if e.now < deadline {
		e.now = deadline
	}
}

// drive fires events until none is due: the queue is empty, the next
// event is past until, or stop (nil for never) holds. The calling
// goroutine, the driver, fires them only until one resumes a process.
// From then on each process that parks fires the next ones itself and
// passes control straight to the process they resume (Proc.park); the
// driver gets control back only once nothing is due. A callback's panic,
// recovered on whichever goroutine fired it, is re-panicked here.
func (e *Engine) drive(until Time, stop func() bool) {
	if e.driving {
		panic("sim: Run, WaitAll or runUntil called from inside a process or an event; the engine's driver is not re-entrant")
	}
	e.driving, e.until, e.stop = true, until, stop
	if p := e.next(nil); p != nil {
		e.pass(p)
		<-e.driver
	}
	e.driving, e.until, e.stop = false, noDeadline, nil
	if r := e.panicked; r != nil {
		e.panicked = nil
		panic(r)
	}
}

// next fires due events (see drive) in (at, seq) order on the calling
// goroutine until one resumes a process, and returns that process, set
// running and counted in sim.resumes. It returns nil once no event is
// due, or when a callback panics; the panic is kept for the driver.
// self is the parking process that calls next, or nil. When next
// resumes self having fired only self's own events (its wake, or the
// timeslices of its burst), self's own event was the next to fire when
// it parked, and the resume counts in sim.inline_resumes.
func (e *Engine) next(self *Proc) (p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked, p = r, nil
		}
	}()
	own := true
	for len(e.events) > 0 && e.events[0].at <= e.until && (e.stop == nil || !e.stop()) {
		ev := e.pop()
		p = ev.proc
		own = own && p == self
		switch {
		case p == nil:
			ev.fn()
			continue
		case ev.kind == evSlice:
			if !e.sliceDone(p) {
				continue
			}
		case p.state == procDone:
			continue
		}
		p.setState(procRunning)
		e.resumes.Inc()
		if own {
			e.inlineResumes.Inc()
		}
		return p
	}
	return nil
}

// pass hands control to p's goroutine, starting it on p's first resume,
// or to the driver when p is nil. The caller then waits to be resumed
// in turn, or ends if it is a finished process.
func (e *Engine) pass(p *Proc) {
	switch {
	case p == nil:
		e.driver <- struct{}{}
	case p.body != nil:
		fn := p.body
		p.body = nil
		go p.run(fn)
	default:
		p.resume <- struct{}{}
	}
}
