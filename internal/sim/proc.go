package sim

import (
	"fmt"

	"graybox/internal/telemetry"
)

// ProcState is a process's lifecycle state. Transitions:
//
//	New ──start wake──▶ Running
//	Running ──Sleep/Block──▶ Blocked ──wake/Unblock──▶ Runnable ─▶ Running
//	Running ──Compute (CPUs busy)──▶ Runnable ──dispatch──▶ Running
//	Running ──body returns──▶ Done
//
// A process is Runnable between becoming eligible to run and actually
// running: unblocked (wake event queued) or waiting in a scheduler run
// queue.
type ProcState int

const (
	StateNew      ProcState = ProcState(procNew)
	StateRunnable ProcState = ProcState(procRunnable)
	StateRunning  ProcState = ProcState(procRunning)
	StateBlocked  ProcState = ProcState(procBlocked)
	StateDone     ProcState = ProcState(procDone)
)

func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procBlocked // parked, waiting for an explicit Unblock or a timer wake
	procDone
)

// Proc is a cooperative simulated process. Its body runs on a dedicated
// goroutine, but the engine guarantees that at most one process goroutine
// executes at a time: a process runs until it calls Sleep, Compute,
// Block, or returns. It then fires the due events itself and passes
// control straight to the process they resume, which may be itself, in
// which case it carries on without a switch (park); control goes back
// to the driver only once nothing is due (Engine.drive).
type Proc struct {
	e     *Engine
	name  string
	state procState

	// Scheduler state (sched.go); idle/unused under the default
	// infinite-core model.
	left Time  // remaining CPU burst of the active Compute
	cpu  int32 // owning CPU while on-CPU, -1 otherwise
	enq  Time  // when the process joined the run queue

	// resume wakes this process's goroutine. Unbuffered: the sender
	// hands over on the send and then waits on its own channel.
	resume chan struct{}

	// body is the process's function until its first resume starts its
	// goroutine (Engine.pass), nil afterwards.
	body func(p *Proc)

	// track is this process's span timeline (nil when telemetry is off;
	// the nil track's methods are no-ops).
	track *telemetry.Track

	// Exit status.
	err error
}

// setState moves the process to s, maintaining the engine's O(1) count
// of blocked processes.
func (p *Proc) setState(s procState) {
	if p.state == procBlocked {
		p.e.nBlocked--
	}
	if s == procBlocked {
		p.e.nBlocked++
	}
	p.state = s
}

// Spawn creates a process named name whose body is fn and schedules it to
// start at delay from now. The body runs entirely on virtual time.
func (e *Engine) Spawn(name string, delay Time, fn func(p *Proc)) *Proc {
	if delay < 0 {
		panic("sim: negative delay")
	}
	p := &Proc{e: e, name: name, state: procNew, cpu: -1, resume: make(chan struct{}), body: fn}
	p.track = e.tel.NewTrack(name) // nil track when telemetry is off
	e.spawned++
	e.scheduleWake(e.now+delay, p)
	return p
}

// run is the process's goroutine: the body, then the hand-off that ends
// the process, deferred so that a panicking body ends it too.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("proc %s panicked: %v", p.name, r)
		}
		p.setState(procDone)
		p.e.pass(p.e.next(nil))
	}()
	fn(p)
}

// Go spawns a process starting immediately.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.Spawn(name, 0, fn)
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// State returns the process's lifecycle state.
func (p *Proc) State() ProcState { return ProcState(p.state) }

// Track returns the process's telemetry span track. It is nil when
// telemetry is disabled, and the nil track's methods are no-ops, so
// instrumentation sites call p.Track().Begin(...) unconditionally.
func (p *Proc) Track() *telemetry.Track { return p.track }

// Err returns the process's exit error (non-nil if the body panicked).
func (p *Proc) Err() error { return p.err }

// park suspends the calling process until it is resumed. The process
// must have arranged to be resumed (a scheduled wake event, a run-queue
// entry, or a future Unblock). park fires the due events itself until
// one resumes a process: if that is the caller, park returns without a
// switch; otherwise it hands over to that process, or to the driver once
// nothing is due, and waits for its own resume.
func (p *Proc) park() {
	if q := p.e.next(p); q != p {
		p.e.pass(q)
		<-p.resume
	}
}

// Sleep advances this process's virtual time by d, letting other events
// run in between. d must be >= 0; Sleep(0) yields to same-time events.
//
// When the wake would be the next event to fire (before the heap's
// head, and not past runUntil's deadline), Sleep skips the heap: it
// takes the wake's seq and advances the clock, which is exactly a push
// followed by popping the head. On a tie with the head the wake goes
// through the heap, since the head's seq is lower. WaitAll's condition
// need not be checked: it changes only when a process exits, and the
// exiting process checks it before firing anything.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.e
	at := e.now + d
	if at <= e.until && (len(e.events) == 0 || at < e.events[0].at) {
		ev := event{at: at, seq: e.seq, proc: p}
		e.seq++
		e.now = at
		if e.observe != nil {
			e.observe(ev, false)
			e.observe(ev, true)
		}
		e.resumes.Inc()
		e.inlineResumes.Inc()
		return
	}
	p.setState(procBlocked)
	e.scheduleWake(at, p)
	p.park()
}

// Block parks the process until another party calls Unblock on it.
func (p *Proc) Block() {
	p.setState(procBlocked)
	p.park()
}

// Unblock schedules p to resume at the current time (after already-queued
// same-time events). It is a no-op for finished processes and panics if p
// is not blocked, which would indicate a lost-wakeup bug in the caller.
func (e *Engine) Unblock(p *Proc) {
	if p.state == procDone {
		return
	}
	if p.state != procBlocked {
		panic(fmt.Sprintf("sim: Unblock(%s) but process is not blocked", p.name))
	}
	p.setState(procRunnable)
	e.scheduleWake(e.now, p)
}
