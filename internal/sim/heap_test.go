package sim

import (
	"fmt"
	"testing"
)

// TestSameInstantFIFO pins the tie-break: events scheduled for the same
// instant fire in scheduling order, whether they were scheduled long
// before that instant or from an event just ahead of it.
func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	at := Time(1 << 20)
	for i := 0; i < 100; i++ {
		i := i
		e.schedule(at, func() { got = append(got, i) })
	}
	e.schedule(at-1, func() {
		for i := 100; i < 200; i++ {
			i := i
			e.schedule(at, func() { got = append(got, i) })
		}
	})
	e.Run()
	if len(got) != 200 {
		t.Fatalf("fired %d of 200", len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("tie-break violated at %d: got id %d", i, id)
		}
	}
}

// TestCheckpointRestore exercises the snapshot hooks: a quiescent
// engine checkpoints, a fresh engine restores, and scheduling continues
// the (at, seq) sequence.
func TestCheckpointRestore(t *testing.T) {
	e := NewEngine(9)
	for i := 0; i < 10; i++ {
		e.After(Time(i*100), func() {})
	}
	e.Run()
	now, seq := e.Checkpoint()
	if now != 900 || seq != 10 {
		t.Fatalf("checkpoint = (%v, %d), want (900, 10)", now, seq)
	}
	if e.Seed() != 9 {
		t.Fatalf("Seed() = %d, want 9", e.Seed())
	}
	if e.RNG().State() != NewRNG(9).State() {
		t.Fatal("unconsumed RNG state mismatch")
	}

	e2 := NewEngine(9)
	e2.Restore(now, seq)
	if e2.Now() != now {
		t.Fatalf("restored Now = %v, want %v", e2.Now(), now)
	}
	fired := false
	e2.schedule(now+1, func() { fired = true })
	e2.Run()
	if !fired {
		t.Fatal("restored engine did not fire")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Restore on a used engine did not panic")
		}
	}()
	e2.Restore(0, 0)
}

// TestHeapAllocSteadyState guards the 0-alloc fast path: once the heap's
// slice has grown, schedule/fire cycles must not allocate.
func TestHeapAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	cycle := func() {
		for i := 0; i < 512; i++ {
			e.After(Time(1000+i*3000), fn)
		}
		e.Run()
	}
	cycle() // grow the heap
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("schedule/fire path allocates %.1f per run, want 0", n)
	}
}

// orderDelays is the delay palette FuzzEngineOrder programs draw from:
// repeated zeros and small values force same-instant ties, the rest
// spread events over a few simulated milliseconds.
var orderDelays = [...]Time{0, 0, 1, 3, 4096, 1 << 20, 10 * Millisecond, 50 * Millisecond}

func orderDelay(b byte) Time { return orderDelays[int(b)%len(orderDelays)] }

// orderDeadline decodes a program's trailing odd byte into a runUntil
// deadline. Sums of palette delays land on event times (the <= edge),
// and the last term lands just past them.
func orderDeadline(b byte) Time { return orderDelay(b) + orderDelay(b>>3) + Time(b>>6) }

// FuzzEngineOrder checks the engine's firing order against a reference
// queue: a plain list scanned linearly for the minimum (at, seq). The
// input decodes into a program of top-level and nested After calls and
// up to four processes that Sleep, Compute, Block and schedule events
// of their own; a trailing odd byte picks a runUntil deadline to run to
// before the final drain. Each program runs under SetCPUs 0 and 2.
//
// The engine's observe hook mirrors every event into the reference as
// it is pushed and checks every event as it fires, including the wakes
// and timeslices a process pushes and fires inline without returning to
// the engine loop. Each fired event must be the reference's minimum
// (at, seq), fire with the clock at its time and not past the deadline,
// and every seq must be pushed once and fired once, with none left
// unfired after the drain. Each process also checks that Sleep(d)
// returns exactly d after it was called, and Compute(d) no earlier.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2})
	f.Add([]byte{0, 0x1f, 1, 0x22, 2, 0x9d, 2, 0x46, 3, 7, 0, 0xe1})
	f.Add([]byte{2, 0x61, 2, 0x55, 2, 0x0a, 2, 0xff, 3, 5, 1, 0x33})
	// A lone process computing 50ms, 4096ns, 50ms and 4096ns: at CPUs=2
	// each 50ms burst is a chain of 1ms timeslices that fire inline.
	f.Add([]byte{2, 0x55})
	// The same chain cut by a deadline 11.05ms in.
	f.Add([]byte{2, 0x55, 0x35})
	// A process sleeping 10ms from time 0, with the deadline at 1.05ms,
	// between its start and its first wake.
	f.Add([]byte{6, 0x00, 5})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 129 {
			prog = prog[:129]
		}
		for _, cpus := range []int{0, 2} {
			checkEngineOrder(t, prog, cpus)
		}
	})
}

func checkEngineOrder(t *testing.T, prog []byte, cpus int) {
	e := NewEngine(1)
	e.SetCPUs(cpus, Millisecond)

	// The hook and the process bodies run on whichever goroutine holds
	// the engine, so they record the first failure and the test
	// goroutine reports it.
	var bad string
	fail := func(format string, args ...any) {
		if bad == "" {
			bad = fmt.Sprintf("cpus=%d: ", cpus) + fmt.Sprintf(format, args...)
		}
	}
	deadline := noDeadline
	var ref []event // pushed and not yet fired
	var pushed, fired uint64
	e.observe = func(ev event, fire bool) {
		if !fire {
			if ev.seq != pushed {
				fail("push #%d got seq %d", pushed, ev.seq)
			}
			pushed++
			ref = append(ref, ev)
			return
		}
		fired++
		k, m := -1, -1
		for i, r := range ref {
			if r.seq == ev.seq {
				k = i
			}
			if m < 0 || r.at < ref[m].at || r.at == ref[m].at && r.seq < ref[m].seq {
				m = i
			}
		}
		switch {
		case k < 0:
			fail("event (%v, %d) fired but is not pending", ev.at, ev.seq)
			return
		case k != m:
			fail("after %d events the engine fired (%v, %d), the reference (%v, %d)",
				fired, ev.at, ev.seq, ref[m].at, ref[m].seq)
		case e.Now() != ev.at:
			fail("event due at %v fired with the clock at %v", ev.at, e.Now())
		case ev.at > deadline:
			fail("event due at %v fired past the deadline %v", ev.at, deadline)
		}
		ref = append(ref[:k], ref[k+1:]...)
	}

	// parked holds processes stopped in Block, awaiting an Unblock.
	var parked []*Proc
	unblockAll := func() {
		for _, p := range parked {
			e.Unblock(p)
		}
		parked = parked[:0]
	}
	// after schedules an event that checks its fire time and, below
	// depth 2, schedules up to three nested events.
	var after func(d Time, depth int, b byte)
	after = func(d Time, depth int, b byte) {
		at := e.Now() + d
		e.After(d, func() {
			if e.Now() != at {
				fail("callback due at %v ran at %v", at, e.Now())
			}
			for i := 0; depth < 2 && i < int(b&3); i++ {
				after(orderDelay(b>>2+byte(i)), depth+1, b>>1+byte(i))
			}
		})
	}
	var procs []*Proc
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		switch op % 4 {
		case 0, 1:
			after(orderDelay(arg), 0, op>>2)
		case 2:
			if len(procs) == 4 {
				continue
			}
			procs = append(procs, e.Spawn("p", orderDelay(op>>2), func(p *Proc) {
				for k := 0; k < 4; k++ {
					d := orderDelay(arg>>k + op)
					start := p.Now()
					switch (arg >> (2 * k)) & 3 {
					case 0:
						p.Sleep(d)
						if p.Now() != start+d {
							fail("Sleep(%v) at %v returned at %v", d, start, p.Now())
						}
					case 1:
						p.Compute(d)
						if got := p.Now() - start; got < d || cpus == 0 && got != d {
							fail("Compute(%v) at %v returned at %v", d, start, p.Now())
						}
					case 2:
						parked = append(parked, p)
						p.Block()
					case 3:
						after(d, 1, arg)
					}
				}
			}))
		case 3:
			e.After(orderDelay(arg), unblockAll)
		}
	}

	if len(prog)%2 == 1 {
		deadline = orderDeadline(prog[len(prog)-1])
		e.runUntil(deadline)
		if e.Now() != deadline {
			fail("runUntil(%v) left the clock at %v", deadline, e.Now())
		}
		deadline = noDeadline
	}
	for {
		for e.step() {
		}
		if len(parked) == 0 {
			break
		}
		unblockAll()
	}
	for _, p := range procs {
		if p.Err() != nil {
			fail("%v", p.Err())
		}
	}
	switch {
	case bad != "":
	case len(ref) != 0 || fired != pushed:
		fail("%d of %d events fired, %d left in the reference", fired, pushed, len(ref))
	case e.nBlocked != 0 || e.schedBusy() != 0:
		fail("%d blocked and %d scheduled processes left after the drain", e.nBlocked, e.schedBusy())
	}
	if bad != "" {
		t.Fatal(bad)
	}
}
