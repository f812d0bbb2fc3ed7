package sim

import "testing"

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

// FuzzEngineOrder checks the engine's firing order against a reference
// queue: a plain list scanned linearly for the minimum (at, seq). The
// input decodes into a program of top-level and nested After calls and
// up to four processes that Sleep, Compute, Block and schedule events
// of their own; each program runs under SetCPUs 0 and 2. Every event
// the engine holds, including process wakes and scheduler timeslices,
// is mirrored into the reference after the step that pushed it, and the
// (time, seq) transcript of what the engine fired must equal the
// reference's.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2})
	f.Add([]byte{0, 0x1f, 1, 0x22, 2, 0x9d, 2, 0x46, 3, 7, 0, 0xe1})
	f.Add([]byte{2, 0x61, 2, 0x55, 2, 0x0a, 2, 0xff, 3, 5, 1, 0x33})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 128 {
			prog = prog[:128]
		}
		for _, cpus := range []int{0, 2} {
			checkEngineOrder(t, prog, cpus)
		}
	})
}

// stamp identifies one fired event in an order transcript.
type stamp struct {
	at  Time
	seq uint64
}

func checkEngineOrder(t *testing.T, prog []byte, cpus int) {
	e := NewEngine(1)
	e.SetCPUs(cpus, Millisecond)

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
				t.Fatalf("event due at %v fired at %v", at, e.Now())
			}
			for i := 0; depth < 2 && i < int(b&3); i++ {
				after(orderDelay(b>>2+byte(i)), depth+1, b>>1+byte(i))
			}
		})
	}
	procs := 0
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		switch op % 4 {
		case 0, 1:
			after(orderDelay(arg), 0, op>>2)
		case 2:
			if procs == 4 {
				continue
			}
			procs++
			e.Spawn("p", orderDelay(op>>2), func(p *Proc) {
				for k := 0; k < 4; k++ {
					d := orderDelay(arg>>k + op)
					switch (arg >> (2 * k)) & 3 {
					case 0:
						p.Sleep(d)
					case 1:
						p.Compute(d)
					case 2:
						parked = append(parked, p)
						p.Block()
					case 3:
						after(d, 1, arg)
					}
				}
			})
		case 3:
			e.After(orderDelay(arg), unblockAll)
		}
	}

	var ref []event // the reference queue
	var adopted uint64
	var got, want []stamp
	for {
		// Mirror every event pushed since the last step.
		for _, ev := range e.events {
			if ev.seq >= adopted {
				ref = append(ref, ev)
			}
		}
		adopted = e.seq
		if len(ref) == 0 {
			if len(parked) == 0 {
				break
			}
			unblockAll()
			continue
		}
		m := 0
		for i, ev := range ref {
			if ev.at < ref[m].at || ev.at == ref[m].at && ev.seq < ref[m].seq {
				m = i
			}
		}
		want = append(want, stamp{ref[m].at, ref[m].seq})

		e.step()
		pending := make(map[uint64]bool, len(e.events))
		for _, ev := range e.events {
			pending[ev.seq] = true
		}
		kept := ref[:0]
		for _, ev := range ref {
			if pending[ev.seq] {
				kept = append(kept, ev)
			} else {
				got = append(got, stamp{e.Now(), ev.seq})
			}
		}
		ref = kept
		if len(got) != len(want) || got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("cpus=%d: after %d events the engine fired %v, the reference %v",
				cpus, len(want), got[len(want)-1:], want[len(want)-1])
		}
	}
	if e.nBlocked != 0 || e.schedBusy() != 0 {
		t.Fatalf("cpus=%d: %d blocked and %d scheduled processes left after the drain",
			cpus, e.nBlocked, e.schedBusy())
	}
}
