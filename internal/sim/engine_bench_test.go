package sim

import "testing"

// BenchmarkSchedule measures the schedule-then-fire path: N events pushed
// and popped through the heap.
func BenchmarkSchedule(b *testing.B) {
	const batch = 1024
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			e.schedule(base+Time(j%37), fn)
		}
		e.Run()
	}
	_ = sink
}

// BenchmarkTimerChurn measures the heap under a large standing timer
// population: 8K outstanding short-to-medium delay timers (microseconds
// to a few milliseconds, the sleep/IO range of the simulator), each
// firing scheduling its replacement. No experiment holds more than a few
// dozen live events; this is the heap's cost well past that.
func BenchmarkTimerChurn(b *testing.B) {
	const outstanding = 8192
	delays := [8]Time{5_000, 17_000, 40_000, 120_000, 350_000, 900_000, 2_100_000, 4_700_000}
	e := NewEngine(1)
	fired := 0
	var reschedule func()
	reschedule = func() {
		e.After(delays[fired&7], reschedule)
		fired++
	}
	for j := 0; j < outstanding; j++ {
		e.After(delays[j&7]+Time(j), reschedule)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N {
		e.step()
	}
}

// BenchmarkProcessHandoff measures the engine<->process goroutine handoff
// (park/wake round trip). Two sleepers offset by 1ns alternate, so the
// next event is always the other process's wake and every Sleep is a
// real switch; one op is one Sleep.
func BenchmarkProcessHandoff(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	sleeper := func(n int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(2)
			}
		}
	}
	p := e.Go("a", sleeper((b.N+1)/2))
	q := e.Spawn("b", 1, sleeper(b.N/2))
	e.WaitAll(p, q)
}

// BenchmarkInlineResume measures a lone sleeper: its own wake is always
// the next event, so every Sleep resumes inline without a switch.
func BenchmarkInlineResume(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	p := e.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.WaitAll(p)
}
