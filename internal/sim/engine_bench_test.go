package sim

import "testing"

// BenchmarkSchedule measures the schedule-then-fire path: N events pushed
// and popped through the heap with no cancellations.
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
			e.Schedule(base+Time(j%37), fn)
		}
		e.Run()
	}
	_ = sink
}

// BenchmarkScheduleCancel measures the timer-churn pattern every ICL probe
// loop generates: schedule a batch, cancel it all, schedule again. The
// seed implementation's O(n) scan in Cancel makes this quadratic in the
// batch size.
func BenchmarkScheduleCancel(b *testing.B) {
	const batch = 1024
	e := NewEngine(1)
	fn := func() {}
	evs := make([]Event, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			evs[j] = e.Schedule(base+Time(j%37)+1, fn)
		}
		for j := 0; j < batch; j++ {
			e.Cancel(evs[j])
		}
		// One live event so Run advances the clock past the tombstones.
		e.Schedule(base+40, fn)
		e.Run()
	}
}

// benchTimerLoad drives the timer population the wheel targets: a large
// standing set of short-to-medium delay timers (microseconds to a few
// milliseconds, the sleep/IO range of the simulator) with steady churn —
// each firing schedules a replacement, and every fourth timer is
// canceled and rescheduled, the ICL probe-timeout pattern.
func benchTimerLoad(b *testing.B, e *Engine) {
	const outstanding = 8192
	delays := [8]Time{5_000, 17_000, 40_000, 120_000, 350_000, 900_000, 2_100_000, 4_700_000}
	fired := 0
	var reschedule func()
	i := 0
	reschedule = func() {
		fired++
		e.After(delays[i&7], reschedule)
		i++
		if i&3 == 0 {
			ev := e.After(delays[(i>>3)&7], reschedule)
			e.Cancel(ev)
		}
	}
	for j := 0; j < outstanding; j++ {
		e.After(delays[j&7]+Time(j), reschedule)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N {
		if !e.step() {
			b.Fatal("engine drained")
		}
	}
	b.StopTimer()
}

// BenchmarkTimerWheel measures the hierarchical timing wheel under the
// standing-timer churn load (wheel forced on).
func BenchmarkTimerWheel(b *testing.B) {
	e := NewEngine(1)
	e.wheelMin = 0
	benchTimerLoad(b, e)
}

// BenchmarkHeapSchedule measures the same load on the min-heap alone
// (wheel forced off) — the before/after pair for make bench-micro.
func BenchmarkHeapSchedule(b *testing.B) {
	e := NewEngine(1)
	e.wheelMin = 1 << 40
	benchTimerLoad(b, e)
}

// BenchmarkProcessHandoff measures the engine<->process goroutine handoff
// (park/wake round-trip) via the Sleep fast path.
func BenchmarkProcessHandoff(b *testing.B) {
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
