package sim

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"graybox/internal/telemetry"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.00us"},
		{1500 * Microsecond, "1.50ms"},
		{2 * Second, "2.000s"},
		{-Millisecond, "-1.00ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros = %v, want 3", got)
	}
	if got := (Second).Millis(); got != 1000 {
		t.Errorf("Millis = %v, want 1000", got)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.schedule(30, func() { got = append(got, 3) })
	e.schedule(10, func() { got = append(got, 1) })
	e.schedule(20, func() { got = append(got, 2) })
	e.schedule(10, func() { got = append(got, 11) }) // same time: scheduling order
	e.Run()
	want := []int{1, 11, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events fired %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.schedule(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15} {
		at := at
		e.schedule(at, func() { fired = append(fired, at) })
	}
	e.runUntil(10)
	if !reflect.DeepEqual(fired, []Time{5, 10}) {
		t.Errorf("fired %v, want [5 10]", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
	e.runUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
	if !reflect.DeepEqual(fired, []Time{5, 10, 15}) {
		t.Errorf("fired %v, want [5 10 15]", fired)
	}
}

func TestProcSleepInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	log := func(s string) { trace = append(trace, s) }
	e.Go("a", func(p *Proc) {
		log("a0")
		p.Sleep(10)
		log("a1")
		p.Sleep(20)
		log("a2")
	})
	e.Go("b", func(p *Proc) {
		log("b0")
		p.Sleep(15)
		log("b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace %v, want %v", trace, want)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestProcVirtualTimeAdvances(t *testing.T) {
	e := NewEngine(1)
	var at0, at1 Time
	p := e.Spawn("p", 7, func(p *Proc) {
		at0 = p.Now()
		p.Sleep(3)
		at1 = p.Now()
	})
	e.Run()
	if at0 != 7 || at1 != 10 {
		t.Errorf("times = %v, %v; want 7, 10", at0, at1)
	}
	if p.State() != StateDone {
		t.Error("process not done")
	}
	if p.Err() != nil {
		t.Errorf("unexpected err: %v", p.Err())
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var waiter *Proc
	waiter = e.Go("waiter", func(p *Proc) {
		order = append(order, "block")
		p.Block()
		order = append(order, "woken")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(50)
		order = append(order, "wake")
		p.Engine().Unblock(waiter)
	})
	e.Run()
	want := []string{"block", "wake", "woken"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine(1)
	e.Go("stuck", func(p *Proc) { p.Block() })
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e.Run()
}

func TestProcPanicCaptured(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("boom", func(p *Proc) { panic("bad") })
	e.Run()
	if p.Err() == nil {
		t.Fatal("expected captured panic error")
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []string
	use := func(name string, hold Time) func(p *Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		}
	}
	e.Spawn("a", 0, use("a", 100))
	e.Spawn("b", 10, use("b", 100)) // queues first
	e.Spawn("c", 20, use("c", 100)) // queues second
	e.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if e.Now() != 300 {
		t.Errorf("Now = %v, want 300 (fully serialized)", e.Now())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	var maxConcurrent, cur int
	body := func(p *Proc) {
		r.Acquire(p)
		cur++
		if cur > maxConcurrent {
			maxConcurrent = cur
		}
		p.Sleep(100)
		cur--
		r.Release()
	}
	for i := 0; i < 5; i++ {
		e.Go("w", body)
	}
	e.Run()
	if maxConcurrent != 2 {
		t.Errorf("max concurrency %d, want 2", maxConcurrent)
	}
	if e.Now() != 300 {
		t.Errorf("Now = %v, want 300 (ceil(5/2) batches)", e.Now())
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	e.Go("u", func(p *Proc) {
		p.Sleep(10)
		r.Acquire(p)
		p.Sleep(30)
		r.Release()
	})
	e.Run()
	if r.BusyTime() != 30 {
		t.Errorf("BusyTime = %v, want 30", r.BusyTime())
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEngine(1)
	a := e.Go("a", func(p *Proc) { p.Sleep(10) })
	b := e.Go("b", func(p *Proc) { p.Sleep(20) })
	e.WaitAll(a, b)
	if a.State() != StateDone || b.State() != StateDone {
		t.Fatal("WaitAll returned before processes finished")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []string {
		e := NewEngine(seed)
		var trace []string
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(p.Engine().RNG().Intn(100) + 1))
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	if !reflect.DeepEqual(run(42), run(42)) {
		t.Error("identical seeds produced different traces")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p := NewRNG(seed).Perm(m)
		if len(p) != m {
			return false
		}
		q := append([]int(nil), p...)
		sort.Ints(q)
		for i, v := range q {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministicStream(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGRoughUniformity(t *testing.T) {
	r := NewRNG(123)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Errorf("bucket %d count %d far from uniform %d", i, c, n/buckets)
		}
	}
}

func TestEventNonDecreasingTimeProperty(t *testing.T) {
	f := func(seed uint64, delays []uint16) bool {
		e := NewEngine(seed)
		var fireTimes []Time
		for _, d := range delays {
			e.schedule(Time(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestResumeCounters: a lone sleeper's own wake is always the next
// event, so after its first dispatch every resume is inline; two
// sleepers offset by 1ns always find the other's wake next, so every
// resume is a real switch.
func TestResumeCounters(t *testing.T) {
	const n = 100
	sleeper := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(2)
		}
	}
	run := func(procs int) (resumes, inline int64) {
		e := NewEngine(1)
		r := telemetry.NewRegistry("test", e.NowNS)
		e.SetTelemetry(r)
		for i := 0; i < procs; i++ {
			e.Spawn("p", Time(i), sleeper)
		}
		e.Run()
		return r.Counter("sim.resumes").Value(), r.Counter("sim.inline_resumes").Value()
	}
	if resumes, inline := run(1); resumes != n+1 || inline != n {
		t.Errorf("lone sleeper: %d resumes, %d inline; want %d, %d", resumes, inline, n+1, n)
	}
	if resumes, inline := run(2); resumes != 2*(n+1) || inline != 0 {
		t.Errorf("ping-pong pair: %d resumes, %d inline; want %d, 0", resumes, inline, 2*(n+1))
	}
}

// TestCallbackPanicReachesDriver: an event callback that panics
// surfaces from the driver's Run, whichever goroutine fired it: the
// driver, a parked process or one that just exited. The panic is not
// mistaken for the firing process's own, and a later Run carries on
// from where it stopped.
func TestCallbackPanicReachesDriver(t *testing.T) {
	for _, c := range []struct {
		name  string
		start Time
		body  func(p *Proc)
	}{
		{"fired by a parked process", 0, func(p *Proc) { p.Sleep(10) }},
		{"fired by an exiting process", 0, func(p *Proc) { p.Sleep(1) }},
		{"fired by the driver", 10, func(p *Proc) {}},
	} {
		e := NewEngine(1)
		p := e.Spawn("p", c.start, c.body)
		e.After(5, func() { panic("boom") })
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("%s: Run panicked with %v, want boom", c.name, r)
				}
			}()
			e.Run()
		}()
		if p.Err() != nil {
			t.Errorf("%s: the callback's panic became the process's error: %v", c.name, p.Err())
		}
		e.Run()
		if p.State() != StateDone || p.Err() != nil {
			t.Errorf("%s: after a second Run the process is %v with error %v", c.name, p.State(), p.Err())
		}
	}
}

// TestDriverNotReentrant: Run, WaitAll and runUntil drive the engine
// from outside it; called from a process body or an event callback they
// panic instead of corrupting the hand-off.
func TestDriverNotReentrant(t *testing.T) {
	e := NewEngine(1)
	p := e.Go("p", func(p *Proc) { p.Engine().Run() })
	e.Run()
	if p.Err() == nil || !strings.Contains(p.Err().Error(), "not re-entrant") {
		t.Errorf("Run from a process body: err = %v, want a re-entrancy panic", p.Err())
	}

	e = NewEngine(1)
	e.After(1, func() { e.runUntil(2) })
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "not re-entrant") {
			t.Errorf("runUntil from a callback: Run panicked with %q, want a re-entrancy panic", r)
		}
	}()
	e.Run()
}

// TestSleepAllocs guards the paths BenchmarkProcessHandoff and
// BenchmarkSleepNextWake measure: once warm, a Sleep that passes
// control to another process, and one that skips the heap while 1,024
// far-future events are pending, allocate nothing.
func TestSleepAllocs(t *testing.T) {
	sleeper := func(p *Proc) {
		for {
			p.Sleep(2)
		}
	}
	pair := NewEngine(1)
	pair.Spawn("a", 0, sleeper)
	pair.Spawn("b", 1, sleeper)
	lone := NewEngine(1)
	for i := 0; i < 1024; i++ {
		lone.After(Time(1<<50+i), func() {})
	}
	lone.Go("lone", sleeper)
	for _, e := range []*Engine{pair, lone} {
		e.runUntil(1000) // start the processes
		next := e.Now()
		allocs := testing.AllocsPerRun(100, func() {
			next += 1000
			e.runUntil(next)
		})
		if allocs != 0 {
			t.Errorf("%d process(es): Sleep allocs/op = %v, want 0", e.spawned, allocs)
		}
	}
}
