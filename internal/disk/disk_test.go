package disk

import (
	"testing"
	"testing/quick"

	"graybox/internal/sim"
)

func newTestDisk(e *sim.Engine) *Disk { return New(e, DefaultParams()) }

func TestParamsDerived(t *testing.T) {
	p := DefaultParams()
	if p.RotationPeriod() != 6*sim.Millisecond {
		t.Errorf("rotation period = %v, want 6ms", p.RotationPeriod())
	}
	want := int64(30 * 10 * 8714)
	if p.Blocks() != want {
		t.Errorf("Blocks = %d, want %d", p.Blocks(), want)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	e := sim.NewEngine(1)
	bad := DefaultParams()
	bad.RPM = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid params")
		}
	}()
	New(e, bad)
}

func TestSequentialNearBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	const nblocks = 2560 // 10 MB in 4 KB blocks
	done := e.Go("reader", func(p *sim.Proc) {
		for b := int64(0); b < nblocks; b++ {
			d.Access(p, b, 1, false)
		}
	})
	e.Run()
	_ = done
	// 10 MB at ~20 MB/s media rate should take roughly 0.5s; allow for
	// per-request overhead (2560 * 50us = 128ms) and initial positioning.
	elapsed := e.Now()
	if elapsed < 400*sim.Millisecond || elapsed > 900*sim.Millisecond {
		t.Errorf("sequential 10MB took %v, want ~0.5-0.9s", elapsed)
	}
	st := d.Stats()
	if st.Reads != nblocks || st.BlocksRead != nblocks {
		t.Errorf("stats = %+v", st)
	}
	// After the first positioning, sequential single-block reads should
	// pay no further rotational latency.
	if st.RotTime > d.Params().RotationPeriod() {
		t.Errorf("rotational time %v for sequential run, want <= one period", st.RotTime)
	}
}

func TestRandomSlowerThanSequential(t *testing.T) {
	run := func(random bool) sim.Time {
		e := sim.NewEngine(7)
		d := newTestDisk(e)
		rng := sim.NewRNG(99)
		const n = 200
		e.Go("r", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				b := int64(i)
				if random {
					b = rng.Int63n(d.Params().Blocks())
				}
				d.Access(p, b, 1, false)
			}
		})
		e.Run()
		return e.Now()
	}
	seq, rnd := run(false), run(true)
	if rnd < 5*seq {
		t.Errorf("random %v not much slower than sequential %v", rnd, seq)
	}
	// Random 4KB accesses should average seek+rot ~ 8ms each.
	per := rnd / 200
	if per < 3*sim.Millisecond || per > 15*sim.Millisecond {
		t.Errorf("random access latency %v, want 3-15ms", per)
	}
}

func TestSeekCurveMonotonic(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	if d.seekTime(0, 0) != 0 {
		t.Error("zero-distance seek should be free")
	}
	prev := sim.Time(0)
	for _, dist := range []int{1, 10, 100, 1000, 8000} {
		s := d.seekTime(0, dist)
		if s <= prev {
			t.Errorf("seek(%d) = %v not increasing", dist, s)
		}
		prev = s
	}
	if d.seekTime(0, d.Params().Cylinders-1) != d.Params().MaxSeek {
		t.Errorf("full-stroke seek = %v, want MaxSeek", d.seekTime(0, d.Params().Cylinders-1))
	}
	if d.seekTime(5, 100) != d.seekTime(100, 5) {
		t.Error("seek should be symmetric")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	e.Go("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range access")
			}
			panic("rethrow to end proc") // keep proc bookkeeping consistent
		}()
		d.Access(p, d.Params().Blocks(), 1, false)
	})
	e.Run()
}

func TestFIFOContention(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	var order []string
	req := func(name string, delay sim.Time) {
		e.Spawn(name, delay, func(p *sim.Proc) {
			d.Access(p, 0, 30, false) // one full track
			order = append(order, name)
		})
	}
	req("a", 0)
	req("b", 1)
	req("c", 2)
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v, want [a b c]", order)
	}
	if d.Stats().QueueTime == 0 {
		t.Error("expected nonzero queueing time under contention")
	}
}

func TestWriteCounters(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	e.Go("w", func(p *sim.Proc) {
		d.Access(p, 100, 8, true)
	})
	e.Run()
	st := d.Stats()
	if st.Writes != 1 || st.BlocksWrote != 8 || st.Reads != 0 {
		t.Errorf("stats = %+v", st)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestServiceTimeNonNegativeProperty(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	f := func(rawBlock uint32, rawN uint8, rawStart uint32) bool {
		block := int64(rawBlock) % d.Params().Blocks()
		n := int(rawN%30) + 1
		seek, rot, xfer := d.serviceTime(block, n, sim.Time(rawStart))
		return seek >= 0 && rot >= 0 && xfer > 0 &&
			rot < d.Params().RotationPeriod()+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	e.Go("r", func(p *sim.Proc) {
		d.Access(p, 0, 30, false)
		p.Sleep(sim.Second)
		d.Access(p, 0, 30, false)
	})
	e.Run()
	if d.BusyTime() <= 0 || d.BusyTime() >= e.Now() {
		t.Errorf("BusyTime = %v out of (0, %v)", d.BusyTime(), e.Now())
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	bpc := int64(d.Params().BlocksPerTrack * d.Params().TracksPerCyl)
	// Arrival order is far from seek order: FCFS must not reorder.
	blocks := []int64{5000 * bpc, 100 * bpc, 4900 * bpc}
	var order []int64
	e.Go("holder", func(p *sim.Proc) {
		d.Access(p, 0, d.Params().BlocksPerTrack, false)
	})
	for i, b := range blocks {
		b := b
		e.Spawn("req", sim.Time(i+1)*sim.Microsecond, func(p *sim.Proc) {
			d.Access(p, b, 1, false)
			order = append(order, b)
		})
	}
	e.Run()
	for i := range blocks {
		if len(order) != len(blocks) || order[i] != blocks[i] {
			t.Fatalf("FCFS order = %v, want arrival order %v", order, blocks)
		}
	}
}

func TestStateMidRequestPanics(t *testing.T) {
	e := sim.NewEngine(1)
	d := newTestDisk(e)
	e.Go("a", func(p *sim.Proc) {
		d.Access(p, 0, 30, false)
	})
	e.Go("b", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond) // a is now inside Access
		defer func() {
			if recover() == nil {
				t.Error("State with a request in flight did not panic")
			}
		}()
		d.State()
	})
	e.Run()
}
