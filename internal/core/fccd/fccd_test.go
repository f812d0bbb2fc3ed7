package fccd

import (
	"fmt"
	"testing"

	"graybox/internal/sim"
	"graybox/internal/simos"
)

// testConfig uses small units so tests run on small files quickly.
func testConfig() Config {
	return Config{AccessUnit: 1 << 20, PredictionUnit: 256 << 10, Seed: 42}
}

func newSys() *simos.System {
	return simos.New(simos.Config{
		Personality: simos.Linux22, MemoryMB: 64, KernelMB: 8, CacheFloorMB: 1,
	})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.AccessUnit != DefaultAccessUnit || c.PredictionUnit != DefaultPredictionUnit {
		t.Errorf("defaults = %+v", c)
	}
	c = Config{AccessUnit: 1 << 20, PredictionUnit: 4 << 20}.withDefaults()
	if c.PredictionUnit != 1<<20 {
		t.Error("prediction unit not clamped to access unit")
	}
}

func TestSegmentationRespectsBoundary(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		d := New(os, Config{AccessUnit: 1 << 20, PredictionUnit: 256 << 10, Boundary: 100})
		segs := d.segmentFile(2_500_000)
		var covered int64
		for i, seg := range segs {
			if seg.Off%100 != 0 {
				t.Errorf("segment %d offset %d not record-aligned", i, seg.Off)
			}
			if i < len(segs)-1 && seg.Len%100 != 0 {
				t.Errorf("segment %d length %d not record-aligned", i, seg.Len)
			}
			if seg.Off != covered {
				t.Errorf("gap before segment %d", i)
			}
			covered += seg.Len
		}
		if covered != 2_500_000 {
			t.Errorf("covered %d of 2500000", covered)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeFileRanksCachedFirst(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		// 8 MB file; warm the middle 4 MB only.
		fd, err := os.Create("data")
		if err != nil {
			t.Fatal(err)
		}
		size := int64(8 << 20)
		if err := fd.Write(0, size); err != nil {
			t.Fatal(err)
		}
		s.DropCaches()
		if err := fd.Read(2<<20, 4<<20); err != nil {
			t.Fatal(err)
		}

		d := New(os, testConfig())
		segs, err := d.ProbeFile("data")
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 8 {
			t.Fatalf("segments = %d, want 8", len(segs))
		}
		// The four cached MB (offsets 2,3,4,5 MB) must rank first.
		cachedFirst := map[int64]bool{2 << 20: true, 3 << 20: true, 4 << 20: true, 5 << 20: true}
		for i := 0; i < 4; i++ {
			if !cachedFirst[segs[i].Off] {
				t.Errorf("rank %d = offset %d MB, want a cached segment", i, segs[i].Off>>20)
			}
		}
		// Probe times themselves must be bimodal.
		if segs[3].ProbeTime*20 > segs[4].ProbeTime {
			t.Errorf("no timing gap: %v vs %v", segs[3].ProbeTime, segs[4].ProbeTime)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeCostsAreSmall(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		fd, _ := os.Create("data")
		fd.Write(0, 8<<20)
		// Warm cache: probing should take microseconds per probe.
		fd.Read(0, 8<<20)
		d := New(os, testConfig())
		sw := os.Now()
		if _, err := d.ProbeFile("data"); err != nil {
			t.Fatal(err)
		}
		elapsed := os.Now() - sw
		per := elapsed / sim.Time(d.Probes())
		if per > 20*sim.Microsecond {
			t.Errorf("warm probe cost %v each, want a few us", per)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSmallFileGetsFakeTime(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		fd, _ := os.Create("tiny")
		fd.Write(0, 100) // sub-page
		s.DropCaches()
		d := New(os, testConfig())
		probes, err := d.OrderFiles([]string{"tiny"})
		if err != nil {
			t.Fatal(err)
		}
		if probes[0].ProbeTime != FakeSmallFileTime {
			t.Errorf("small file probe time = %v, want fake high", probes[0].ProbeTime)
		}
		if d.Probes() != 0 {
			t.Error("small file was probed (Heisenberg violation)")
		}
		// And its pages must not have been dragged into the cache.
		bm, _ := s.FS(0).PresenceBitmap("tiny")
		for _, cached := range bm {
			if cached {
				t.Error("probe cached part of a small file")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOrderFilesCachedFirst(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		os.Mkdir("d")
		var paths []string
		for i := 0; i < 6; i++ {
			p := fmt.Sprintf("d/f%d", i)
			fd, _ := os.Create(p)
			fd.Write(0, 2<<20)
			paths = append(paths, p)
		}
		s.DropCaches()
		// Warm files 1 and 4.
		for _, i := range []int{1, 4} {
			fd, _ := os.Open(paths[i])
			fd.Read(0, fd.Size())
		}
		d := New(os, testConfig())
		probes, err := d.OrderFiles(paths)
		if err != nil {
			t.Fatal(err)
		}
		first := map[string]bool{probes[0].Path: true, probes[1].Path: true}
		if !first["d/f1"] || !first["d/f4"] {
			t.Errorf("warm files not ranked first: %v, %v", probes[0].Path, probes[1].Path)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomProbeOffsetsDiffer(t *testing.T) {
	// Two detectors with different seeds should not probe the same
	// byte (with overwhelming probability), which is what protects
	// concurrent probers from poisoning each other.
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		fd, _ := os.Create("data")
		fd.Write(0, 4<<20)
		fd.Read(0, 4<<20)
		d1 := New(os, Config{AccessUnit: 4 << 20, PredictionUnit: 4 << 20, Seed: 1})
		d2 := New(os, Config{AccessUnit: 4 << 20, PredictionUnit: 4 << 20, Seed: 2})
		off1 := d1.rng.Fork().Int63n(4 << 20)
		off2 := d2.rng.Fork().Int63n(4 << 20)
		if off1 == off2 {
			t.Error("different seeds chose identical probe offsets")
		}
		_, _ = d1.ProbeFd(fd)
		_, _ = d2.ProbeFd(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPositiveFeedbackStabilizes(t *testing.T) {
	// Reading in probe order (access-unit chunks) should make the next
	// probe pass agree with the previous one: the control technique of
	// reinforcing behavior via feedback (Section 2.2).
	s := simos.New(simos.Config{
		Personality: simos.Linux22, MemoryMB: 24, KernelMB: 8, CacheFloorMB: 1,
	})
	err := s.Run("t", func(os *simos.OS) {
		fd, _ := os.Create("data")
		size := int64(24 << 20) // bigger than the 16 MB pool
		if err := fd.Write(0, size); err != nil {
			t.Fatal(err)
		}
		d := New(os, testConfig())
		readPlan := func() []Segment {
			segs, err := d.ProbeFd(fd)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				fd.Read(seg.Off, seg.Len)
			}
			return segs
		}
		readPlan()
		// After one feedback round, most of the plan's fast prefix stays
		// fast on the next round.
		segs2 := d.mustPlan(t, fd)
		fastHalf := 0
		for i := 0; i < len(segs2)/2; i++ {
			if segs2[i].ProbeTime < sim.Millisecond {
				fastHalf++
			}
		}
		if fastHalf < len(segs2)/4 {
			t.Errorf("only %d of %d leading segments cached after feedback", fastHalf, len(segs2)/2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mustPlan is a test helper to keep the feedback test readable.
func (d *Detector) mustPlan(t *testing.T, fd *simos.Fd) []Segment {
	t.Helper()
	segs, err := d.ProbeFd(fd)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestCoalescePlanMergesRuns(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		fd, _ := os.Create("data")
		fd.Write(0, 8<<20)
		s.DropCaches()
		fd.Read(2<<20, 4<<20) // warm the middle
		d := New(os, testConfig())
		plan, err := d.ProbeFd(fd)
		if err != nil {
			t.Fatal(err)
		}
		merged := CoalescePlan(plan)
		if len(merged) >= len(plan) {
			t.Errorf("coalescing did not reduce segments: %d -> %d", len(plan), len(merged))
		}
		// Coverage is preserved exactly.
		var total int64
		seen := map[int64]bool{}
		for _, seg := range merged {
			total += seg.Len
			for off := seg.Off; off < seg.Off+seg.Len; off += 1 << 20 {
				if seen[off] {
					t.Fatalf("range overlap at %d", off)
				}
				seen[off] = true
			}
		}
		if total != 8<<20 {
			t.Errorf("coverage = %d bytes, want full file", total)
		}
		// The fast (cached) region still comes before the cold region.
		if merged[0].ProbeTime > merged[len(merged)-1].ProbeTime {
			t.Error("coalescing reordered fast behind slow")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoalescePlanDegenerate(t *testing.T) {
	if got := CoalescePlan(nil); got != nil {
		t.Error("nil plan changed")
	}
	one := []Segment{{Off: 0, Len: 10}}
	if got := CoalescePlan(one); len(got) != 1 {
		t.Error("single segment changed")
	}
	// Non-adjacent segments stay separate.
	two := []Segment{{Off: 0, Len: 10}, {Off: 20, Len: 10}}
	if got := CoalescePlan(two); len(got) != 2 {
		t.Error("non-adjacent segments merged")
	}
}
