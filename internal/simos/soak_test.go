package simos

import (
	"fmt"
	"testing"

	"graybox/internal/sim"
)

// TestSoakMixedWorkload runs several processes doing unrelated work —
// streaming reads, write churn, memory pressure, metadata storms — on
// one machine, and checks cross-subsystem invariants at the end. It is
// the repository's integration stress test: every substrate (engine,
// disk, cache, fs, vm, pool) participates simultaneously.
func TestSoakMixedWorkload(t *testing.T) {
	for _, pers := range []Personality{Linux22, NetBSD15, Solaris7} {
		pers := pers
		t.Run(string(pers), func(t *testing.T) {
			s := New(Config{Personality: pers, MemoryMB: 48, KernelMB: 8, CacheFloorMB: 1, NumDisks: 2})
			stop := false

			// Fixture.
			if _, err := s.FS(0).CreateSized("stream", 24*MB); err != nil {
				t.Fatal(err)
			}

			// 1: streaming reader loops over a file larger than memory
			// allows comfortably.
			reader := s.Spawn("reader", 0, func(os *OS) {
				fd, err := os.Open("stream")
				if err != nil {
					t.Error(err)
					return
				}
				for !stop {
					for off := int64(0); off < fd.Size() && !stop; off += 256 << 10 {
						if err := fd.Read(off, 256<<10); err != nil {
							t.Error(err)
							return
						}
					}
				}
			})

			// 2: writer creates, extends and deletes files on disk 2.
			writer := s.Spawn("writer", sim.Millisecond, func(os *OS) {
				if err := os.Mkdir("/mnt1/out"); err != nil {
					t.Error(err)
					return
				}
				i := 0
				for !stop {
					path := fmt.Sprintf("/mnt1/out/w%04d", i)
					fd, err := os.Create(path)
					if err != nil {
						t.Error(err)
						return
					}
					if err := fd.Write(0, 512<<10); err != nil {
						t.Error(err)
						return
					}
					if i >= 8 {
						if err := os.Unlink(fmt.Sprintf("/mnt1/out/w%04d", i-8)); err != nil {
							t.Error(err)
							return
						}
					}
					i++
					os.Sleep(5 * sim.Millisecond)
				}
			})

			// 3: memory churner allocates, touches, frees.
			churner := s.Spawn("churner", 2*sim.Millisecond, func(os *OS) {
				for !stop {
					m := os.Malloc(6 * MB)
					os.TouchRange(m, 0, m.Pages(), true)
					os.TouchRange(m, 0, m.Pages(), true)
					os.Free(m)
					os.Sleep(3 * sim.Millisecond)
				}
			})

			// 4: metadata storm: stats and directory listings.
			stormer := s.Spawn("stormer", 3*sim.Millisecond, func(os *OS) {
				for !stop {
					if _, err := os.Stat("stream"); err != nil {
						t.Error(err)
						return
					}
					if _, err := os.Readdir("/mnt1/out"); err == nil {
						// Paths churn; errors are fine while the writer
						// races, but a successful listing must be sane.
						_ = err
					}
					os.Sleep(sim.Millisecond)
				}
			})

			// Stop everyone after two virtual seconds.
			s.Engine.After(2*sim.Second, func() { stop = true })
			s.Engine.WaitAll(reader, writer, churner, stormer)
			for _, p := range []*sim.Proc{reader, writer, churner, stormer} {
				if p.Err() != nil {
					t.Fatalf("%s: %v", p.Name(), p.Err())
				}
			}

			// --- invariants ---
			if used, cap := s.Pool.Used(), s.Pool.Capacity(); used > cap {
				t.Errorf("pool used %d > capacity %d", used, cap)
			}
			// All anonymous memory was freed.
			if held := s.VM.Held(); held != 0 {
				t.Errorf("anon pages leaked: %d", held)
			}
			// Cache accounting is self-consistent.
			if s.Personality() != NetBSD15 {
				if s.Cache.Held() != s.Cache.Len() {
					t.Errorf("cache held %d != len %d", s.Cache.Held(), s.Cache.Len())
				}
			} else if s.Cache.Held() != 0 {
				t.Error("NetBSD cache holds pool frames")
			}
			// The file systems did real work and balance their space.
			for i := 0; i < s.NumDisks(); i++ {
				if free := s.FS(i).FreeSpace(); free <= 0 {
					t.Errorf("fs %d free space %d", i, free)
				}
			}
			st := s.Cache.Stats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Errorf("cache never exercised: %+v", st)
			}
			if s.DataDisk(0).Stats().Reads == 0 || s.DataDisk(1).Stats().Writes == 0 {
				t.Error("disks never exercised")
			}
		})
	}
}

// TestSoakDeterminism runs the same mixed workload twice and requires
// bit-identical end states — the determinism guarantee everything else
// (probe timing!) rests on.
func TestSoakDeterminism(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		s := New(Config{Personality: Linux22, MemoryMB: 32, KernelMB: 8, CacheFloorMB: 1, Seed: 77})
		if _, err := s.FS(0).CreateSized("f", 8*MB); err != nil {
			t.Fatal(err)
		}
		stop := false
		a := s.Spawn("a", 0, func(os *OS) {
			fd, _ := os.Open("f")
			for !stop {
				fd.Read(0, fd.Size())
			}
		})
		b := s.Spawn("b", 0, func(os *OS) {
			for !stop {
				m := os.Malloc(4 * MB)
				os.TouchRange(m, 0, m.Pages(), true)
				os.Free(m)
				os.Sleep(sim.Millisecond)
			}
		})
		s.Engine.After(500*sim.Millisecond, func() { stop = true })
		s.Engine.WaitAll(a, b)
		st := s.Cache.Stats()
		return s.Engine.Now(), st.Hits, st.Misses
	}
	t1, h1, m1 := run()
	t2, h2, m2 := run()
	if t1 != t2 || h1 != h2 || m1 != m2 {
		t.Errorf("nondeterminism: (%v,%d,%d) vs (%v,%d,%d)", t1, h1, m1, t2, h2, m2)
	}
}
