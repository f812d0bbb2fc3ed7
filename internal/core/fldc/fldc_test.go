package fldc

import (
	"fmt"
	"reflect"
	"testing"

	"graybox/internal/core/fccd"
	"graybox/internal/sim"
	"graybox/internal/simos"
)

func newSys() *simos.System {
	return simos.New(simos.Config{
		Personality: simos.Linux22, MemoryMB: 64, KernelMB: 8, CacheFloorMB: 1,
	})
}

// makeFiles creates n files of size bytes in dir and returns their paths
// in creation order.
func makeFiles(t *testing.T, os *simos.OS, dir string, n int, size int64) []string {
	t.Helper()
	if err := os.Mkdir(dir); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s/f%03d", dir, i)
		fd, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if size > 0 {
			if err := fd.Write(0, size); err != nil {
				t.Fatal(err)
			}
		}
		paths[i] = p
	}
	return paths
}

func TestOrderByINumberRecoversCreationOrder(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		paths := makeFiles(t, os, "d", 10, 4096)
		// Shuffle.
		shuffled := append([]string(nil), paths...)
		rng := sim.NewRNG(5)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		l := New(os)
		got, err := l.OrderByINumber(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, paths) {
			t.Errorf("order = %v, want creation order", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestINumberOrderReadsFasterThanRandom(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		paths := makeFiles(t, os, "d", 60, 8192)
		l := New(os)
		readAll := func(order []string) sim.Time {
			s.DropCaches()
			start := os.Now()
			for _, p := range order {
				fd, err := os.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				fd.Read(0, fd.Size())
			}
			return os.Now() - start
		}
		random := append([]string(nil), paths...)
		sim.NewRNG(11).Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
		tRandom := readAll(random)
		ordered, err := l.OrderByINumber(random)
		if err != nil {
			t.Fatal(err)
		}
		tOrdered := readAll(ordered)
		if tOrdered*2 > tRandom {
			t.Errorf("i-number order %v not much faster than random %v", tOrdered, tRandom)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefreshRestoresLayoutCorrelation(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		makeFiles(t, os, "d", 40, 8192)
		// Age: delete and recreate with varied sizes.
		rng := sim.NewRNG(17)
		for epoch := 0; epoch < 10; epoch++ {
			names, _ := os.Readdir("d")
			for k := 0; k < 3; k++ {
				victim := names[rng.Intn(len(names))]
				if err := os.Unlink("d/" + victim); err != nil {
					continue // may repeat a victim; skip
				}
				fd, err := os.Create(fmt.Sprintf("d/new%02d_%d", epoch, k))
				if err != nil {
					t.Fatal(err)
				}
				fd.Write(0, int64(rng.Intn(4)+1)*4096)
			}
		}
		l := New(os)
		if err := l.Refresh("d", BySize); err != nil {
			t.Fatal(err)
		}
		// After refresh, i-number order must match layout order exactly.
		names, _ := os.Readdir("d")
		ordered, err := l.OrderByINumber(prefixAll("d/", names))
		if err != nil {
			t.Fatal(err)
		}
		var lastStart int64 = -1
		for _, p := range ordered {
			blocks, err := s.FS(0).BlocksOf(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) == 0 {
				continue
			}
			if blocks[0] <= lastStart {
				t.Fatalf("after refresh, %s at block %d out of order (prev %d)", p, blocks[0], lastStart)
			}
			lastStart = blocks[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func prefixAll(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

func TestRefreshPreservesContentsAndTimes(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		makeFiles(t, os, "d", 5, 3*4096)
		before := map[string]struct {
			size  int64
			mtime sim.Time
		}{}
		names, _ := os.Readdir("d")
		for _, n := range names {
			st, _ := os.Stat("d/" + n)
			before[n] = struct {
				size  int64
				mtime sim.Time
			}{st.Size, st.Mtime}
		}
		l := New(os)
		if err := l.Refresh("d", BySize); err != nil {
			t.Fatal(err)
		}
		after, _ := os.Readdir("d")
		if len(after) != len(names) {
			t.Fatalf("file count changed: %d -> %d", len(names), len(after))
		}
		for _, n := range after {
			st, err := os.Stat("d/" + n)
			if err != nil {
				t.Fatal(err)
			}
			want := before[n]
			if st.Size != want.size {
				t.Errorf("%s size %d -> %d", n, want.size, st.Size)
			}
			if st.Mtime != want.mtime {
				t.Errorf("%s mtime changed (%v -> %v): make(1) would rebuild", n, want.mtime, st.Mtime)
			}
		}
		// The temporary directory is gone.
		if _, err := os.Readdir("d.gbrefresh"); err == nil {
			t.Error("refresh left its temporary directory behind")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefreshBySizePutsSmallFilesFirst(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		os.Mkdir("d")
		sizes := map[string]int64{"big": 20 * 4096, "small": 4096, "mid": 5 * 4096}
		for n, sz := range sizes {
			fd, _ := os.Create("d/" + n)
			fd.Write(0, sz)
		}
		l := New(os)
		if err := l.Refresh("d", BySize); err != nil {
			t.Fatal(err)
		}
		stSmall, _ := os.Stat("d/small")
		stMid, _ := os.Stat("d/mid")
		stBig, _ := os.Stat("d/big")
		if !(stSmall.Ino < stMid.Ino && stMid.Ino < stBig.Ino) {
			t.Errorf("i-numbers not size-ordered: small=%d mid=%d big=%d",
				stSmall.Ino, stMid.Ino, stBig.Ino)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComposeWithFCCDCachedGroupFirst(t *testing.T) {
	s := newSys()
	err := s.Run("t", func(os *simos.OS) {
		paths := makeFiles(t, os, "d", 8, 2<<20)
		s.DropCaches()
		// Warm files 5 and 2 (out of i-number order on purpose).
		for _, i := range []int{5, 2} {
			fd, _ := os.Open(paths[i])
			fd.Read(0, fd.Size())
		}
		l := New(os)
		det := fccd.New(os, fccd.Config{AccessUnit: 2 << 20, PredictionUnit: 1 << 20, Seed: 9})
		got, err := l.ComposeWithFCCD(det, paths)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(paths) {
			t.Fatalf("lost files: %v", got)
		}
		// First two: the cached files, i-number order => f002 then f005.
		if got[0] != "d/f002" || got[1] != "d/f005" {
			t.Errorf("cached group = %v, %v; want d/f002, d/f005", got[0], got[1])
		}
		// Rest: on-disk files in i-number (creation) order.
		wantRest := []string{"d/f000", "d/f001", "d/f003", "d/f004", "d/f006", "d/f007"}
		if !reflect.DeepEqual(got[2:], wantRest) {
			t.Errorf("disk group = %v, want %v", got[2:], wantRest)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
