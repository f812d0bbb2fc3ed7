package main

import (
	"fmt"
	"math"
	"math/rand"

	"graybox/internal/apps"
	"graybox/internal/core/fccd"
	"graybox/internal/core/fldc"
	"graybox/internal/core/mac"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/workload"
)

// The benchmark machine is the experiment suite's quick scale: a 64 MB
// machine with the paper's kernel-reserve and cache-floor proportions,
// on which every paper-sized figure shrinks by 64/896.
const (
	memoryMB      = 64
	kernelMB      = 4
	cacheFloorMB  = 1
	netbsdCacheMB = 4
	unitBytes     = 1 * simos.MB // FCCD access and prediction unit (20 MB and 5 MB scaled)
)

// params is one trial's seeded inputs. Only the fields of the trial's
// workload are set.
type params struct {
	Index   int    `json:"index"`
	SimSeed uint64 `json:"sim_seed"`

	// icl-noise: the background mix's duty cycle.
	Intensity float64 `json:"intensity,omitempty"`

	// sort-mac: the static pass size, or (when 0) the minimum of the
	// MAC-driven passes.
	PassMB   float64 `json:"pass_mb,omitempty"`
	MACMinMB float64 `json:"mac_min_mb,omitempty"`

	// scan-probe: the platform and the scanned file's size.
	Personality simos.Personality `json:"personality,omitempty"`
	FileMB      int64             `json:"file_mb,omitempty"`
}

// spec describes one workload: how a seed becomes a round of trial
// parameters, and how one trial runs.
type spec struct {
	name string
	// round is the number of trials one seed defines. A run repeats the
	// round until its time is up, so every run of a seed does the same
	// set of trials and each repetition must reproduce the same digest.
	round int
	// params makes trial i's inputs from u, its stratified draw in [0, 1).
	params func(i int, u float64) params
	// base builds the shared platform trials fork from (nil when every
	// trial builds its own machine).
	base func(tr *tracer) *simos.Snapshot
	run  func(tc *trialCtx, p params) (sim.Time, error)
	// bounds returns the oracle scores a trial must meet.
	bounds func(p params) bounds
}

var specs = []*spec{
	{
		name:  "icl-noise",
		round: 24,
		params: func(i int, u float64) params {
			return params{Intensity: 0.1 + 0.4*u}
		},
		base: noiseBase,
		run:  runNoise,
		// Contention delays probes, but the quiet end of the sweep leaves
		// FCCD near 0.9, FLDC's stat-based order exact, and MAC within a
		// few percent.
		bounds: fixed(bounds{minFCCDAccuracy: 0.75, minFLDCTau: 0.9, maxMACRelErr: 0.25}),
	},
	{
		name:  "sort-mac",
		round: 10,
		params: func(i int, u float64) params {
			// Half the round sorts with static passes at fig7's five sweep
			// points, half with MAC-driven passes whose gb_alloc minimum is
			// spread over 50-150 MB (paper sizes, scaled). The static sizes
			// are not drawn: sorting time jumps twentyfold where four
			// passes overcommit memory, so a drawn size would make the
			// round's work hinge on which side of that cliff it fell.
			if i%2 == 1 {
				return params{MACMinMB: sortScale(50 + 100*u)}
			}
			return params{PassMB: sortScale(float64(50 + 50*(i/2)))}
		},
		run: runSort,
		// Four sorters grab memory while each gb_alloc probes, so the
		// memory the oracle saw free at entry is often gone by the end:
		// MAC's error is large by design, and the bound only catches an
		// allocator that admits nothing that was there.
		bounds: fixed(bounds{maxMACRelErr: 0.95}),
	},
	{
		name:  "scan-probe",
		round: 18,
		params: func(i int, u float64) params {
			pers := []simos.Personality{simos.Linux22, simos.NetBSD15, simos.Solaris7}[i%3]
			// 0.5x to 2x the cache, log-uniform.
			return params{Personality: pers, FileMB: int64(float64(cacheMBOf(pers))*0.5*math.Pow(4, u) + 0.5)}
		},
		run: runScan,
		// FCCD can only split bimodal probe times: on a file that fits in
		// the cache every unit probes equally fast, so a warm scan's plan
		// says nothing. Only files a quarter larger than the cache are
		// scored.
		bounds: func(p params) bounds {
			if float64(p.FileMB) >= 1.25*float64(cacheMBOf(p.Personality)) {
				return bounds{minFCCDAccuracy: 0.75}
			}
			return bounds{}
		},
	},
}

func fixed(b bounds) func(params) bounds { return func(params) bounds { return b } }

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// roundParams derives a round of trial parameters from the seed. The
// continuous parameter is stratified: trial i's draw lies in the i-th of
// round equal slices of [0, 1), and the seed jitters it within its slice
// and shuffles the trial order. Every seed therefore covers the whole
// parameter range in the same proportions, which keeps host timings
// comparable between seeds while each trial's inputs still change.
func (s *spec) roundParams(seed uint64) []params {
	rng := rand.New(rand.NewSource(int64(seed)))
	ps := make([]params, s.round)
	for i := range ps {
		u := (float64(i) + rng.Float64()) / float64(s.round)
		ps[i] = s.params(i, u)
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for i := range ps {
		ps[i].Index = i
		ps[i].SimSeed = seed*1_000_003 + uint64(i)*7919 + 1
	}
	return ps
}

// machine returns the benchmark machine's configuration.
func machine(p simos.Personality, seed uint64, disks, cpus int) simos.Config {
	return simos.Config{
		Personality:   p,
		Seed:          seed,
		MemoryMB:      memoryMB,
		KernelMB:      kernelMB,
		CacheFloorMB:  cacheFloorMB,
		NetBSDCacheMB: netbsdCacheMB,
		NumDisks:      disks,
		CPUs:          cpus,
	}
}

// cacheMBOf is the most file cache a personality's machine can hold.
func cacheMBOf(p simos.Personality) int64 {
	if p == simos.NetBSD15 {
		return netbsdCacheMB
	}
	return memoryMB - kernelMB
}

// usableMB is the frame pool's capacity, the bound on a unified cache.
func usableMB(s *simos.System) int64 {
	return int64(s.Pool.Capacity()) * int64(s.PageSize()) / simos.MB
}

const noiseTargets = 8

func noiseTarget(i int) string { return fmt.Sprintf("icl.target.%d", i) }

// noiseBase builds the aged platform every icl-noise trial forks: a
// Linux machine holding the ICL's 8 target files, which together fill
// half the cache.
func noiseBase(tr *tracer) *simos.Snapshot {
	sp := tr.begin("setup.new", -1, 0)
	s := simos.New(machine(simos.Linux22, 1, 1, 0))
	tr.end(sp, 0)
	sp = tr.begin("setup.populate", -1, 0)
	target := max(usableMB(s)/(2*noiseTargets), 1) * simos.MB
	for i := 0; i < noiseTargets; i++ {
		if _, err := s.FS(0).CreateSized(noiseTarget(i), target); err != nil {
			panic(err) // a fixed-size file on an empty disk cannot fail
		}
	}
	tr.end(sp, 0)
	sp = tr.begin("setup.snapshot", -1, 0)
	snap := s.Snapshot()
	tr.end(sp, 0)
	return snap
}

// runNoise mirrors the noise experiment: a scan+zipf+hog+web mix runs
// at the trial's intensity while an ICL process probes every target with
// FCCD, orders them with FLDC, and admits memory with MAC. The
// foreground time is the ICL process's lifetime.
func runNoise(tc *trialCtx, p params) (sim.Time, error) {
	sp := tc.tr.begin("setup.fork", tc.root, 0)
	s := tc.base.Fork(p.SimSeed)
	tc.tr.end(sp, s.Engine.Now())
	tc.setupDone(s)

	usable := usableMB(s)
	web := &workload.WebServer{Files: 32, FileKB: 64, RatePerSec: 400}
	mix := workload.NewMix(p.SimSeed, p.Intensity).Add(
		&workload.Scanner{FileMB: max(usable/2, 4)},
		&workload.ZipfReader{Files: 64, FileKB: max(usable*1024/128, 64)},
		&workload.MemHog{},
		web,
	)
	if _, err := mix.Start(s); err != nil {
		return 0, err
	}
	tc.web = web

	paths := make([]string, noiseTargets)
	for i := range paths {
		paths[i] = noiseTarget(i)
	}
	var fg sim.Time
	icl := s.Spawn("icl", 50*sim.Millisecond, func(os *simos.OS) {
		t0 := os.Now()
		// Warm one target, so that FCCD's predictions meet both cached
		// and uncached truth.
		fd, err := os.Open(paths[0])
		must(err)
		must(fd.Read(0, fd.Size()))
		det := fccd.New(os, fccd.Config{AccessUnit: unitBytes, PredictionUnit: unitBytes, Seed: p.SimSeed + 1})
		lay := fldc.New(os)
		ctl := mac.New(os, mac.Config{InitialIncrement: 1 * simos.MB, MaxIncrement: 4 * simos.MB})
		for _, path := range paths {
			sp := tc.tr.begin("fccd.ProbeFile", tc.run, os.Now())
			_, err := det.ProbeFile(path)
			tc.tr.end(sp, os.Now())
			must(err)
		}
		sp := tc.tr.begin("fldc.ComposeWithFCCD", tc.run, os.Now())
		_, err = lay.ComposeWithFCCD(det, paths)
		tc.tr.end(sp, os.Now())
		must(err)
		sp = tc.tr.begin("mac.GBAlloc", tc.run, os.Now())
		a, ok := ctl.GBAlloc(simos.MB, usable*simos.MB, simos.MB)
		tc.tr.end(sp, os.Now())
		if ok {
			sp = tc.tr.begin("mac.GBFree", tc.run, os.Now())
			ctl.GBFree(a)
			tc.tr.end(sp, os.Now())
		}
		os.Sleep(20 * sim.Millisecond)
		fg = os.Now() - t0
	})
	tc.waitAll(s, icl)
	if err := icl.Err(); err != nil {
		return 0, err
	}
	mix.Stop()
	sp = tc.tr.begin("workload.Drain", tc.root, s.Engine.Now())
	mix.Drain(s)
	tc.tr.end(sp, s.Engine.Now())
	return fg, nil
}

// sort-mac runs fig7 at half the quick scale: a 32 MB machine, on which
// the paper's 477 MB inputs shrink to 17 MB. Four static passes of the
// upper half of the sweep overcommit its memory, as in the paper.
const (
	sortMemoryMB = 32
	sortDisks    = 4
	sortRecord   = 100
	sortSimCPUs  = 2
)

// sortScale scales a paper-sized figure to the sort machine.
func sortScale(paperMB float64) float64 { return paperMB * sortMemoryMB / 896 }

func bytesOf(mb float64) int64 { return int64(mb*simos.MB) / sortRecord * sortRecord }

// runSort mirrors fig7: four competing sorts, one per data disk, on a
// fresh machine with a swap disk and two simulated CPUs. The foreground
// time is the sum of the sorts' completion times.
func runSort(tc *trialCtx, p params) (sim.Time, error) {
	sp := tc.tr.begin("setup.new", tc.root, 0)
	cfg := machine(simos.Linux22, p.SimSeed, sortDisks, sortSimCPUs)
	cfg.MemoryMB = sortMemoryMB
	s := simos.New(cfg)
	input := bytesOf(sortScale(477))
	tc.tr.end(sp, s.Engine.Now())
	sp = tc.tr.begin("setup.populate", tc.root, s.Engine.Now())
	for i := 0; i < sortDisks; i++ {
		if _, err := s.FS(i).CreateSized("input", input); err != nil {
			return 0, err
		}
	}
	tc.tr.end(sp, s.Engine.Now())
	tc.setupDone(s)

	elapsed := make([]sim.Time, sortDisks)
	procs := make([]*sim.Proc, sortDisks)
	for i := range procs {
		i := i
		prefix := ""
		if i > 0 {
			prefix = fmt.Sprintf("/mnt%d/", i)
		}
		procs[i] = s.Spawn(fmt.Sprintf("sort%d", i), 0, func(os *simos.OS) {
			must(os.Mkdir(prefix + "runs"))
			opts := apps.SortOptions{Variant: apps.SortStatic, PassBytes: bytesOf(p.PassMB)}
			if p.PassMB == 0 {
				opts = apps.SortOptions{
					Variant: apps.SortMAC,
					MAC: mac.New(os, mac.Config{
						InitialIncrement: bytesOf(max(sortScale(4), 1)),
						MaxIncrement:     bytesOf(sortScale(64)),
					}),
					MACMin: bytesOf(p.MACMinMB),
					MACMax: input,
				}
			}
			sp := tc.tr.begin("apps.FastSort", tc.run, os.Now())
			res, err := apps.FastSort(os, apps.SortSpec{
				Input: prefix + "input", OutputDir: prefix + "runs", RecordSize: sortRecord,
			}, opts, apps.DefaultCosts())
			tc.tr.end(sp, os.Now())
			must(err)
			elapsed[i] = res.Total
			tc.sortPasses += int64(res.Passes)
		})
	}
	tc.waitAll(s, procs...)
	var fg sim.Time
	for i, p := range procs {
		if err := p.Err(); err != nil {
			return 0, err
		}
		fg += elapsed[i]
	}
	return fg, nil
}

const scanRepeats = 3 // one warming scan plus two warm ones, as in fig2

// runScan mirrors fig2/fig4: a cold machine of the trial's personality
// holds one file, which is scanned linearly, then (after the cache is
// dropped) with FCCD-guided gray-box scans. The foreground time is the
// sum of the scans' elapsed times.
func runScan(tc *trialCtx, p params) (sim.Time, error) {
	sp := tc.tr.begin("setup.new", tc.root, 0)
	s := simos.New(machine(p.Personality, p.SimSeed, 1, 0))
	tc.tr.end(sp, s.Engine.Now())
	sp = tc.tr.begin("setup.populate", tc.root, s.Engine.Now())
	if _, err := s.FS(0).CreateSized("data", p.FileMB*simos.MB); err != nil {
		return 0, err
	}
	tc.tr.end(sp, s.Engine.Now())
	tc.setupDone(s)

	costs := apps.DefaultCosts()
	var fg sim.Time
	scan := func(gb bool, rep int) error {
		name := "apps.Scan"
		if gb {
			name = "apps.GBScan"
		}
		return tc.run1(s, name, func(os *simos.OS) {
			var r apps.ScanResult
			var err error
			sp := tc.tr.begin(name, tc.run, os.Now())
			if gb {
				det := fccd.New(os, fccd.Config{AccessUnit: unitBytes, PredictionUnit: unitBytes, Seed: p.SimSeed + uint64(rep)})
				r, err = apps.GBScan(os, det, "data", costs)
			} else {
				r, err = apps.Scan(os, "data", costs)
			}
			tc.tr.end(sp, os.Now())
			must(err)
			fg += r.Elapsed
		})
	}
	for rep := 0; rep < scanRepeats; rep++ {
		if err := scan(false, rep); err != nil {
			return 0, err
		}
	}
	s.DropCaches()
	for rep := 0; rep < scanRepeats; rep++ {
		if err := scan(true, rep); err != nil {
			return 0, err
		}
	}
	return fg, nil
}

// must turns an error inside a simulated process into a panic, which
// the engine records as the process's exit error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
