// Command perfbench is the simulator's seeded end-to-end benchmark. It
// runs one workload as a closed loop with one client: trials run one at
// a time, each starting when the previous one ends, for a given number
// of host seconds. It prints a host fingerprint, the workload's output
// digest and, as its last line, one JSON object with the metrics.
//
//	go run . --workload icl-noise --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 first runs a third
// of the time untraced, then the rest with spans, telemetry and a CPU
// profile, and reports the per-layer metrics; both phases must produce
// the same digest.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"graybox/internal/simos"
)

// baseBuilds is how many times a workload with a shared platform builds
// it before the timed loop; setup_s reports the median build.
const baseBuilds = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wlName := fl.String("workload", "", "workload to run: icl-noise, sort-mac or scan-probe")
	seed := fl.Uint64("seed", 1, "seed the trial parameters are drawn from")
	seconds := fl.Float64("seconds", 10, "host seconds to measure for")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := fl.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the spans, CPU profile and report of a run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := specByName(*wlName)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (%v)\n", err)
		return 2
	}
	// Two threads: one runs the serial engine and whichever process
	// goroutine holds the baton, the other absorbs the GC's background
	// work and the wakeup side of each handoff.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	host := fingerprint()
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)

	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.Host = host
	if err := rep.save(*outDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// phase is one timed stretch of whole rounds.
type phase struct {
	trials, failed int
	failures       []string
	hostMS         []float64 // per trial
	setupS         []float64 // per trial
	elapsed        time.Duration
	rounds         int
	digest         string
	consistent     bool     // every round reproduced the first round's digest
	round          []result // the first round
	sys            syscalls // first round, traced only
	mem0, mem1     runtime.MemStats
}

// runPhase repeats the round of trials until budget has elapsed,
// finishing the round in progress.
func runPhase(w *spec, ps []params, base *simos.Snapshot, tr *tracer, budget time.Duration) *phase {
	ph := &phase{consistent: true}
	runtime.ReadMemStats(&ph.mem0)
	start := time.Now()
	for ph.rounds == 0 || time.Since(start) < budget {
		h := sha256.New()
		var round []result
		for _, p := range ps {
			tc := &trialCtx{tr: tr, base: base}
			t0 := time.Now()
			res, sc := runTrial(w, p, tc)
			ph.hostMS = append(ph.hostMS, float64(time.Since(t0))/1e6)
			ph.setupS = append(ph.setupS, tc.setupHost.Seconds())
			ph.trials++
			if why := res.check(w.bounds(p)); why != "" {
				ph.failed++
				if len(ph.failures) < 5 {
					ph.failures = append(ph.failures, fmt.Sprintf("trial %d %+v: %s", p.Index, p, why))
				}
			}
			b, err := json.Marshal(res)
			if err != nil {
				panic(err) // plain structs of numbers and strings always marshal
			}
			h.Write(b)
			if ph.rounds == 0 {
				round = append(round, res)
				ph.sys.total += sc.total
				ph.sys.reads += sc.reads
				ph.sys.writes += sc.writes
				ph.sys.touches += sc.touches
			}
		}
		d := hex.EncodeToString(h.Sum(nil))[:16]
		if ph.rounds == 0 {
			ph.digest, ph.round = d, round
		} else if d != ph.digest {
			ph.consistent = false
		}
		ph.rounds++
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ph.mem1)
	return ph
}

func (ph *phase) trialsPerS() float64 { return float64(ph.trials) / ph.elapsed.Seconds() }

// measure builds the workload's platform base (if any), runs the timed
// phases and derives the report.
func measure(w *spec, seed uint64, budget time.Duration, traced bool) (*report, error) {
	ps := w.roundParams(seed)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var base *simos.Snapshot
	var baseS []float64
	if w.base != nil {
		for i := 0; i < baseBuilds; i++ {
			t0 := time.Now()
			base = w.base(tr)
			baseS = append(baseS, time.Since(t0).Seconds())
		}
	}

	rep := &report{Workload: w.name, Seed: seed, Traced: traced}
	untraced := budget
	if traced {
		untraced = budget / 3
	}
	rep.plain = runPhase(w, ps, base, nil, untraced)
	rep.setupS = medianOf(baseS) + medianOf(rep.plain.setupS)
	if traced {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		rep.traced = runPhase(w, ps, base, tr, budget-untraced)
		pprof.StopCPUProfile()
		rep.profile = buf.Bytes()
		cpu, err := foldProfile(rep.profile)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		rep.cpu = cpu
		rep.tr = tr
	}
	rep.peakRSSMB = peakRSSMB()
	return rep, nil
}
