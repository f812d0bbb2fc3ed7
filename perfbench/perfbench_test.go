package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// trials runs the first n trials of a workload's round for seed,
// untraced and traced, and fails the test if the two disagree.
func trials(t *testing.T, name string, seed uint64, n int) []result {
	t.Helper()
	w, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var base = noiseBase(nil)
	var out []result
	for _, p := range w.roundParams(seed)[:n] {
		plain, _ := runTrial(w, p, &trialCtx{base: base})
		traced, sc := runTrial(w, p, &trialCtx{base: base, tr: newTracer()})
		if why := plain.check(w.bounds(p)); why != "" {
			t.Fatalf("%s trial %+v failed: %s", name, p, why)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s trial %d: telemetry changed the simulation:\nuntraced %+v\ntraced   %+v", name, p.Index, plain, traced)
		}
		if sc.total == 0 {
			t.Errorf("%s trial %d: traced run counted no syscalls", name, p.Index)
		}
		out = append(out, plain)
	}
	return out
}

func TestSameSeedSameResults(t *testing.T) {
	for _, s := range specs {
		if !reflect.DeepEqual(s.roundParams(7), s.roundParams(7)) {
			t.Errorf("%s: seed 7 drew two different rounds", s.name)
		}
		a := trials(t, s.name, 7, 2)
		b := trials(t, s.name, 7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 7 differ:\n%+v\n%+v", s.name, a, b)
		}
	}
}

func TestDifferentSeedChangesParams(t *testing.T) {
	// strip reduces a round to the sorted set of its trials' inputs.
	strip := func(ps []params) []string {
		var out []string
		for _, p := range ps {
			p.Index, p.SimSeed = 0, 0
			b, _ := json.Marshal(p)
			out = append(out, string(b))
		}
		sort.Strings(out)
		return out
	}
	for _, s := range specs {
		a, b := strip(s.roundParams(1)), strip(s.roundParams(2))
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew the same trial parameters", s.name)
		}
		if len(a) != s.round {
			t.Errorf("%s: round of %d trials, want %d", s.name, len(a), s.round)
		}
	}
}

// TestWorkloadsStressTheirLayers pins what each workload is for: sort-mac
// is the write-heavy, SMP workload, scan-probe is read-only, and
// icl-noise runs on the uncontended CPU model.
func TestWorkloadsStressTheirLayers(t *testing.T) {
	sum := func(rs []result) (c counters) {
		for _, r := range rs {
			c.add(r.Counters)
		}
		return c
	}
	sorts := trials(t, "sort-mac", 3, 4)
	scans := trials(t, "scan-probe", 3, 6)
	noise := trials(t, "icl-noise", 3, 2)

	if wb := sum(sorts).CacheWritebacks / int64(len(sorts)); wb < 1000 {
		t.Errorf("sort-mac: %d writebacks per trial, want thousands", wb)
	}
	if wb := sum(scans).CacheWritebacks / int64(len(scans)); wb > 5 {
		t.Errorf("scan-probe: %d writebacks per trial, want only a few", wb)
	}
	if cs := sum(sorts).ContextSwitches; cs == 0 {
		t.Error("sort-mac: no context switches on the SMP machine")
	}
	if cs := sum(scans).ContextSwitches + sum(noise).ContextSwitches; cs != 0 {
		t.Errorf("icl-noise and scan-probe: %d context switches, want 0 on the uncontended model", cs)
	}
	if noise[0].Counters.WebServed == 0 || noise[0].Scores.FLDCOrders == 0 || noise[0].Scores.MACCalls == 0 {
		t.Errorf("icl-noise: mix or ICLs did not run: %+v", noise[0])
	}

	cpus := map[string]int{"icl-noise": 0, "sort-mac": sortSimCPUs, "scan-probe": 0}
	for _, s := range specs {
		p := s.roundParams(3)[0]
		tc := &trialCtx{base: noiseBase(nil)}
		runTrial(s, p, tc)
		if got := tc.sys.CPUs(); got != cpus[s.name] {
			t.Errorf("%s: runs at CPUs=%d, want %d", s.name, got, cpus[s.name])
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"handoff", []string{"runtime.futex", "runtime.chanrecv", "runtime.chanrecv1",
			"graybox/internal/sim.(*Proc).park", "graybox/internal/sim.(*Proc).Sleep", "graybox/internal/simos.(*OS).Sleep"}},
		{"handoff", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"sim", []string{"runtime.mapaccess1", "graybox/internal/sim.(*Engine).step", "graybox/internal/sim.(*Engine).WaitAll"}},
		{"cache", []string{"runtime.mallocgc", "graybox/internal/cache.(*Cache).Insert", "graybox/internal/fs.(*File).Read"}},
		{"vm", []string{"graybox/internal/ring.(*List[...]).MoveToBack", "graybox/internal/vm.(*AddrSpace).Touch"}},
		{"icl", []string{"graybox/internal/core/probe.SplitBimodal", "graybox/internal/core/fldc.(*Layer).ComposeWithFCCD"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "graybox/internal/cache.(*Cache).Insert"}},
		{"bench", []string{"encoding/json.Marshal", "main.runPhase", "main.measure"}},
		{"other", []string{"graybox/internal/stash.(*Stash).Get"}},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkFile runs the command end to end and checks
// that its last line reports exactly the metrics BENCHMARK.json names.
func TestOutputMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, specNames)
	}

	for trace, want := range map[string][]struct{ Name, Unit string }{"0": bf.EndToEnd, "1": bf.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "scan-probe", "--seed", "4", "--seconds", "0.1", "--trace", trace,
			"--out", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		var keys []string
		for k := range out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace %s: result keys %v", trace, keys)
		}
		var res output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "scan-probe", "--trace", "2"},
		{"--workload", "scan-probe", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}
