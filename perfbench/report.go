package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// report is one run's outcome.
type report struct {
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Traced   bool     `json:"traced"`

	plain, traced *phase // traced is nil on an untraced run
	setupS        float64
	peakRSSMB     float64
	cpu           map[string]int64 // CPU ns per bucket over the traced phase
	profile       []byte
	tr            *tracer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// correct reports whether every round of every phase reproduced one
// digest and no trial failed.
func (r *report) correct() bool {
	ok := r.plain.consistent && r.plain.failed == 0
	if t := r.traced; t != nil {
		ok = ok && t.consistent && t.failed == 0 && t.digest == r.plain.digest
	}
	return ok
}

func (r *report) attempted() (n, failed int) {
	n, failed = r.plain.trials, r.plain.failed
	if t := r.traced; t != nil {
		n += t.trials
		failed += t.failed
	}
	return n, failed
}

// simS is the simulated seconds of foreground work over one round.
func simS(round []result) float64 {
	var ns int64
	for _, res := range round {
		ns += res.ForegroundNS
	}
	return float64(ns) / 1e9
}

// endToEnd derives the end-to-end metrics from the untraced phase.
func (r *report) endToEnd() map[string]metric {
	ph := r.plain
	return map[string]metric{
		"trials_per_s": {ph.trialsPerS(), "1/s"},
		"trial_ms_p50": {quantile(ph.hostMS, 0.5), "ms"},
		"trial_ms_p90": {quantile(ph.hostMS, 0.9), "ms"},
		"setup_s":      {r.setupS, "s"},
		"peak_rss_mb":  {r.peakRSSMB, "MB"},
		"sim_s":        {simS(ph.round), "sim_s"},
	}
}

// perLayer derives the per-layer metrics: CPU buckets, spans and
// telemetry from the traced phase, Go runtime figures from the
// untraced one, and exact counters from the round both reproduce.
func (r *report) perLayer() map[string]metric {
	t, ph := r.traced, r.plain
	n := float64(len(t.round))
	var c counters
	var virtNS int64
	var fccdUnits, fccdRight, fldcN int64
	var tauSum float64
	var fccdProbes, macPages, macAdmits, macCalls int64
	for _, res := range t.round {
		c.add(res.Counters)
		virtNS += res.VirtualNS
		s := res.Scores
		fccdUnits += s.FCCDUnits
		fccdRight += s.FCCDConfusion.TP + s.FCCDConfusion.TN
		fccdProbes += s.FCCDProbes
		if s.FLDCOrders > 0 {
			fldcN++
			tauSum += s.FLDCTau
		}
		macCalls += s.MACCalls
		macAdmits += s.MACAdmits
		macPages += s.MACPagesProbed
	}
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perTrialMS := func(names ...string) float64 {
		var sum float64
		for _, name := range names {
			s, _ := r.tr.hostMS(name)
			sum += s
		}
		return sum / float64(t.trials)
	}
	medianMS := func(name string) float64 {
		_, m := r.tr.hostMS(name)
		return m
	}
	m := map[string]metric{
		"run.wait_ms":          {perTrialMS("sim.WaitAll", "simos.Run"), "ms"},
		"sim.context_switches": {per(c.ContextSwitches), "count"},
		"sim.virtual_s":        {float64(virtNS) / 1e9 / n, "sim_s"},
		"simos.syscalls":       {per(t.sys.total), "count"},
		"simos.read_calls":     {per(t.sys.reads), "count"},
		"simos.write_calls":    {per(t.sys.writes), "count"},
		"simos.touch_calls":    {per(t.sys.touches), "count"},
		"setup.new_ms":         {medianMS("setup.new"), "ms"},
		"setup.fork_ms":        {medianMS("setup.fork"), "ms"},
		"setup.populate_ms":    {medianMS("setup.populate"), "ms"},
		"cache.hits":           {per(c.CacheHits), "count"},
		"cache.misses":         {per(c.CacheMisses), "count"},
		"cache.hit_ratio":      {ratio(c.CacheHits, c.CacheHits+c.CacheMisses), "ratio"},
		"cache.evictions":      {per(c.CacheEvictions), "count"},
		"cache.writebacks":     {per(c.CacheWritebacks), "count"},
		"vm.swap_ins":          {per(c.SwapIns), "count"},
		"vm.swap_outs":         {per(c.SwapOuts), "count"},
		"vm.daemon_scans":      {per(c.DaemonScans), "count"},
		"mem.reclaims":         {per(c.Reclaims), "count"},
		"disk.reads":           {per(c.DiskReads), "count"},
		"disk.writes":          {per(c.DiskWrites), "count"},
		"disk.busy_s":          {float64(c.DiskBusyNS) / 1e9 / n, "sim_s"},
		"disk.queue_s":         {float64(c.DiskQueueNS) / 1e9 / n, "sim_s"},
		"swap.reads":           {per(c.SwapReads), "count"},
		"swap.writes":          {per(c.SwapWrites), "count"},
		"icl.fccd_probe_ms":    {perTrialMS("fccd.ProbeFile"), "ms"},
		"icl.fldc_compose_ms":  {perTrialMS("fldc.ComposeWithFCCD"), "ms"},
		"icl.mac_alloc_ms":     {perTrialMS("mac.GBAlloc", "mac.GBFree"), "ms"},
		"fccd.probes":          {per(fccdProbes), "count"},
		"fccd.accuracy":        {ratio(fccdRight, fccdUnits), "ratio"},
		"fldc.tau":             {tauSum / max(float64(fldcN), 1), "ratio"},
		"mac.pages_probed":     {per(macPages), "count"},
		"mac.admits":           {per(macAdmits), "count"},
		"mac.rejects":          {per(macCalls - macAdmits), "count"},
		"app.sort_ms":          {perTrialMS("apps.FastSort"), "ms"},
		"app.scan_ms":          {perTrialMS("apps.Scan"), "ms"},
		"app.gbscan_ms":        {perTrialMS("apps.GBScan"), "ms"},
		"web.served":           {per(c.WebServed), "count"},
		"web.dropped":          {per(c.WebDropped), "count"},
		"go.alloc_mb":          {float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / (1 << 20) / float64(ph.trials), "MB"},
		"go.gc_cycles":         {float64(ph.mem1.NumGC-ph.mem0.NumGC) / float64(ph.trials), "count"},
		"go.gc_pause_ms":       {float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6 / float64(ph.trials), "ms"},
		"trace.overhead_pct":   {(ph.trialsPerS()/t.trialsPerS() - 1) * 100, "%"},
	}
	for _, b := range cpuBuckets {
		m["cpu."+b] = metric{float64(r.cpu[b]) / 1e6 / float64(t.trials), "ms"}
	}
	return m
}

// print writes the human summary and, last, the JSON result line.
func (r *report) print(w io.Writer) {
	n, failed := r.attempted()
	out := output{Correct: r.correct(), Attempted: n, Failed: failed}
	phases := []*phase{r.plain}
	if r.traced != nil {
		phases = append(phases, r.traced)
		out.Metrics = r.perLayer()
	} else {
		out.Metrics = r.endToEnd()
	}
	for i, ph := range phases {
		kind := "untraced"
		if i == 1 {
			kind = "traced"
		}
		fmt.Fprintf(w, "%s %s seed=%d digest=%s consistent=%v rounds=%d trials=%d failed=%d elapsed=%s\n",
			kind, r.Workload, r.Seed, ph.digest, ph.consistent, ph.rounds, ph.trials, ph.failed, ph.elapsed.Round(time.Millisecond))
		for _, f := range ph.failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
	}
	var sum counters
	for _, res := range r.plain.round {
		sum.add(res.Counters)
	}
	cb, err := json.Marshal(sum)
	if err != nil {
		panic(err) // a struct of integers always marshals
	}
	fmt.Fprintf(w, "counters %s\n", cb)
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and plain maps always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

// save writes the run's report and, for a traced run, its spans and CPU
// profile into dir.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	doc := struct {
		*report
		Digest  string            `json:"digest"`
		Round   []result          `json:"round"`
		Metrics map[string]metric `json:"metrics"`
	}{report: r, Digest: r.plain.digest, Round: r.plain.round}
	if r.traced == nil {
		doc.Metrics = r.endToEnd()
	} else {
		stem += "-traced"
		doc.Metrics = r.perLayer()
		if err := r.tr.write(filepath.Join(dir, stem+".spans.jsonl")); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), r.profile, 0o644); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".json"), b, 0o644)
}
