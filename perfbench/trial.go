package main

import (
	"fmt"
	"time"

	"graybox/internal/audit"
	"graybox/internal/sim"
	"graybox/internal/simos"
	"graybox/internal/telemetry"
	"graybox/internal/workload"
)

// bounds are a workload's limits on the audit oracle's scores; a zero
// limit is not checked. A trial whose score falls outside them fails.
type bounds struct {
	minFCCDAccuracy float64
	minFLDCTau      float64
	maxMACRelErr    float64
}

// counters are the simulator's exact work counts for one trial, read
// through public accessors only, so they are identical with telemetry
// on or off.
type counters struct {
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheEvictions  int64 `json:"cache_evictions"`
	CacheWritebacks int64 `json:"cache_writebacks"`
	CacheThrottles  int64 `json:"cache_throttle_flushes"`
	ZeroFills       int64 `json:"vm_zero_fills"`
	SwapIns         int64 `json:"vm_swap_ins"`
	SwapOuts        int64 `json:"vm_swap_outs"`
	DaemonScans     int64 `json:"vm_daemon_scans"`
	Reclaims        int64 `json:"mem_reclaims"`
	DiskReads       int64 `json:"disk_reads"`
	DiskWrites      int64 `json:"disk_writes"`
	DiskBlocks      int64 `json:"disk_blocks"`
	DiskBusyNS      int64 `json:"disk_busy_ns"`
	DiskQueueNS     int64 `json:"disk_queue_ns"`
	SwapReads       int64 `json:"swap_reads"`
	SwapWrites      int64 `json:"swap_writes"`
	ContextSwitches int64 `json:"context_switches"`
	SortPasses      int64 `json:"sort_passes"`
	WebServed       int64 `json:"web_served"`
	WebDropped      int64 `json:"web_dropped"`
}

func (c *counters) add(o counters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheEvictions += o.CacheEvictions
	c.CacheWritebacks += o.CacheWritebacks
	c.CacheThrottles += o.CacheThrottles
	c.ZeroFills += o.ZeroFills
	c.SwapIns += o.SwapIns
	c.SwapOuts += o.SwapOuts
	c.DaemonScans += o.DaemonScans
	c.Reclaims += o.Reclaims
	c.DiskReads += o.DiskReads
	c.DiskWrites += o.DiskWrites
	c.DiskBlocks += o.DiskBlocks
	c.DiskBusyNS += o.DiskBusyNS
	c.DiskQueueNS += o.DiskQueueNS
	c.SwapReads += o.SwapReads
	c.SwapWrites += o.SwapWrites
	c.ContextSwitches += o.ContextSwitches
	c.SortPasses += o.SortPasses
	c.WebServed += o.WebServed
	c.WebDropped += o.WebDropped
}

// scores are the audit oracle's verdicts on the trial's ICL predictions.
type scores struct {
	FCCDUnits       int64           `json:"fccd_units,omitempty"`
	FCCDConfusion   audit.Confusion `json:"fccd_confusion"`
	FCCDAccuracy    float64         `json:"fccd_accuracy,omitempty"`
	FCCDProbes      int64           `json:"fccd_probes,omitempty"`
	FLDCOrders      int64           `json:"fldc_orders,omitempty"`
	FLDCTau         float64         `json:"fldc_tau,omitempty"`
	MACCalls        int64           `json:"mac_calls,omitempty"`
	MACAdmits       int64           `json:"mac_admits,omitempty"`
	MACRelErr       float64         `json:"mac_rel_err,omitempty"`
	MACPagesProbed  int64           `json:"mac_pages_probed,omitempty"`
	FCCDProbeVirtNS int64           `json:"fccd_probe_ns,omitempty"`
}

// result is everything one trial simulated. It is the unit of the
// workload digest, so it holds no host measurement.
type result struct {
	Params       params   `json:"params"`
	ForegroundNS int64    `json:"foreground_ns"`
	EndNS        int64    `json:"end_ns"`
	VirtualNS    int64    `json:"virtual_ns"`
	Counters     counters `json:"counters"`
	Scores       scores   `json:"scores"`
	Err          string   `json:"err,omitempty"`
}

// check returns why the trial failed, or "" when it ran and every
// audited score is within b.
func (r *result) check(b bounds) string {
	s := r.Scores
	switch {
	case r.Err != "":
		return r.Err
	case b.minFCCDAccuracy > 0 && s.FCCDUnits > 0 && s.FCCDAccuracy < b.minFCCDAccuracy:
		return fmt.Sprintf("fccd accuracy %.3f < %.2f", s.FCCDAccuracy, b.minFCCDAccuracy)
	case b.minFLDCTau > 0 && s.FLDCOrders > 0 && s.FLDCTau < b.minFLDCTau:
		return fmt.Sprintf("fldc tau %.3f < %.2f", s.FLDCTau, b.minFLDCTau)
	case b.maxMACRelErr > 0 && s.MACCalls > 0 && s.MACRelErr > b.maxMACRelErr:
		return fmt.Sprintf("mac relative error %.3f > %.2f", s.MACRelErr, b.maxMACRelErr)
	}
	return ""
}

// syscalls are the telemetry registry's system-call counts, available
// only on traced trials.
type syscalls struct {
	total, reads, writes, touches int64
}

// trialCtx carries one trial's harness state through a workload's run
// function.
type trialCtx struct {
	tr   *tracer // nil on untraced trials
	base *simos.Snapshot

	root, run int // span ids: the trial, and the engine run in progress

	start     time.Time
	setupHost time.Duration
	sys       *simos.System
	aud       *audit.Auditor
	reg       *telemetry.Registry
	virtStart int64

	web        *workload.WebServer
	sortPasses int64
}

// setupDone marks the end of the trial's platform setup and instruments
// the machine: the auditor always (it is the output check), telemetry
// only when traced.
func (tc *trialCtx) setupDone(s *simos.System) {
	tc.setupHost = time.Since(tc.start)
	tc.sys = s
	tc.aud = s.EnableAudit()
	if tc.tr != nil {
		tc.reg = s.EnableTelemetry()
	}
	tc.virtStart = s.Engine.NowNS()
}

// waitAll drives the engine until procs finish, under a run span.
func (tc *trialCtx) waitAll(s *simos.System, procs ...*sim.Proc) {
	tc.run = tc.tr.begin("sim.WaitAll", tc.root, s.Engine.Now())
	s.Engine.WaitAll(procs...)
	tc.tr.end(tc.run, s.Engine.Now())
}

// run1 runs body as one process to completion, under a run span.
func (tc *trialCtx) run1(s *simos.System, name string, body func(os *simos.OS)) error {
	tc.run = tc.tr.begin("simos.Run", tc.root, s.Engine.Now())
	err := s.Run(name, body)
	tc.tr.end(tc.run, s.Engine.Now())
	return err
}

// runTrial runs one trial and gathers its result. A panic anywhere in
// the harness or the simulator is recorded as the trial's error.
func runTrial(w *spec, p params, tc *trialCtx) (res result, sc syscalls) {
	res.Params = p
	tc.start = time.Now()
	tc.root = tc.tr.beginTrial(p.Index)
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
		tc.tr.end(tc.root, sim.Time(res.EndNS))
	}()
	fg, err := w.run(tc, p)
	if err != nil {
		res.Err = err.Error()
		return res, sc
	}
	s := tc.sys
	res.ForegroundNS = int64(fg)
	res.EndNS = s.Engine.NowNS()
	res.VirtualNS = res.EndNS - tc.virtStart
	res.Counters = collect(s)
	res.Counters.SortPasses = tc.sortPasses
	if tc.web != nil {
		res.Counters.WebServed = tc.web.Served()
		res.Counters.WebDropped = tc.web.Dropped()
	}
	res.Scores = score(tc.aud.Report())
	if tc.reg != nil {
		sc = readSyscalls(tc.reg)
	}
	return res, sc
}

// collect reads the machine's exact counters.
func collect(s *simos.System) counters {
	cs, vs := s.Cache.Stats(), s.VM.Stats()
	c := counters{
		CacheHits: cs.Hits, CacheMisses: cs.Misses, CacheEvictions: cs.Evictions,
		CacheWritebacks: cs.Writebacks, CacheThrottles: cs.ThrottleFlushes,
		ZeroFills: vs.ZeroFills, SwapIns: vs.SwapIns, SwapOuts: vs.SwapOuts, DaemonScans: vs.DaemonScans,
		Reclaims:        s.Pool.Reclaims,
		ContextSwitches: s.Engine.ContextSwitches(),
	}
	for i := 0; i < s.NumDisks(); i++ {
		d := s.DataDisk(i)
		st := d.Stats()
		c.DiskReads += st.Reads
		c.DiskWrites += st.Writes
		c.DiskBlocks += st.BlocksRead + st.BlocksWrote
		c.DiskBusyNS += int64(d.BusyTime())
		c.DiskQueueNS += int64(st.QueueTime)
	}
	sw := s.SwapDisk().Stats()
	c.SwapReads, c.SwapWrites = sw.Reads, sw.Writes
	return c
}

func score(rep audit.Report) scores {
	var s scores
	if r := rep.FCCD; r != nil {
		s.FCCDUnits, s.FCCDConfusion, s.FCCDAccuracy = r.Units, r.Confusion, r.Accuracy
		s.FCCDProbes, s.FCCDProbeVirtNS = r.Probes, r.ProbeNS
	}
	if r := rep.FLDC; r != nil {
		s.FLDCOrders, s.FLDCTau = r.Orders, r.Tau
	}
	if r := rep.MAC; r != nil {
		s.MACCalls, s.MACAdmits, s.MACRelErr, s.MACPagesProbed = r.Calls, r.Admits, r.MeanRelErr, r.PagesProbed
	}
	return s
}

// readSyscalls sums the facade's per-call latency histogram counts.
func readSyscalls(r *telemetry.Registry) syscalls {
	count := func(call string) int64 {
		return r.Histogram("syscall."+call+"_ns", telemetry.LatencyBuckets).Count()
	}
	var sc syscalls
	for _, call := range []string{"open", "create", "read", "read_byte", "write", "stat", "utimes",
		"readdir", "unlink", "rmdir", "rename", "mkdir", "touch"} {
		sc.total += count(call)
	}
	sc.reads = count("read") + count("read_byte")
	sc.writes = count("write")
	sc.touches = count("touch")
	return sc
}
