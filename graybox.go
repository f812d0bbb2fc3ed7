// Package graybox is a library of gray-box Information and Control
// Layers (ICLs), reproducing "Information and Control in Gray-Box
// Systems" (Arpaci-Dusseau & Arpaci-Dusseau, SOSP 2001).
//
// A gray-box ICL sits between an application and an operating system it
// cannot modify, and uses algorithmic knowledge of the OS plus run-time
// observations (mostly timing) to infer OS state and to control OS
// behavior through ordinary system calls. This package exposes:
//
//   - Platform: a deterministic simulated OS (Linux 2.2, NetBSD 1.5, or
//     Solaris 7 personality) on virtual time, replacing the paper's
//     hardware testbed so probe timing is exact and reproducible.
//   - FCCD: the File-Cache Content Detector (Section 4.1).
//   - FLDC: the File Layout Detector and Controller (Section 4.2).
//   - MAC: the Memory-based Admission Controller (Section 4.3).
//   - The gray toolbox (Section 5): timers, statistics, and the
//     microbenchmark parameter repository.
//
// The ICLs interact with the platform exclusively through its
// system-call facade (*Proc); they never inspect simulator internals.
//
// Quick start:
//
//	p := graybox.NewPlatform(graybox.PlatformConfig{})
//	err := p.Run("app", func(os *graybox.Proc) {
//	    det := graybox.NewFCCD(os, graybox.FCCDConfig{})
//	    plan, _ := det.ProbeFile("data")
//	    for _, seg := range plan { // cached segments first
//	        // read seg.Off .. seg.Off+seg.Len
//	    }
//	})
package graybox

import (
	"graybox/internal/apps"
	"graybox/internal/core/fccd"
	"graybox/internal/core/fldc"
	"graybox/internal/core/mac"
	"graybox/internal/core/toolbox"
	"graybox/internal/sim"
	"graybox/internal/simos"
)

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// MB is one binary megabyte.
const MB = simos.MB

// Personality selects which OS behavior the platform models.
type Personality = simos.Personality

// The supported platform personalities.
const (
	Linux22  = simos.Linux22
	NetBSD15 = simos.NetBSD15
	Solaris7 = simos.Solaris7
)

// PlatformConfig configures a simulated machine; the zero value is the
// paper's testbed (Linux 2.2 personality, 896 MB memory, one data disk
// plus a swap disk).
type PlatformConfig = simos.Config

// Proc is a simulated process's system-call interface — the entire
// gray-box surface available to ICLs and applications.
type Proc = simos.OS

// Fd is an open file descriptor.
type Fd = simos.Fd

// MemRegion is an anonymous memory allocation.
type MemRegion = simos.MemRegion

// Platform is one simulated machine.
type Platform struct {
	*simos.System
}

// NewPlatform builds a machine.
func NewPlatform(cfg PlatformConfig) *Platform {
	return &Platform{System: simos.New(cfg)}
}

// --- FCCD ---

// FCCDConfig tunes the File-Cache Content Detector.
type FCCDConfig = fccd.Config

// FCCD detects file-cache contents by timing one-byte read probes.
type FCCD = fccd.Detector

// Segment is one entry of an FCCD access plan.
type Segment = fccd.Segment

// FileProbe ranks one file for cross-file ordering.
type FileProbe = fccd.FileProbe

// NewFCCD creates a detector bound to a process.
func NewFCCD(os *Proc, cfg FCCDConfig) *FCCD { return fccd.New(os, cfg) }

// CoalescePlan merges adjacent contiguous entries of an access plan so
// applications issue fewer, larger reads.
func CoalescePlan(plan []Segment) []Segment { return fccd.CoalescePlan(plan) }

// --- FLDC ---

// FLDC detects and controls on-disk file layout via stat() and
// directory refresh.
type FLDC = fldc.Layer

// RefreshOrder selects how FLDC.Refresh lays files out.
type RefreshOrder = fldc.RefreshOrder

// Refresh orders.
const (
	RefreshBySize = fldc.BySize
	RefreshByName = fldc.ByName
)

// NewFLDC creates the layer bound to a process.
func NewFLDC(os *Proc) *FLDC { return fldc.New(os) }

// --- MAC ---

// MACConfig tunes the Memory-based Admission Controller.
type MACConfig = mac.Config

// MAC determines available memory by probing and provides
// admission-controlled allocation (gb_alloc/gb_free).
type MAC = mac.Controller

// Allocation is memory obtained through MAC.GBAlloc.
type Allocation = mac.Allocation

// NewMAC creates a controller bound to a process.
func NewMAC(os *Proc, cfg MACConfig) *MAC { return mac.New(os, cfg) }

// MACBroker coordinates gb_alloc across cooperating processes: FIFO
// probe admission, optional fair-share caps, and hold-and-wait
// rejection (deadlock prevention). See mac.Broker.
type MACBroker = mac.Broker

// MACBrokerConfig tunes the broker.
type MACBrokerConfig = mac.BrokerConfig

// NewMACBroker creates the shared coordinator.
func NewMACBroker(cfg MACBrokerConfig) *MACBroker { return mac.NewBroker(cfg) }

// --- gray toolbox ---

// Repository is the persistent store of microbenchmarked platform
// parameters shared by ICLs.
type Repository = toolbox.Repository

// NewRepository returns an empty parameter store.
func NewRepository(platform string) *Repository { return toolbox.NewRepository(platform) }

// RunMicrobenchmarks fills repo with this platform's parameters
// (requires an otherwise idle system).
func RunMicrobenchmarks(os *Proc, repo *Repository) error { return toolbox.RunAll(os, repo) }

// Stopwatch measures elapsed virtual time.
type Stopwatch = toolbox.Stopwatch

// NewStopwatch starts a stopwatch on the platform's cheap timer.
func NewStopwatch(os *Proc) *Stopwatch { return toolbox.NewStopwatch(os) }

// --- applications (for examples and benchmarks) ---

// AppCosts models application CPU and process-management costs.
type AppCosts = apps.Costs

// DefaultAppCosts matches a circa-2001 CPU.
func DefaultAppCosts() AppCosts { return apps.DefaultCosts() }
