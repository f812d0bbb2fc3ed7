package simos_test

import (
	"fmt"
	"testing"

	"graybox/internal/core/fccd"
	"graybox/internal/core/fldc"
	"graybox/internal/core/mac"
	"graybox/internal/simos"
)

// TestAuditedProbeCostsMatchMeters drives all three ICLs on one audited
// machine and checks that the audit report's per-ICL probe totals equal
// each ICL's own probe meter: every probe an ICL issues through an
// audited entry point is billed to exactly one audit record — none
// dropped, none double-counted (MAC's calibration touches ride on its
// first GBAlloc record).
func TestAuditedProbeCostsMatchMeters(t *testing.T) {
	s := simos.New(simos.Config{
		Personality:  simos.Linux22,
		MemoryMB:     64,
		KernelMB:     8,
		CacheFloorMB: 1,
		Seed:         11,
	})
	aud := s.EnableAudit()

	paths := make([]string, 6)
	for i := range paths {
		paths[i] = fmt.Sprintf("cost.%d", i)
		if _, err := s.FS(0).CreateSized(paths[i], 2*simos.MB); err != nil {
			t.Fatal(err)
		}
	}

	var det *fccd.Detector
	var lay *fldc.Layer
	var ctl *mac.Controller
	p := s.Spawn("icl", 0, func(os *simos.OS) {
		det = fccd.New(os, fccd.Config{
			AccessUnit:     simos.MB,
			PredictionUnit: 256 * 1024,
			Seed:           3,
		})
		lay = fldc.New(os)
		ctl = mac.New(os, mac.Config{})
		// Warm two files so FCCD sees both cached and uncached truth.
		for _, path := range paths[:2] {
			fd, err := os.Open(path)
			if err != nil {
				panic(err)
			}
			if err := fd.Read(0, fd.Size()); err != nil {
				panic(err)
			}
		}
		for _, path := range paths {
			if _, err := det.ProbeFile(path); err != nil {
				panic(err)
			}
		}
		if _, err := det.OrderFiles(paths); err != nil {
			panic(err)
		}
		if _, err := lay.OrderByINumber(paths); err != nil {
			panic(err)
		}
		if _, err := lay.ComposeWithFCCD(det, paths); err != nil {
			panic(err)
		}
		// Two admissions: the first carries MAC's calibration cost.
		for i := 0; i < 2; i++ {
			if a, ok := ctl.GBAlloc(simos.MB, 16*simos.MB, simos.MB); ok {
				ctl.GBFree(a)
			}
		}
	})
	s.Engine.WaitAll(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	rep := aud.Report()
	if rep.FCCD == nil || rep.FLDC == nil || rep.MAC == nil {
		t.Fatalf("report missing an ICL section: %+v", rep)
	}
	if c := det.ProbeCost(); rep.FCCD.Probes != c.Probes || rep.FCCD.ProbeNS != c.NS {
		t.Errorf("FCCD audited cost (%d probes, %d ns) != meter (%d probes, %d ns)",
			rep.FCCD.Probes, rep.FCCD.ProbeNS, c.Probes, c.NS)
	}
	if c := lay.ProbeCost(); rep.FLDC.Probes != c.Probes || rep.FLDC.ProbeNS != c.NS {
		t.Errorf("FLDC audited cost (%d probes, %d ns) != meter (%d probes, %d ns)",
			rep.FLDC.Probes, rep.FLDC.ProbeNS, c.Probes, c.NS)
	}
	if c := ctl.ProbeCost(); rep.MAC.PagesProbed != c.Probes || rep.MAC.ProbeNS != c.NS {
		t.Errorf("MAC audited cost (%d pages, %d ns) != meter (%d pages, %d ns)",
			rep.MAC.PagesProbed, rep.MAC.ProbeNS, c.Probes, c.NS)
	}
	// Every section must have genuinely probed: a vacuous 0 == 0 match
	// would pass the equalities above without testing attribution.
	for _, c := range []struct {
		name   string
		probes int64
		ns     int64
	}{
		{"fccd", rep.FCCD.Probes, rep.FCCD.ProbeNS},
		{"fldc", rep.FLDC.Probes, rep.FLDC.ProbeNS},
		{"mac", rep.MAC.PagesProbed, rep.MAC.ProbeNS},
	} {
		if c.probes == 0 || c.ns == 0 {
			t.Errorf("%s audited no probe cost (probes=%d ns=%d)", c.name, c.probes, c.ns)
		}
	}
}
