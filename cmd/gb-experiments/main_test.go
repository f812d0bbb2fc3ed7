package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graybox/internal/experiments"
)

// TestRunWritesExports drives run() end to end: one quick experiment
// with every export requested must exit 0 and leave each file non-empty
// (and valid JSON where the extension says so), and an export path that
// cannot be created must exit 1.
func TestRunWritesExports(t *testing.T) {
	defer func() {
		experiments.EnableTelemetry(false)
		experiments.EnableAudit(false)
	}()
	dir := t.TempDir()
	files := map[string]string{
		"-o":       filepath.Join(dir, "tables.txt"),
		"-trace":   filepath.Join(dir, "trace.json"),
		"-metrics": filepath.Join(dir, "metrics.json"),
		"-audit":   filepath.Join(dir, "audit.json"),
		"-profile": filepath.Join(dir, "profile.folded"),
	}
	args := []string{"-scale", "quick"}
	for flag, path := range files {
		args = append(args, flag, path)
	}
	if code := run(append(args, "fig2")); code != 0 {
		t.Fatalf("run(%v) = %d, want 0", args, code)
	}
	for flag, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", flag, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s wrote an empty %s", flag, path)
		}
		if strings.HasSuffix(path, ".json") && !json.Valid(data) {
			t.Errorf("%s wrote invalid JSON to %s", flag, path)
		}
	}

	bad := []string{"-scale", "quick", "-o", filepath.Join(dir, "t2.txt"),
		"-audit", filepath.Join(dir, "missing", "audit.json"), "fig6"}
	if code := run(bad); code != 1 {
		t.Errorf("run(%v) = %d, want 1", bad, code)
	}
}
