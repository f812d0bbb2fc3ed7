package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// The golden file pins the simulator's output across commits: the
// quick-suite tables verbatim (checked in
// TestSnapshotDeterminismAllExperiments) and SHA-256 digests of the
// tables, trace, metrics and audit exports TestParallelDeterminism
// renders. Both tests compare against it in runs they already make, so
// it costs no extra suite. A change that alters output must rewrite it
// on purpose:
//
//	go test ./internal/experiments -run 'Determinism' -update

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run's output")

const goldenPath = "testdata/quick.golden"

// goldenHeader introduces each section of the golden file; the section
// name follows it on the same line.
const goldenHeader = "#### "

// readGolden parses the golden file into its named sections. Each
// section is a header line, its content, and one separating newline.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return map[string]string{}
	}
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, chunk := range strings.Split(string(data), "\n"+goldenHeader)[1:] {
		name, body, _ := strings.Cut(chunk, "\n")
		sections[name] = strings.TrimSuffix(body, "\n")
	}
	return sections
}

// writeGolden writes the sections back in name order.
func writeGolden(t *testing.T, sections map[string]string) {
	t.Helper()
	names := make([]string, 0, len(sections))
	for name := range sections {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("Golden quick-suite output; regenerate with: go test ./internal/experiments -run Determinism -update\n")
	for _, name := range names {
		fmt.Fprintf(&b, "\n%s%s\n%s\n", goldenHeader, name, sections[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares got against the named section of the golden
// file, or stores it there under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	sections := readGolden(t)
	if *update {
		sections[name] = got
		writeGolden(t, sections)
		return
	}
	want, ok := sections[name]
	if !ok {
		t.Errorf("%s: no section %q (run with -update to add it)", goldenPath, name)
		return
	}
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	t.Errorf("%s: section %q differs at line %d:\n got: %s\nwant: %s",
		goldenPath, name, i+1, lineAt(g, i), lineAt(w, i))
}

// lineAt returns line i of lines, or a marker past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

// digest is the hex SHA-256 of s, for exports too large to commit.
func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}
