package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"graybox/internal/sim"
)

// span is one timed call the benchmark made into the simulator.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root
	Trial     int    `json:"trial"`  // -1 outside any trial (platform base builds)
	Name      string `json:"name"`
	HostStart int64  `json:"host_start_ns"` // since the tracer started
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"` // simulated time
	VirtEnd   int64  `json:"virt_end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so
// untraced runs pay one nil check per call site.
//
// Spans opened inside simulated processes name their parent explicitly
// (the engine run that resumed the process) instead of using a stack:
// processes interleave, so their spans overlap without nesting. The
// engine runs one process at a time, so appends never race.
type tracer struct {
	t0    time.Time
	trial int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), trial: -1} }

func (t *tracer) begin(name string, parent int, virt sim.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Trial: t.trial, Name: name,
		HostStart: int64(time.Since(t.t0)), VirtStart: int64(virt),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, virt sim.Time) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.HostEnd = int64(time.Since(t.t0))
	s.VirtEnd = int64(virt)
}

// beginTrial opens the root span of trial i and tags later spans with it.
func (t *tracer) beginTrial(i int) int {
	if t == nil {
		return -1
	}
	t.trial = i
	return t.begin("trial", -1, 0)
}

// hostMS returns the summed and the median host milliseconds of the
// spans with the given name.
func (t *tracer) hostMS(name string) (sum, median float64) {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.HostEnd-s.HostStart)/1e6)
		}
	}
	for _, d := range ds {
		sum += d
	}
	return sum, medianOf(ds)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianOf returns the median of xs (0 for none).
func medianOf(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
