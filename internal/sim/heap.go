package sim

// The engine's pending-event set: a binary min-heap ordered by
// (at, seq), holding events by value. It is a concrete implementation
// (no container/heap), so push and pop involve no interface boxing, no
// indirect calls and, once the slice has grown, no allocation.

// event is a scheduled callback. Events with equal fire times run in
// scheduling order (seq), which keeps the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// proc, when non-nil, is handled instead of calling fn: kind selects
	// a wake or a scheduler timeslice. Process wakes (Sleep, Unblock) are
	// the single hottest event type, and storing the process directly
	// avoids allocating a wake closure per sleep; slice events reuse the
	// same field so the SMP scheduler's hot path is closure-free too.
	proc *Proc
	// kind discriminates proc events (evWake, evSlice); meaningless for
	// fn events.
	kind uint8
}

// Proc-event kinds.
const (
	evWake  uint8 = iota // resume ev.proc
	evSlice              // timeslice expiry for ev.proc (sched.go)
)

// before reports whether a fires ahead of b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type eventHeap []event

// push adds ev to the heap.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the earliest event. The heap must not be
// empty.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop fn/proc references so the slice does not pin them
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	return top
}
