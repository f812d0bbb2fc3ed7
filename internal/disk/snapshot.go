package disk

import "graybox/internal/sim"

// State is a copy of a disk's mutable state — head position, counters
// and track-buffer memory — captured with Disk.State from an idle disk
// and restored into a fresh disk with Disk.Restore.
type State struct {
	headCyl     int
	stats       Stats
	lastEnd     int64
	lastEndTime sim.Time
}

// State captures the disk's mutable state. It panics if the disk is
// mid-request or has queued work: snapshots are taken only at
// quiescence, where the state is exactly these scalars.
func (d *Disk) State() State {
	if d.inFlight() {
		panic("disk: State with requests in flight")
	}
	return State{
		headCyl:     d.headCyl,
		stats:       d.stats,
		lastEnd:     d.lastEnd,
		lastEndTime: d.lastEndTime,
	}
}

// Restore overwrites a fresh disk's state with a captured State. The
// destination must have the same Params as the source.
func (d *Disk) Restore(s State) {
	if d.inFlight() {
		panic("disk: Restore with requests in flight")
	}
	d.headCyl = s.headCyl
	d.stats = s.stats
	d.lastEnd = s.lastEnd
	d.lastEndTime = s.lastEndTime
}

// inFlight reports whether a request holds the disk or waits for it.
func (d *Disk) inFlight() bool { return d.res.InUse() > 0 || d.res.QueueLen() > 0 }
