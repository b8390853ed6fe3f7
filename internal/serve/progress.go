package serve

import (
	"sync"

	"xplace/internal/placer"
)

// Progress is a job's per-iteration progress record: a bounded ring of
// the most recent snapshots plus a live fan-out to subscribers (the SSE
// stream of internal/jobapi). Scheduler jobs and gateway jobs both embed
// it, so history replay and live streaming behave identically whether a
// job runs here or a network hop away. Safe for concurrent use.
type Progress struct {
	mu        sync.Mutex
	snaps     []placer.Snapshot
	snapStart int // ring read index
	snapCount int // valid entries in ring
	subs      map[int]chan placer.Snapshot
	nextSub   int
	closed    bool
}

// progressHistory is the progress ring capacity of every job, scheduler
// and gateway jobs alike.
const progressHistory = 512

// NewProgress returns a Progress retaining the last progressHistory snapshots.
func NewProgress() *Progress {
	return &Progress{
		snaps: make([]placer.Snapshot, progressHistory),
		subs:  make(map[int]chan placer.Snapshot),
	}
}

// Add appends one snapshot to the ring and fans it out. A subscriber
// whose buffer is full misses the snapshot: a slow SSE client must not
// stall the placement loop.
func (p *Progress) Add(s placer.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.snaps[(p.snapStart+p.snapCount)%len(p.snaps)] = s
	if p.snapCount < len(p.snaps) {
		p.snapCount++
	} else {
		p.snapStart = (p.snapStart + 1) % len(p.snaps)
	}
	for _, ch := range p.subs {
		select {
		case ch <- s:
		default:
		}
	}
}

// Snapshots returns the retained history in iteration order.
func (p *Progress) Snapshots() []placer.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]placer.Snapshot, p.snapCount)
	for i := range out {
		out[i] = p.snaps[(p.snapStart+i)%len(p.snaps)]
	}
	return out
}

// Last returns the most recent snapshot; ok is false before the first.
func (p *Progress) Last() (s placer.Snapshot, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snapCount == 0 {
		return s, false
	}
	return p.snaps[(p.snapStart+p.snapCount-1)%len(p.snaps)], true
}

// Subscribe registers a live listener with the given channel buffer. The
// channel is closed when the job finishes (Close) or unsubscribe is
// called; subscribing to a finished job yields a closed channel.
func (p *Progress) Subscribe(buf int) (<-chan placer.Snapshot, func()) {
	ch := make(chan placer.Snapshot, max(buf, 1))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		close(ch)
		return ch, func() {}
	}
	id := p.nextSub
	p.nextSub++
	p.subs[id] = ch
	return ch, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if c, ok := p.subs[id]; ok {
			delete(p.subs, id)
			close(c)
		}
	}
}

// Close ends the record when the job reaches a terminal state: every
// subscriber channel closes and later snapshots are dropped.
func (p *Progress) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for id, ch := range p.subs {
		delete(p.subs, id)
		close(ch)
	}
}
