package btl

import (
	"sync"
	"time"

	"repro/internal/mca"
)

// Port is one rank's attachment to a transport, the surface the PML
// drives. Both the in-process fabric (sm) and the TCP fabric implement
// it, so the message engine is transport-agnostic — the property that
// let the paper's design support TCP and InfiniBand interchangeably.
type Port interface {
	// Rank returns the attached rank.
	Rank() int
	// Send delivers fr to fr.Dst with per-pair FIFO ordering. It must
	// not block indefinitely (the fabric buffers).
	Send(fr Frag) error
	// Recv blocks until a fragment arrives or the port closes.
	Recv() (Frag, error)
	// RecvUntil waits for a fragment no later than deadline; ok is false
	// when the deadline passed first. A past deadline polls.
	RecvUntil(deadline time.Time) (fr Frag, ok bool, err error)
	// Pending returns the number of queued incoming fragments.
	Pending() int
}

// inbox is the receive side both transports share: senders push, the
// owning rank pops in arrival order, close fails every waiter.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Frag
	closed bool
}

func (q *inbox) init() { q.cond = sync.NewCond(&q.mu) }

// push queues fr, failing with ErrDetached once the inbox is closed.
func (q *inbox) push(fr Frag) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDetached
	}
	q.queue = append(q.queue, fr)
	q.cond.Broadcast()
	return nil
}

func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pop takes the oldest fragment; q.mu must be held. ok is false when
// the queue is empty, and err is ErrDetached once it is also closed.
func (q *inbox) pop() (fr Frag, ok bool, err error) {
	if len(q.queue) == 0 {
		if q.closed {
			return Frag{}, false, ErrDetached
		}
		return Frag{}, false, nil
	}
	fr = q.queue[0]
	q.queue[0] = Frag{} // the queue must not pin a delivered payload
	q.queue = q.queue[1:]
	return fr, true, nil
}

// Recv implements Port.
func (q *inbox) Recv() (Frag, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if fr, ok, err := q.pop(); ok || err != nil {
			return fr, err
		}
		q.cond.Wait()
	}
}

// RecvUntil implements Port. A wait arms a timer that wakes the waiters
// at the deadline and is stopped on return.
func (q *inbox) RecvUntil(deadline time.Time) (Frag, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	fr, ok, err := q.pop()
	if ok || err != nil || !time.Now().Before(deadline) {
		return fr, ok, err
	}
	timer := time.AfterFunc(time.Until(deadline), func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer timer.Stop()
	for {
		q.cond.Wait()
		if fr, ok, err := q.pop(); ok || err != nil || !time.Now().Before(deadline) {
			return fr, ok, err
		}
	}
}

// Pending implements Port.
func (q *inbox) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// JobFabric is a per-job transport instance: the set of ports a job's
// ranks communicate through. Detach severs one rank (restart in a new
// topology detaches everywhere and attaches fresh); Close tears the
// whole fabric down.
type JobFabric interface {
	Attach(rank int) (Port, error)
	Detach(rank int)
	Close()
}

// FrameworkName is the MCA selection parameter for the BTL framework.
const FrameworkName = "btl"

// Component is a BTL implementation: a factory for per-job fabrics.
type Component interface {
	mca.Component
	// NewFabric builds a fabric for an n-rank job.
	NewFabric(n int) (JobFabric, error)
}

// NewFramework returns the BTL framework with the built-in components:
// sm (in-process shared-memory-style switchboard, default) and tcp
// (real loopback TCP sockets with framed fragments).
func NewFramework() *mca.Framework[Component] {
	f := mca.NewFramework[Component](FrameworkName)
	f.MustRegister(&SM{})
	f.MustRegister(&TCP{})
	return f
}

// SM is the in-process fabric component.
type SM struct{}

// Name implements mca.Component.
func (*SM) Name() string { return "sm" }

// Priority implements mca.Component; sm is the default.
func (*SM) Priority() int { return 20 }

// NewFabric implements Component.
func (*SM) NewFabric(n int) (JobFabric, error) {
	return &fabricAdapter{f: NewFabric()}, nil
}

var _ Component = (*SM)(nil)

// Close tears the in-process fabric down by detaching every rank.
func (f *Fabric) Close() {
	for _, r := range f.Attached() {
		f.Detach(r)
	}
}

// AdaptFabric lifts an in-process *Fabric to the JobFabric interface.
func AdaptFabric(f *Fabric) JobFabric { return &fabricAdapter{f: f} }

// fabricAdapter lifts *Fabric's concrete Attach signature to JobFabric.
type fabricAdapter struct{ f *Fabric }

// Attach implements JobFabric.
func (a *fabricAdapter) Attach(rank int) (Port, error) { return a.f.Attach(rank) }

// Detach implements JobFabric.
func (a *fabricAdapter) Detach(rank int) { a.f.Detach(rank) }

// Close implements JobFabric.
func (a *fabricAdapter) Close() { a.f.Close() }

var _ JobFabric = (*fabricAdapter)(nil)
