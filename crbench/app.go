package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/ompi"
	"repro/internal/opal/inc"
)

// probeTag is the message tag of the ping-pong probe; the stencil uses
// tags 1 and 2 and the collectives their own namespace.
const probeTag = 7

// restoredState is one rank's application state as a restore left it,
// copied before the rank stepped again.
type restoredState struct {
	iter  int
	cells []float64
}

// tracker is the benchmark's view into a running stencil job. Every
// rank's app wrapper reports to it: steps completed (for application
// efficiency), restores (for MTTR and restart time) and the ping-pong
// probe's samples. It outlives job incarnations, so a job restarted on a
// fresh cluster reports to the same tracker.
type tracker struct {
	np    int
	delay time.Duration

	steps atomic.Int64 // steps completed by all ranks
	iter  atomic.Int64 // highest iteration any rank of the launched job has completed

	mu       sync.Mutex
	waiting  map[int]bool // ranks that have not yet stepped after a restore
	resumed  chan struct{}
	capture  bool // copy each rank's state at restore for the oracle
	restored map[int]restoredState

	probeAt atomic.Int64 // iteration at whose start ranks 0 and 1 run the probe; -1 none
	probe   *probeRun
}

func newTracker(np int, delay time.Duration) *tracker {
	t := &tracker{np: np, delay: delay}
	t.probeAt.Store(-1)
	return t
}

// factory builds the per-rank application: the repository's stencil,
// wrapped so the benchmark can observe it.
func (t *tracker) factory(cells int) func(rank int) ompi.App {
	return func(rank int) ompi.App {
		return &rankApp{t: t, s: &apps.StencilApp{Cells: cells, Delay: t.delay}}
	}
}

// expectResume arms the tracker for a restore of every rank (an in-job
// recovery rolls survivors back too). The returned channel closes once
// every rank has completed a step after its restore.
func (t *tracker) expectResume(capture bool) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.waiting = make(map[int]bool, t.np)
	for r := 0; r < t.np; r++ {
		t.waiting[r] = true
	}
	t.resumed = make(chan struct{})
	t.capture = capture
	t.restored = make(map[int]restoredState, t.np)
	return t.resumed
}

// noteRestore records a rank's freshly restored state when the oracle
// wants it.
func (t *tracker) noteRestore(rank int, s *apps.StencilApp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capture && t.waiting[rank] {
		t.restored[rank] = restoredState{iter: s.State.Iter, cells: append([]float64(nil), s.State.Cell...)}
	}
}

// noteResumed records that a restored rank completed a step.
func (t *tracker) noteResumed(rank int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.waiting[rank] {
		return
	}
	delete(t.waiting, rank)
	if len(t.waiting) == 0 {
		close(t.resumed)
	}
}

// restoredStates returns the states captured since the last
// expectResume.
func (t *tracker) restoredStates() map[int]restoredState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.restored
}

// rankApp wraps one rank's stencil. A restart INC marks the rank as
// restored; its next completed step reports the resume.
type rankApp struct {
	t        *tracker
	s        *apps.StencilApp
	restored atomic.Bool
}

// Setup implements ompi.App.
func (a *rankApp) Setup(p *ompi.Proc) error {
	if err := a.s.Setup(p); err != nil {
		return err
	}
	var prev inc.Callback
	prev = p.RegisterINC(func(st inc.State) error {
		if st == inc.StateRestart {
			a.t.noteRestore(p.Rank(), a.s)
			a.restored.Store(true)
		}
		if prev != nil {
			return prev(st)
		}
		return nil
	})
	return nil
}

// Step implements ompi.App.
func (a *rankApp) Step(p *ompi.Proc) (bool, error) {
	if p.Rank() < 2 && int64(a.s.State.Iter) == a.t.probeAt.Load() {
		if err := a.t.probe.run(p); err != nil {
			return false, err
		}
	}
	done, err := a.s.Step(p)
	if err != nil {
		return done, err
	}
	a.t.steps.Add(1)
	for it := int64(a.s.State.Iter); ; {
		cur := a.t.iter.Load()
		if it <= cur || a.t.iter.CompareAndSwap(cur, it) {
			break
		}
	}
	if a.restored.Swap(false) {
		a.t.noteResumed(p.Rank())
	}
	return done, nil
}

// probeRun is one ping-pong probe between ranks 0 and 1 of the job:
// rank 0 sends payloads and checks each echo, rank 1 echoes until an
// empty message ends the probe. Every message runs through the job's
// full C/R-enabled stack (OMPI, CRCP wrapper, PML, BTL). As in NetPIPE,
// a sample is the mean round trip over a batch of back-to-back round
// trips, so a collector cycle or a scheduler hop is averaged into the
// batch it hit instead of deciding which side of it the median falls.
type probeRun struct {
	sizes []probeSize
	until time.Time
	err   error
	done  chan struct{}
}

// probeSize is one payload, the round trips per batch, and the batch
// means measured.
type probeSize struct {
	payload []byte
	batch   int
	rtt     []time.Duration
}

func newProbeRun(sizes []probeSize, until time.Time) *probeRun {
	return &probeRun{sizes: sizes, until: until, done: make(chan struct{})}
}

// arm schedules the probe a few iterations ahead of the job, so both
// ranks meet it at the same step boundary. The caller disarms it
// (probeAt = -1) once the probe is done, before any rank can roll back
// to that iteration.
func (t *tracker) arm(pr *probeRun) {
	t.probe = pr
	t.probeAt.Store(t.iter.Load() + 4)
}

func (pr *probeRun) run(p *ompi.Proc) error {
	if p.Rank() == 1 {
		for {
			data, _, err := p.Recv(0, probeTag)
			if err != nil {
				return err
			}
			if len(data) == 0 {
				return nil
			}
			if err := p.Send(0, probeTag, data); err != nil {
				return err
			}
		}
	}
	defer close(pr.done)
	for pr.err == nil && time.Now().Before(pr.until) {
		for i := range pr.sizes {
			sz := &pr.sizes[i]
			start := time.Now()
			for j := 0; j < sz.batch; j++ {
				if err := p.Send(1, probeTag, sz.payload); err != nil {
					return err
				}
				got, _, err := p.Recv(1, probeTag)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, sz.payload) {
					pr.err = fmt.Errorf("probe: echo of %d-byte payload differs", len(sz.payload))
				}
			}
			sz.rtt = append(sz.rtt, time.Since(start)/time.Duration(sz.batch))
		}
	}
	return p.Send(1, probeTag, nil)
}
