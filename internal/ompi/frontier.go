package ompi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ompi/btl"
)

// The step-frontier agreement (arm, then agree). A step boundary costs
// one local test unless the process is armed — a checkpoint directive
// is queued — or has reported to an open agreement. Deliver arms the
// process and reports for it at once: the next boundary it can still
// checkpoint at (the one it stands at, or the next one mid-step), sent
// to rank 0 from the delivering goroutine, so a rank asleep in its
// step's compute still reports. Rank 0 asks every other rank to report
// too, so a rank whose directive is late, or that is finalizing, still
// answers; once all n have reported it sends each rank the frontier F,
// the largest report. Every rank steps on to boundary F and
// participates there. A rank that has reported does not pass its
// reported boundary until it knows F, so no rank can be past F.
//
// The fragments travel on the job's own fabric as FRONTIER fragments,
// which the PML hands to onFrontier from any progress call — also from
// inside a blocking Recv or Wait — so a rank blocked mid-step answers
// rank 0 and learns F without returning to its step loop. Payload: a
// kind byte, then for a report or a frontier one uvarint, boundary+1,
// or 0 for a rank that will reach no further boundary (finalizing). A
// frontier of 0 means nobody checkpoints: every rank refuses its
// directive.
const (
	frontierStart  = 's' // rank 0 to a rank: report for the open agreement
	frontierReport = 'r' // a rank to rank 0: the next boundary it can reach
	frontierAt     = 'f' // rank 0 to a rank: the agreed frontier
)

// never is the boundary of a process that will reach no further one.
const never = math.MaxInt64 >> 1

// frontier is one process's side of the agreement. pos is shared with
// Deliver; everything else, like the engine whose progress loop runs
// the handler, is confined to the application goroutine.
type frontier struct {
	// pos is the next boundary the process can still checkpoint at,
	// shifted left by one; the low bit is set while the process has
	// reported to an open agreement. Passing a boundary and reporting
	// are both compare-and-swaps on it, so a report always names a
	// boundary the process has not passed.
	pos     atomic.Int64
	decided bool  // the open agreement's frontier is known
	at      int64 // the decided frontier

	// Rank 0 collects the open agreement's reports.
	reported []bool
	count    int
	max      int64
}

// reset drops every agreement in progress: a restore puts all ranks back
// at boundary 0 of the restored cut.
func (f *frontier) reset(n int) {
	f.pos.Store(0)
	f.decided, f.at = false, 0
	f.reported, f.count, f.max = make([]bool, n), 0, 0
}

func (f *frontier) joined() bool { return f.pos.Load()&1 != 0 }

// claim marks the process as reported and returns the boundary to
// report; false when it already has.
func (f *frontier) claim() (int64, bool) {
	for {
		v := f.pos.Load()
		if v&1 != 0 {
			return 0, false
		}
		if f.pos.CompareAndSwap(v, v|1) {
			return v >> 1, true
		}
	}
}

// pass moves the process past the boundary it stands at; false when a
// report got in first.
func (f *frontier) pass(v int64) bool { return v&1 == 0 && f.pos.CompareAndSwap(v, v+2) }

// leave ends the process's part in the agreement at its current place.
func (f *frontier) leave() {
	for v := f.pos.Load(); !f.pos.CompareAndSwap(v, v&^1); v = f.pos.Load() {
	}
	f.decided = false
}

// finalize marks that no further boundary comes, keeping a report the
// process already made.
func (f *frontier) finalize() {
	for v := f.pos.Load(); !f.pos.CompareAndSwap(v, never<<1|v&1); v = f.pos.Load() {
	}
}

func encodeFrontier(kind byte, boundary int64) []byte {
	b := []byte{kind}
	if kind == frontierReport || kind == frontierAt {
		v := uint64(0)
		if boundary != never {
			v = uint64(boundary) + 1
		}
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// decodeFrontier accepts exactly encodeFrontier's output.
func decodeFrontier(b []byte) (kind byte, boundary int64, err error) {
	if len(b) == 0 {
		return 0, 0, errors.New("empty payload")
	}
	kind, b = b[0], b[1:]
	switch kind {
	case frontierStart:
		if len(b) != 0 {
			return 0, 0, fmt.Errorf("%q carries %d stray bytes", kind, len(b))
		}
		return kind, 0, nil
	case frontierReport, frontierAt:
		v, n := binary.Uvarint(b)
		if n <= 0 || n != len(b) || v > never || len(binary.AppendUvarint(nil, v)) != n {
			return 0, 0, fmt.Errorf("%q: bad boundary", kind)
		}
		if v == 0 {
			return kind, never, nil
		}
		return kind, int64(v - 1), nil
	}
	return 0, 0, fmt.Errorf("unknown kind %q", kind)
}

// armed reports whether a checkpoint directive is queued. A length read
// needs no lock.
func (p *Proc) armed() bool { return len(p.directives) > 0 }

// onFrontier is the engine's FRONTIER handler.
func (p *Proc) onFrontier(fr btl.Frag) error {
	kind, boundary, err := decodeFrontier(fr.Payload)
	self := p.cfg.Rank
	switch {
	case err != nil:
	case kind == frontierReport && self != 0:
		err = errors.New("report to a rank other than 0")
	case kind != frontierReport && fr.Src != 0:
		err = errors.New("unexpected sender")
	case kind == frontierStart:
		return p.join()
	case kind == frontierReport:
		return p.collect(fr.Src, boundary)
	default:
		return p.decide(boundary)
	}
	return fmt.Errorf("ompi: rank %d: bad frontier fragment from rank %d: %w", self, fr.Src, err)
}

// join reports this process's next boundary for the open agreement,
// unless it (or Deliver, for it) already has.
func (p *Proc) join() error {
	b, ok := p.front.claim()
	switch {
	case !ok:
		return nil
	case p.cfg.Rank == 0:
		return p.collect(0, b)
	}
	return p.eng.SendFrontier(0, encodeFrontier(frontierReport, b))
}

// collect takes one report at rank 0. The first report of an agreement
// asks every other rank to report; the last one decides it.
func (p *Proc) collect(r int, boundary int64) error {
	f := &p.front
	if f.reported[r] {
		return fmt.Errorf("ompi: rank 0: rank %d reported twice for one frontier", r)
	}
	f.reported[r] = true
	f.count++
	f.max = max(f.max, boundary)
	if f.count == 1 {
		for q := 1; q < p.cfg.Size; q++ {
			if q != r {
				if err := p.eng.SendFrontier(q, encodeFrontier(frontierStart, 0)); err != nil {
					return err
				}
			}
		}
	}
	if !f.reported[0] {
		return p.join()
	}
	if f.count < p.cfg.Size {
		return nil
	}
	at := f.max
	clear(f.reported)
	f.count, f.max = 0, 0
	p.ins.Counter("ompi_frontier_agreements_total").Inc()
	for q := 1; q < p.cfg.Size; q++ {
		if err := p.eng.SendFrontier(q, encodeFrontier(frontierAt, at)); err != nil {
			return err
		}
	}
	return p.decide(at)
}

// decide takes the agreed frontier. A frontier this process will not
// reach answers every queued directive with a refusal, so no
// coordinator waits on one.
func (p *Proc) decide(at int64) error {
	f := &p.front
	v := f.pos.Load()
	switch next := v >> 1; {
	case v&1 == 0:
		return fmt.Errorf("ompi: rank %d: frontier for an agreement it never joined", p.cfg.Rank)
	case at == never || next == never:
		// Refuse before leaving: a directive Deliver queues from here on
		// opens the next agreement.
		p.mu.Lock()
		p.refuseQueued()
		f.leave()
		p.mu.Unlock()
	case at < next:
		return fmt.Errorf("ompi: rank %d: frontier %d is behind boundary %d", p.cfg.Rank, at, next)
	default:
		f.decided, f.at = true, at
	}
	return nil
}
