package crcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/pml"
	"repro/internal/opal/inc"
	"repro/internal/opal/wire"
	"repro/internal/trace"
)

// DefaultDrainTimeout bounds how long a quiesce waits for peers before
// declaring the checkpoint failed; configurable via the MCA parameter
// "crcp_bkmrk_timeout".
const DefaultDrainTimeout = 30 * time.Second

// BkmrkComponent builds bookmark-exchange protocol instances: the
// LAM/MPI-like coordinated checkpoint/restart protocol of paper §6.3,
// refined to operate on entire messages instead of bytes.
type BkmrkComponent struct{}

// Name implements mca.Component.
func (*BkmrkComponent) Name() string { return "bkmrk" }

// Priority implements mca.Component; bkmrk is the default protocol.
func (*BkmrkComponent) Priority() int { return 20 }

// Wrap implements Component.
func (*BkmrkComponent) Wrap(eng *pml.Engine, params *mca.Params, ins *trace.Instrumentation) Protocol {
	return &bkmrkProto{
		eng:     eng,
		timeout: params.Duration("crcp_bkmrk_timeout", DefaultDrainTimeout),
		ins:     ins,
		sent:    make(map[int]uint64),
		recvd:   make(map[int]uint64),
		up:      make(map[int]uint64),
	}
}

var _ Component = (*BkmrkComponent)(nil)

// The cut is coloured (Lai–Yang, Mattern). The PML stamps its colour on
// every fragment; a rank's colour advances by one when its drain
// succeeds and is zero after every restart. No rank finishes a drain
// before every rank has entered the cut, so live colours differ by at
// most one: in the quiesce window, a colour other than this rank's at
// the cut marks a fragment sent past the cut.
//
// The bookmark exchange runs over a binomial tree rooted at rank 0, in
// 2(n−1) CTRL fragments per cut. Up: each rank adds its per-destination
// sent counts to its children's and sends the sum to its parent. Down:
// the root now knows how many pre-cut messages are addressed to each
// rank; each rank hands its children the totals for their subtrees. A
// rank is drained when it has received exactly its total and no
// rendezvous is half-done. Payload: a kind byte, then a uvarint count of
// (rank, count) uvarint pairs, ranks ascending and in the job, counts
// non-zero, every varint shortest-form. Nothing of it reaches an image.
const (
	ctrlUp   = 'u'
	ctrlDown = 'd'
)

// entry is one (rank, count) pair of a control payload.
type entry struct {
	rank  int
	count uint64
}

func encodeCtrl(kind byte, es []entry) []byte {
	b := binary.AppendUvarint(append(make([]byte, 0, 2+4*len(es)), kind), uint64(len(es)))
	for _, e := range es {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.rank)), e.count)
	}
	return b
}

// decodeCtrl accepts exactly encodeCtrl's output for an n-rank job.
func decodeCtrl(b []byte, n int) (byte, []entry, error) {
	r := wire.NewReader(b)
	kind := r.Byte()
	if r.Err() == nil && kind != ctrlUp && kind != ctrlDown {
		r.Failf("unknown kind %q", kind)
	}
	es := make([]entry, r.Count(2))
	for i := range es {
		rank, count := r.Uvarint(), r.Uvarint()
		if r.Err() == nil && (rank >= uint64(n) || count == 0 || i > 0 && int(rank) <= es[i-1].rank) {
			r.Failf("entry %d (rank %d, count %d) out of order, range or zero", i, rank, count)
		}
		es[i] = entry{int(rank), count}
	}
	return kind, es, r.Close()
}

// parent is rank r's parent in the binomial tree rooted at 0; rank r's
// subtree is [r, subtreeEnd(r, n)).
func parent(r int) int { return r & (r - 1) }

func subtreeEnd(r, n int) int {
	if r == 0 {
		return n
	}
	return min(r+r&-r, n)
}

// bkmrkProto is one process's bookmark-exchange state. Like the engine
// it wraps, it is confined to the process's application goroutine.
type bkmrkProto struct {
	eng     *pml.Engine
	timeout time.Duration
	ins     *trace.Instrumentation

	sent  map[int]uint64 // whole messages sent, per peer
	recvd map[int]uint64 // whole messages fully received, per peer
	got   uint64         // sum of recvd

	// Cut state. A child's vector may arrive before this rank enters
	// its quiesce, so it is kept until the cut ends (release/restart).
	quiescing bool
	cut       uint8          // colour this rank had when it entered the cut
	up        map[int]uint64 // subtree sent counts per destination
	kidsSeen  uint64         // bit k: child rank+2^k has reported
	totals    []entry        // this subtree's totals, once known
	haveTotal bool

	src     string // trace source name, built for srcRank
	srcRank int
}

// MessageSent implements pml.Hooks: count at channel entry (eager or RTS).
func (p *bkmrkProto) MessageSent(dst, tag, size int) { p.sent[dst]++ }

// MessageArrived implements pml.Hooks: count at full arrival.
func (p *bkmrkProto) MessageArrived(src, tag, size int) {
	p.recvd[src]++
	p.got++
}

// CtrlFrag implements pml.Hooks: merge a child's vector or take the
// parent's totals.
func (p *bkmrkProto) CtrlFrag(fr btl.Frag) error {
	self, n := p.eng.Rank(), p.eng.Size()
	kind, es, err := decodeCtrl(fr.Payload, n)
	switch k := fr.Src - self; {
	case err != nil:
	case kind == ctrlUp && (k <= 0 || parent(fr.Src) != self):
		err = errors.New("vector from a rank that is not a child")
	case kind == ctrlUp && p.kidsSeen&(1<<bits.TrailingZeros(uint(k))) != 0:
		err = errors.New("duplicate child vector")
	case kind == ctrlUp:
		p.kidsSeen |= 1 << bits.TrailingZeros(uint(k))
		for _, e := range es {
			p.up[e.rank] += e.count
		}
		return nil
	case self == 0 || fr.Src != parent(self):
		err = errors.New("totals from a rank that is not the parent")
	case p.haveTotal:
		err = errors.New("duplicate totals")
	case len(es) > 0 && (es[0].rank < self || es[len(es)-1].rank >= subtreeEnd(self, n)):
		err = errors.New("totals outside this subtree")
	default:
		p.totals, p.haveTotal = es, true
		return nil
	}
	return fmt.Errorf("crcp bkmrk: bad control fragment from rank %d: %w", fr.Src, err)
}

// HoldFrag implements pml.Hooks: in the quiesce window, a fragment of
// another colour than this rank's at the cut was sent past the cut.
func (p *bkmrkProto) HoldFrag(fr btl.Frag) bool {
	return fr.Colour != p.cut
}

// source names this rank in trace events. It is built once per rank
// (a restored image may carry a different rank than the engine had).
func (p *bkmrkProto) source() string {
	if r := p.eng.Rank(); p.src == "" || r != p.srcRank {
		p.src, p.srcRank = fmt.Sprintf("crcp.bkmrk[%d]", r), r
	}
	return p.src
}

// FTEvent implements Protocol.
func (p *bkmrkProto) FTEvent(s inc.State) error {
	switch s {
	case inc.StateCheckpoint:
		return p.quiesce()
	case inc.StateContinue, inc.StateError:
		return p.release()
	case inc.StateRestart:
		// The engine was rebuilt from the image (draining off, no
		// holdback). Zero counters and colour on every rank: the cut was
		// quiesced, so the counts matched pairwise at capture and
		// restarting them from zero is globally consistent — also for
		// peers restored through a CRS component (SELF) that carries no
		// protocol state. A restored unexpected queue was counted before
		// the cut and is never re-counted.
		p.sent, p.recvd, p.got = make(map[int]uint64), make(map[int]uint64), 0
		p.quiescing = false
		p.endCut()
		p.eng.SetColour(0)
		p.ins.Emit(p.source(), "crcp.restart", "protocol counters and colour reset at restored cut")
		return nil
	default:
		return fmt.Errorf("crcp bkmrk: unknown ft_event state %v", s)
	}
}

// quiesce runs the bookmark exchange and drains the channels. On
// success the engine holds a consistent cut: every message sent before
// its sender's cut has fully arrived, nothing past the cut has been
// processed, and no rendezvous is half-complete in either direction.
//
// A failed quiesce (drain timeout, control send failure, bookmark
// mismatch) releases the engine itself before returning: relying on the
// INC to deliver StateError would leave the engine draining — and every
// later send/recv wedged — if that delivery never comes.
func (p *bkmrkProto) quiesce() error {
	if p.quiescing {
		return fmt.Errorf("crcp bkmrk: quiesce already in progress")
	}
	// The quiesce span is the paper's §6.3 "coordination" share of
	// checkpoint latency: everything from entering drain mode to a
	// verified consistent cut is quiesce stall time.
	sp := p.ins.Span("ckpt.quiesce", trace.WithRank(p.eng.Rank()), trace.WithSource(p.source()))
	p.quiescing, p.cut = true, p.eng.Colour()
	if err := p.drainToCut(); err != nil {
		if rerr := p.release(); rerr != nil {
			p.ins.Emit(p.source(), "crcp.release-failed", "self-release after failed quiesce: %v", rerr)
		}
		sp.End(err)
		p.ins.Counter("ompi_crcp_quiesce_failed_total").Inc()
		return err
	}
	stall := sp.End(nil)
	p.ins.Counter("ompi_crcp_quiesce_total").Inc()
	p.ins.ObserveSeconds("ompi_crcp_quiesce_stall_seconds", stall)
	p.ins.Emit(p.source(), "crcp.quiesce.done", "channels quiesced, %d frags held back", p.eng.HeldBack())
	return nil
}

// drainToCut is the body of a quiesce: drain mode, the up and down
// waves, the drain, the colour advance. Split out so quiesce can
// self-release on any error path.
func (p *bkmrkProto) drainToCut() error {
	if err := p.eng.SetDraining(true); err != nil {
		return fmt.Errorf("crcp bkmrk: enter drain: %w", err)
	}
	self, n := p.eng.Rank(), p.eng.Size()
	end, deadline := subtreeEnd(self, n), time.Now().Add(p.timeout)
	wait := func(what string, pred func() bool) error {
		if err := p.eng.ProgressUntil(pred, time.Until(deadline)); err != nil {
			return fmt.Errorf("crcp bkmrk: %s: %w", what, err)
		}
		return nil
	}
	for dst, c := range p.sent {
		p.up[dst] += c
	}
	kids := bits.Len(uint(end - self - 1)) // children self+1, self+2, self+4, ...
	if err := wait("child vectors", func() bool { return bits.OnesCount64(p.kidsSeen) == kids }); err != nil {
		return err
	}
	if self == 0 {
		p.totals, p.haveTotal = sortedEntries(p.up), true
	} else if err := p.eng.SendCtrl(parent(self), encodeCtrl(ctrlUp, sortedEntries(p.up))); err != nil {
		return fmt.Errorf("crcp bkmrk: send vector to %d: %w", parent(self), err)
	} else if err := wait("totals", func() bool { return p.haveTotal }); err != nil {
		return err
	}
	// The totals are rank-ascending: this rank's own, then each child's
	// contiguous subtree in turn.
	var want uint64
	ts := p.totals
	if len(ts) > 0 && ts[0].rank == self {
		want, ts = ts[0].count, ts[1:]
	}
	for c := self + 1; c < end; c += c - self {
		i := 0
		for i < len(ts) && ts[i].rank < subtreeEnd(c, n) {
			i++
		}
		if err := p.eng.SendCtrl(c, encodeCtrl(ctrlDown, ts[:i])); err != nil {
			return fmt.Errorf("crcp bkmrk: send totals to %d: %w", c, err)
		}
		ts = ts[i:]
	}
	err := wait("drain", func() bool {
		return p.got >= want && p.eng.PendingIncomingRendezvous() == 0 && p.eng.PendingOutgoingRendezvous() == 0
	})
	if err == nil && p.got != want {
		err = fmt.Errorf("crcp bkmrk: bookmark mismatch: announced %d, received %d", want, p.got)
	}
	if err == nil {
		p.eng.SetColour(p.eng.Colour() + 1)
	}
	return err
}

// sortedEntries lists the non-zero counts of m by rank.
func sortedEntries(m map[int]uint64) []entry {
	es := make([]entry, 0, len(m))
	for r, c := range m {
		if c != 0 {
			es = append(es, entry{r, c})
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return a.rank - b.rank })
	return es
}

// endCut drops the per-cut tree state.
func (p *bkmrkProto) endCut() {
	clear(p.up)
	p.kidsSeen, p.totals, p.haveTotal = 0, nil, false
}

// release ends the quiesce window: held-back fragments re-enter the
// protocol machine. It always drops the cut's tree state, so state an
// aborted quiesce left behind is never taken for the next cut's.
func (p *bkmrkProto) release() error {
	p.endCut()
	if !p.quiescing {
		return nil
	}
	p.quiescing = false
	if err := p.eng.SetDraining(false); err != nil {
		return fmt.Errorf("crcp bkmrk: leave drain: %w", err)
	}
	p.ins.Emit(p.source(), "crcp.release", "quiesce window closed")
	return nil
}

// Save implements Protocol.
func (p *bkmrkProto) Save() ([]byte, error) { return EncodeBookmarks(p.sent, p.recvd), nil }

// Restore implements Protocol.
func (p *bkmrkProto) Restore(data []byte) error {
	sent, recvd, err := DecodeBookmarks(data)
	if err != nil {
		return fmt.Errorf("crcp bkmrk: restore: %w", err)
	}
	p.sent, p.recvd, p.got = sent, recvd, 0
	for _, c := range recvd {
		p.got += c
	}
	return nil
}

var _ Protocol = (*bkmrkProto)(nil)
