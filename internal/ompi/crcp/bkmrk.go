package crcp

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/pml"
	"repro/internal/opal/inc"
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
	}
}

var _ Component = (*BkmrkComponent)(nil)

// The bookmark marker is the control message "I have sent you count
// application messages before this point", encoded as one unsigned
// varint. Because the BTL delivers per-pair FIFO, the marker doubles as
// the in-band cut marker: fragments from a peer after its marker are
// past the cut. Markers live only on the wire, never in an image.

// encodeMarker returns the marker payload announcing count.
func encodeMarker(count uint64) []byte {
	return binary.AppendUvarint(nil, count)
}

// decodeMarker returns the count a marker payload announces. It accepts
// exactly encodeMarker's output: one varint in its shortest form and
// nothing after it.
func decodeMarker(b []byte) (uint64, error) {
	count, n := binary.Uvarint(b)
	switch {
	case n <= 0:
		return 0, errors.New("truncated or overflowing varint")
	case n != len(b):
		return 0, fmt.Errorf("%d trailing bytes", len(b)-n)
	case n != len(encodeMarker(count)):
		return 0, errors.New("non-canonical varint")
	}
	return count, nil
}

// bkmrkState is the serializable protocol state.
type bkmrkState struct {
	Sent  map[int]uint64 `json:"sent"`
	Recvd map[int]uint64 `json:"recvd"`
}

// bkmrkProto is one process's bookmark-exchange state. Like the engine
// it wraps, it is confined to the process's application goroutine.
type bkmrkProto struct {
	eng     *pml.Engine
	timeout time.Duration
	ins     *trace.Instrumentation

	sent  map[int]uint64 // whole messages sent, per peer
	recvd map[int]uint64 // whole messages fully received, per peer

	quiescing  bool
	markerFrom map[int]uint64 // peer -> announced count (presence = marker seen)

	src     string // trace source name, built for srcRank
	srcRank int
}

// MessageSent implements pml.Hooks: count at channel entry (eager or RTS).
func (p *bkmrkProto) MessageSent(dst, tag, size int) {
	p.sent[dst]++
}

// MessageArrived implements pml.Hooks: count at full arrival.
func (p *bkmrkProto) MessageArrived(src, tag, size int) {
	p.recvd[src]++
}

// CtrlFrag implements pml.Hooks: record a peer's bookmark marker.
func (p *bkmrkProto) CtrlFrag(fr btl.Frag) error {
	count, err := decodeMarker(fr.Payload)
	if err != nil {
		return fmt.Errorf("crcp bkmrk: bad marker from rank %d: %w", fr.Src, err)
	}
	if p.markerFrom == nil {
		p.markerFrom = make(map[int]uint64)
	}
	if _, dup := p.markerFrom[fr.Src]; dup {
		return fmt.Errorf("crcp bkmrk: duplicate marker from rank %d", fr.Src)
	}
	p.markerFrom[fr.Src] = count
	p.ins.Emit(p.source(), "crcp.marker", "from %d count %d", fr.Src, count)
	return nil
}

// HoldFrag implements pml.Hooks. During the drain, a fragment from a
// peer whose marker has already arrived is past the cut: FIFO guarantees
// everything pre-cut precedes the marker.
func (p *bkmrkProto) HoldFrag(fr btl.Frag) bool {
	_, seen := p.markerFrom[fr.Src]
	return seen
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
		// holdback). Zero the bookmark counters on every rank: the cut
		// was quiesced, so sent/received counts matched pairwise at the
		// instant of capture and restarting them from zero is globally
		// consistent — including for peers restored through a CRS
		// component (SELF) that carries no protocol state at all.
		// Messages already sitting in a restored unexpected queue were
		// counted before the cut and are never re-counted.
		p.sent = make(map[int]uint64)
		p.recvd = make(map[int]uint64)
		p.quiescing = false
		p.markerFrom = nil
		p.ins.Emit(p.source(), "crcp.restart", "protocol counters reset at restored cut")
		return nil
	default:
		return fmt.Errorf("crcp bkmrk: unknown ft_event state %v", s)
	}
}

// quiesce runs the bookmark exchange and drains the channels. On
// success the engine holds a consistent cut: every message a peer sent
// before its marker has fully arrived, nothing past the cut has been
// processed, and no rendezvous is half-complete in either direction.
//
// A failed quiesce (drain timeout, marker send failure, bookmark
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
	p.quiescing = true
	if p.markerFrom == nil {
		p.markerFrom = make(map[int]uint64)
	}
	if err := p.eng.SetDraining(true); err != nil {
		p.quiescing = false
		p.markerFrom = nil
		sp.End(err)
		p.ins.Counter("ompi_crcp_quiesce_failed_total").Inc()
		return fmt.Errorf("crcp bkmrk: enter drain: %w", err)
	}
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

// drainToCut is the body of a quiesce after the engine entered drain
// mode: announce bookmarks, wait for the channels to empty, verify the
// accounting. Split out so quiesce can self-release on any error path.
func (p *bkmrkProto) drainToCut() error {
	// Announce bookmarks to every peer.
	self := p.eng.Rank()
	for peer := 0; peer < p.eng.Size(); peer++ {
		if peer == self {
			continue
		}
		if err := p.eng.SendCtrl(peer, encodeMarker(p.sent[peer])); err != nil {
			return fmt.Errorf("crcp bkmrk: send marker to %d: %w", peer, err)
		}
	}
	p.ins.Emit(p.source(), "crcp.quiesce.begin", "markers sent to %d peers", p.eng.Size()-1)

	// Drain: markers from all peers, all pre-cut traffic fully arrived,
	// all our own announced sends fully delivered.
	want := p.eng.Size() - 1
	pred := func() bool {
		return len(p.markerFrom) == want &&
			p.eng.PendingIncomingRendezvous() == 0 &&
			p.eng.PendingOutgoingRendezvous() == 0 &&
			p.drainedAll()
	}
	if err := p.eng.ProgressUntil(pred, p.timeout); err != nil {
		return fmt.Errorf("crcp bkmrk: drain: %w", err)
	}
	// Verify the bookmark accounting: received exactly what each peer
	// announced, never more (more would mean a post-cut message was
	// processed as pre-cut).
	for peer, announced := range p.markerFrom {
		if got := p.recvd[peer]; got != announced {
			return fmt.Errorf("crcp bkmrk: bookmark mismatch with rank %d: announced %d, received %d", peer, announced, got)
		}
	}
	return nil
}

// drainedAll reports whether every peer's announced count has been
// received. Markers not yet seen make it false.
func (p *bkmrkProto) drainedAll() bool {
	for peer, announced := range p.markerFrom {
		if p.recvd[peer] < announced {
			return false
		}
	}
	return len(p.markerFrom) == p.eng.Size()-1
}

// release ends the quiesce window: held-back fragments re-enter the
// protocol machine and normal operation resumes.
func (p *bkmrkProto) release() error {
	if !p.quiescing {
		// Not quiescing, but a peer's aborted quiesce may have left stale
		// markers behind; drop them so they cannot be double-counted as
		// duplicates by the next exchange.
		p.markerFrom = nil
		return nil
	}
	p.quiescing = false
	p.markerFrom = nil
	if err := p.eng.SetDraining(false); err != nil {
		return fmt.Errorf("crcp bkmrk: leave drain: %w", err)
	}
	p.ins.Emit(p.source(), "crcp.release", "quiesce window closed")
	return nil
}

// Save implements Protocol.
func (p *bkmrkProto) Save() ([]byte, error) {
	data, err := json.Marshal(bkmrkState{Sent: p.sent, Recvd: p.recvd})
	if err != nil {
		return nil, fmt.Errorf("crcp bkmrk: save: %w", err)
	}
	return data, nil
}

// Restore implements Protocol.
func (p *bkmrkProto) Restore(data []byte) error {
	if len(data) == 0 {
		p.sent = make(map[int]uint64)
		p.recvd = make(map[int]uint64)
		return nil
	}
	var s bkmrkState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("crcp bkmrk: restore: %w", err)
	}
	if s.Sent == nil {
		s.Sent = make(map[int]uint64)
	}
	if s.Recvd == nil {
		s.Recvd = make(map[int]uint64)
	}
	p.sent = s.Sent
	p.recvd = s.Recvd
	return nil
}

var _ Protocol = (*bkmrkProto)(nil)

// DecodeBookmarks decodes the channel bookmark counters a bkmrk
// protocol Save produced: per-peer counts of whole messages sent and
// fully received at the quiesced cut. ok is false when data is empty
// (the none protocol saves no state) or is not a bookmark image;
// callers such as the recovery coordinator then skip channel re-knit
// verification rather than failing.
func DecodeBookmarks(data []byte) (sent, recvd map[int]uint64, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	var s bkmrkState
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, nil, false
	}
	return s.Sent, s.Recvd, true
}
