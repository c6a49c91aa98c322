// Package pml implements the Point-to-point Management Layer: the
// message engine beneath the MPI API, modeled on Open MPI's ob1. It
// provides tag/source matching with wildcards, eager and rendezvous
// protocols, nonblocking requests, and — crucially for the paper — the
// wrapper hook surface through which a CRCP component observes and
// steers every message (paper §6.3: "the wrapper PML component allows
// the OMPI CRCP components the opportunity to take action before and
// after each message is processed by the actual PML component").
//
// The engine additionally supports the three operations distributed
// checkpointing needs from a point-to-point layer:
//
//   - quiesce support: a draining mode in which pending rendezvous
//     transfers are forced to completion so no message is ever captured
//     half-delivered;
//   - channel-state exclusion: fragments past the coordination cut are
//     held back un-processed, so the process image never captures
//     in-channel state (the local CRS cannot account for it, §5.3);
//   - state extraction/restoration: unexpected-message queues, posted
//     receives and the request table serialize into the process image
//     and restore into a fresh engine after restart, possibly attached
//     to a different fabric topology.
package pml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/ompi/btl"
	"repro/internal/opal/wire"
)

// Wildcards for receive matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// DefaultEagerLimit is the message size (bytes) at or below which sends
// use the eager protocol; larger messages use rendezvous.
const DefaultEagerLimit = 4096

// Request is a serializable handle to a nonblocking operation. Handles
// survive checkpoint/restart, so applications may store them in
// registered state and Wait on them after a restore.
type Request int

// NoRequest is the zero, invalid request handle.
const NoRequest Request = 0

// Status describes a completed (or probed) message.
type Status struct {
	Source int
	Tag    int
	Size   int
}

// Hooks is the wrapper surface a CRCP protocol implements. A nil hooks
// value is legal and means the C/R infrastructure is absent entirely —
// the baseline configuration of the NetPIPE overhead experiment.
type Hooks interface {
	// MessageSent is invoked when a message enters the channel: at
	// eager emission or RTS emission (the bkmrk component counts whole
	// messages, per the paper's refinement).
	MessageSent(dst, tag, size int)
	// MessageArrived is invoked when a message has fully arrived:
	// eager receipt or rendezvous DATA receipt.
	MessageArrived(src, tag, size int)
	// CtrlFrag receives coordination-protocol control fragments.
	CtrlFrag(fr btl.Frag) error
	// HoldFrag is consulted in draining mode for EAGER and RTS
	// fragments: returning true classifies the fragment as past the
	// coordination cut, to be buffered outside checkpointable state.
	HoldFrag(fr btl.Frag) bool
}

// Errors returned by engine operations.
var (
	// ErrBadRequest: the handle does not name a live request.
	ErrBadRequest = errors.New("pml: unknown request handle")
	// ErrTimeout: ProgressUntil exceeded its deadline.
	ErrTimeout = errors.New("pml: progress deadline exceeded")
)

// inMsg is one arrival-ordered incoming message record: either a
// complete unmatched message (eager, or rendezvous whose payload has
// landed) or a pending rendezvous awaiting payload.
type inMsg struct {
	src, tag int
	size     int
	msgID    uint64
	payload  []byte
	complete bool
	ctsSent  bool
	claimed  Request // receive request this message will complete, if any
}

// reqKind distinguishes request types in the table.
type reqKind uint8

const (
	reqSend reqKind = iota + 1
	reqRecv
)

// request is one entry in the request table.
type request struct {
	kind    reqKind
	done    bool
	status  Status
	payload []byte // completed recv: the message body awaiting Wait
	// recv matching terms (posted receives)
	src, tag int
	// send rendezvous correlation
	msgID uint64
}

// Engine is one process's PML. It is not safe for concurrent use: MPI
// calls on one rank are made from that rank's application goroutine, and
// checkpoint coordination runs on the same goroutine at the INC boundary
// (see the ompi package).
type Engine struct {
	rank, size int
	ep         btl.Port
	hooks      Hooks
	eagerLimit int

	arrivals []*inMsg             // arrival-ordered unmatched/incomplete messages
	posted   []Request            // posting-ordered pending receive handles
	reqs     map[Request]*request // live requests
	nextReq  Request
	nextMsg  uint64

	sendPending map[uint64]*request // rendezvous sends awaiting CTS

	draining bool
	holdback []btl.Frag // post-cut fragments excluded from the image
	colour   uint8      // cut colour stamped on every outgoing fragment

	frontier func(btl.Frag) error // FRONTIER fragment handler (SetFrontier)
}

// Config assembles an Engine.
type Config struct {
	Rank       int
	Size       int
	Endpoint   btl.Port
	Hooks      Hooks // nil = no C/R infrastructure (baseline)
	EagerLimit int   // 0 = DefaultEagerLimit
}

// New returns an Engine for cfg.
func New(cfg Config) *Engine {
	limit := cfg.EagerLimit
	if limit <= 0 {
		limit = DefaultEagerLimit
	}
	return &Engine{
		rank:        cfg.Rank,
		size:        cfg.Size,
		ep:          cfg.Endpoint,
		hooks:       cfg.Hooks,
		eagerLimit:  limit,
		reqs:        make(map[Request]*request),
		nextReq:     1,
		nextMsg:     1,
		sendPending: make(map[uint64]*request),
	}
}

// Rank returns this engine's rank.
func (e *Engine) Rank() int { return e.rank }

// Size returns the number of ranks in the job.
func (e *Engine) Size() int { return e.size }

// EagerLimit returns the eager/rendezvous threshold in bytes.
func (e *Engine) EagerLimit() int { return e.eagerLimit }

// Hooks returns the installed wrapper hooks (nil if none).
func (e *Engine) Hooks() Hooks { return e.hooks }

// SetHooks installs wrapper hooks; used at restart when a fresh protocol
// instance re-binds to a restored engine.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// Rebind attaches the engine to a (new) BTL endpoint; used at restart,
// where the paper's PML ft_event "reconnects peers when restarting in
// new process topologies".
func (e *Engine) Rebind(ep btl.Port) { e.ep = ep }

// SetColour sets the cut colour stamped on every fragment this engine
// sends from now on; the CRCP protocol advances it at each cut.
func (e *Engine) SetColour(c uint8) { e.colour = c }

// Colour returns the engine's current cut colour.
func (e *Engine) Colour() uint8 { return e.colour }

// send stamps the cut colour on fr and hands it to the BTL.
func (e *Engine) send(fr btl.Frag) error {
	fr.Colour = e.colour
	return e.ep.Send(fr)
}

// SendCtrl emits a coordination-protocol control fragment to dst.
func (e *Engine) SendCtrl(dst int, payload []byte) error {
	return e.send(btl.Frag{Kind: btl.KindCtrl, Dst: dst, Payload: payload})
}

// SetFrontier installs the handler for FRONTIER fragments. The engine
// runs it from whichever progress call pulls the fragment, including a
// blocking Recv or Wait, so the step-frontier agreement advances while
// the application is blocked mid-step.
func (e *Engine) SetFrontier(h func(btl.Frag) error) { e.frontier = h }

// SendFrontier emits a step-frontier agreement fragment to dst.
func (e *Engine) SendFrontier(dst int, payload []byte) error {
	return e.send(btl.Frag{Kind: btl.KindFrontier, Dst: dst, Payload: payload})
}

// newRequest allocates a request handle.
func (e *Engine) newRequest(r *request) Request {
	h := e.nextReq
	e.nextReq++
	e.reqs[h] = r
	return h
}

// Isend starts a nonblocking send. Message data is copied immediately
// (buffered semantics), so the caller may reuse data.
func (e *Engine) Isend(dst, tag int, data []byte) (Request, error) {
	if dst < 0 || dst >= e.size {
		return NoRequest, fmt.Errorf("pml: send to invalid rank %d (size %d)", dst, e.size)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	r := &request{kind: reqSend, status: Status{Source: e.rank, Tag: tag, Size: len(buf)}}
	h := e.newRequest(r)
	if len(buf) <= e.eagerLimit {
		if e.hooks != nil {
			e.hooks.MessageSent(dst, tag, len(buf))
		}
		if err := e.send(btl.Frag{Kind: btl.KindEager, Dst: dst, Tag: tag, Size: len(buf), Payload: buf}); err != nil {
			delete(e.reqs, h)
			return NoRequest, err
		}
		r.done = true
		return h, nil
	}
	// Rendezvous: announce, hold payload until CTS.
	id := e.allocMsgID()
	r.msgID = id
	r.payload = buf
	e.sendPending[id] = r
	if e.hooks != nil {
		e.hooks.MessageSent(dst, tag, len(buf))
	}
	if err := e.send(btl.Frag{Kind: btl.KindRTS, Dst: dst, Tag: tag, MsgID: id, Size: len(buf)}); err != nil {
		delete(e.reqs, h)
		delete(e.sendPending, id)
		return NoRequest, err
	}
	return h, nil
}

func (e *Engine) allocMsgID() uint64 {
	id := uint64(e.rank)<<40 | e.nextMsg
	e.nextMsg++
	return id
}

// Send is the blocking send: Isend followed by Wait.
func (e *Engine) Send(dst, tag int, data []byte) error {
	h, err := e.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	_, _, err = e.Wait(h)
	return err
}

// Irecv posts a nonblocking receive for (src, tag); wildcards allowed.
func (e *Engine) Irecv(src, tag int) (Request, error) {
	if src != AnySource && (src < 0 || src >= e.size) {
		return NoRequest, fmt.Errorf("pml: receive from invalid rank %d (size %d)", src, e.size)
	}
	r := &request{kind: reqRecv, src: src, tag: tag}
	h := e.newRequest(r)
	// Try the unexpected queue first, in arrival order.
	if m := e.findArrival(src, tag); m != nil {
		e.claim(m, h)
		return h, nil
	}
	e.posted = append(e.posted, h)
	return h, nil
}

// claim binds message m to receive request h: completing the request if
// the payload is present, or issuing CTS and waiting for DATA otherwise.
func (e *Engine) claim(m *inMsg, h Request) {
	r := e.reqs[h]
	if m.complete {
		e.removeArrival(m)
		r.done = true
		r.payload = m.payload
		r.status = Status{Source: m.src, Tag: m.tag, Size: m.size}
		return
	}
	m.claimed = h
	if !m.ctsSent {
		m.ctsSent = true
		// Error ignored deliberately: a vanished peer surfaces as a
		// stuck request, which ProgressUntil timeouts diagnose.
		_ = e.send(btl.Frag{Kind: btl.KindCTS, Dst: m.src, MsgID: m.msgID})
	}
}

// findArrival returns the first arrival matching (src, tag) that is not
// already claimed, preserving MPI's arrival-order matching semantics.
func (e *Engine) findArrival(src, tag int) *inMsg {
	for _, m := range e.arrivals {
		if m.claimed != NoRequest {
			continue
		}
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			return m
		}
	}
	return nil
}

func (e *Engine) removeArrival(m *inMsg) {
	for i, x := range e.arrivals {
		if x == m {
			e.arrivals = append(e.arrivals[:i], e.arrivals[i+1:]...)
			return
		}
	}
}

// Recv is the blocking receive: Irecv followed by Wait.
func (e *Engine) Recv(src, tag int) ([]byte, Status, error) {
	h, err := e.Irecv(src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	return e.Wait(h)
}

// Wait blocks until the request completes, returning the received
// payload (nil for sends) and status. The request handle is retired.
func (e *Engine) Wait(h Request) ([]byte, Status, error) {
	r, ok := e.reqs[h]
	if !ok {
		return nil, Status{}, fmt.Errorf("%w: %d", ErrBadRequest, h)
	}
	for !r.done {
		if err := e.progress(true); err != nil {
			return nil, Status{}, err
		}
	}
	delete(e.reqs, h)
	return r.payload, r.status, nil
}

// Test reports whether the request has completed, retiring it if so.
func (e *Engine) Test(h Request) (bool, []byte, Status, error) {
	r, ok := e.reqs[h]
	if !ok {
		return false, nil, Status{}, fmt.Errorf("%w: %d", ErrBadRequest, h)
	}
	if err := e.progress(false); err != nil {
		return false, nil, Status{}, err
	}
	if !r.done {
		return false, nil, Status{}, nil
	}
	delete(e.reqs, h)
	return true, r.payload, r.status, nil
}

// Waitall completes every request in hs.
func (e *Engine) Waitall(hs []Request) error {
	for _, h := range hs {
		if _, _, err := e.Wait(h); err != nil {
			return err
		}
	}
	return nil
}

// Probe blocks until a message matching (src, tag) is available without
// receiving it.
func (e *Engine) Probe(src, tag int) (Status, error) {
	for {
		if st, ok := e.peek(src, tag); ok {
			return st, nil
		}
		if err := e.progress(true); err != nil {
			return Status{}, err
		}
	}
}

// Iprobe reports whether a message matching (src, tag) is available.
func (e *Engine) Iprobe(src, tag int) (Status, bool, error) {
	if err := e.progress(false); err != nil {
		return Status{}, false, err
	}
	st, ok := e.peek(src, tag)
	return st, ok, nil
}

func (e *Engine) peek(src, tag int) (Status, bool) {
	if m := e.findArrival(src, tag); m != nil {
		return Status{Source: m.src, Tag: m.tag, Size: m.size}, true
	}
	return Status{}, false
}

// Progress makes the engine handle at most one pending fragment without
// blocking. Exposed for coordination protocols and tests.
func (e *Engine) Progress() error { return e.progress(false) }

// ProgressUntil drives the engine until pred returns true or the
// timeout expires. The coordination protocol's drain loop runs here. An
// idle wait blocks on the port until the next fragment or the deadline,
// so it neither burns a core nor oversleeps a fragment's arrival.
func (e *Engine) ProgressUntil(pred func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !pred() {
		fr, ok, err := e.ep.RecvUntil(deadline)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w after %v", ErrTimeout, timeout)
		}
		if err := e.handleFrag(fr); err != nil {
			return err
		}
	}
	return nil
}

// Await drives the engine, blocking for fragments, until pred holds.
func (e *Engine) Await(pred func() bool) error {
	for !pred() {
		if err := e.progress(true); err != nil {
			return err
		}
	}
	return nil
}

// progress pulls one fragment (blocking if requested) and handles it.
func (e *Engine) progress(block bool) error {
	var fr btl.Frag
	if block {
		var err error
		fr, err = e.ep.Recv()
		if err != nil {
			return err
		}
	} else {
		var ok bool
		var err error
		fr, ok, err = e.ep.RecvUntil(time.Time{}) // a past deadline polls
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return e.handleFrag(fr)
}

// handleFrag dispatches one fragment through the (possibly wrapped)
// protocol machine.
func (e *Engine) handleFrag(fr btl.Frag) error {
	switch fr.Kind {
	case btl.KindCtrl:
		if e.hooks == nil {
			return fmt.Errorf("pml: control fragment from rank %d with no protocol installed", fr.Src)
		}
		return e.hooks.CtrlFrag(fr)
	case btl.KindFrontier:
		if e.frontier == nil {
			return fmt.Errorf("pml: frontier fragment from rank %d with no handler installed", fr.Src)
		}
		return e.frontier(fr)
	}
	if e.draining {
		switch fr.Kind {
		case btl.KindEager, btl.KindRTS:
			if e.hooks != nil && e.hooks.HoldFrag(fr) {
				e.holdback = append(e.holdback, fr)
				return nil
			}
		case btl.KindData, btl.KindCTS:
			// DATA always completes a pre-cut rendezvous (a post-cut
			// message's RTS would have been held, so its DATA cannot
			// exist); CTS services our own pre-cut pending send.
		}
	}
	switch fr.Kind {
	case btl.KindEager:
		if e.hooks != nil {
			e.hooks.MessageArrived(fr.Src, fr.Tag, len(fr.Payload))
		}
		m := &inMsg{src: fr.Src, tag: fr.Tag, size: len(fr.Payload), payload: fr.Payload, complete: true}
		e.deliver(m)
	case btl.KindRTS:
		m := &inMsg{src: fr.Src, tag: fr.Tag, size: fr.Size, msgID: fr.MsgID}
		e.arrivals = append(e.arrivals, m)
		if h, ok := e.matchPosted(m.src, m.tag); ok {
			e.claim(m, h)
		} else if e.draining {
			// Quiesce: force completion so the cut never captures a
			// half-delivered message.
			m.ctsSent = true
			if err := e.send(btl.Frag{Kind: btl.KindCTS, Dst: m.src, MsgID: m.msgID}); err != nil {
				return err
			}
		}
	case btl.KindCTS:
		r, ok := e.sendPending[fr.MsgID]
		if !ok {
			return fmt.Errorf("pml: CTS for unknown message %d from rank %d", fr.MsgID, fr.Src)
		}
		delete(e.sendPending, fr.MsgID)
		payload := r.payload
		r.payload = nil
		if err := e.send(btl.Frag{Kind: btl.KindData, Dst: fr.Src, MsgID: fr.MsgID, Payload: payload}); err != nil {
			return err
		}
		r.done = true
	case btl.KindData:
		m := e.arrivalByID(fr.MsgID)
		if m == nil {
			return fmt.Errorf("pml: DATA for unknown message %d from rank %d", fr.MsgID, fr.Src)
		}
		m.payload = fr.Payload
		m.complete = true
		if e.hooks != nil {
			e.hooks.MessageArrived(m.src, m.tag, len(fr.Payload))
		}
		if m.claimed != NoRequest {
			r := e.reqs[m.claimed]
			e.removeArrival(m)
			r.done = true
			r.payload = m.payload
			r.status = Status{Source: m.src, Tag: m.tag, Size: m.size}
		}
	default:
		return fmt.Errorf("pml: unexpected fragment kind %v from rank %d", fr.Kind, fr.Src)
	}
	return nil
}

// deliver routes a complete message to the first matching posted
// receive, or stores it on the unexpected queue.
func (e *Engine) deliver(m *inMsg) {
	if h, ok := e.matchPosted(m.src, m.tag); ok {
		r := e.reqs[h]
		r.done = true
		r.payload = m.payload
		r.status = Status{Source: m.src, Tag: m.tag, Size: m.size}
		return
	}
	e.arrivals = append(e.arrivals, m)
}

// matchPosted finds (and removes) the first posted receive matching
// (src, tag), in posting order.
func (e *Engine) matchPosted(src, tag int) (Request, bool) {
	for i, h := range e.posted {
		r := e.reqs[h]
		if r == nil {
			continue
		}
		if (r.src == AnySource || r.src == src) && (r.tag == AnyTag || r.tag == tag) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return h, true
		}
	}
	return NoRequest, false
}

func (e *Engine) arrivalByID(id uint64) *inMsg {
	for _, m := range e.arrivals {
		if m.msgID == id && !m.complete {
			return m
		}
	}
	return nil
}

// --- Quiesce support -----------------------------------------------------

// SetDraining switches the engine's quiesce mode. Turning it on issues
// CTS for every pending incoming rendezvous so the channels settle;
// turning it off re-injects held-back (post-cut) fragments, which by
// construction were pulled off the wire before any fragment still queued
// in the BTL, preserving per-pair FIFO order.
func (e *Engine) SetDraining(on bool) error {
	if on == e.draining {
		return nil
	}
	e.draining = on
	if on {
		for _, m := range e.arrivals {
			if !m.complete && !m.ctsSent {
				m.ctsSent = true
				if err := e.send(btl.Frag{Kind: btl.KindCTS, Dst: m.src, MsgID: m.msgID}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	held := e.holdback
	e.holdback = nil
	for _, fr := range held {
		if err := e.handleFrag(fr); err != nil {
			return err
		}
	}
	return nil
}

// PendingIncomingRendezvous counts arrivals still awaiting payload.
func (e *Engine) PendingIncomingRendezvous() int {
	n := 0
	for _, m := range e.arrivals {
		if !m.complete {
			n++
		}
	}
	return n
}

// PendingOutgoingRendezvous counts local sends still awaiting CTS.
func (e *Engine) PendingOutgoingRendezvous() int { return len(e.sendPending) }

// HeldBack returns the number of post-cut fragments currently buffered
// outside checkpointable state.
func (e *Engine) HeldBack() int { return len(e.holdback) }

// UnexpectedCount returns the number of complete unmatched messages.
func (e *Engine) UnexpectedCount() int {
	n := 0
	for _, m := range e.arrivals {
		if m.complete && m.claimed == NoRequest {
			n++
		}
	}
	return n
}

// --- Image state ----------------------------------------------------------

// SavedMsg is one serialized unexpected message.
type SavedMsg struct {
	Src, Tag, Size int
	Payload        []byte
}

// SavedReq is one serialized request-table entry.
type SavedReq struct {
	Kind    uint8
	Done    bool
	Src     int
	Tag     int
	Size    int
	Payload []byte
}

// SavedState is the engine's contribution to the process image. It must
// only be taken at a quiesced cut: every message is either fully in the
// image (unexpected queue / completed request) or not sent at all.
type SavedState struct {
	Rank, Size int
	EagerLimit int
	NextReq    Request
	NextMsg    uint64
	Unexpected []SavedMsg
	Posted     []Request
	Requests   map[Request]SavedReq
}

// errNotQuiesced is returned by SaveState when channels are not quiet.
var errNotQuiesced = errors.New("pml: engine has in-flight rendezvous; SaveState requires a quiesced cut")

// SaveState extracts the serializable engine state.
func (e *Engine) SaveState() (SavedState, error) {
	if e.PendingIncomingRendezvous() != 0 || e.PendingOutgoingRendezvous() != 0 {
		return SavedState{}, errNotQuiesced
	}
	s := SavedState{
		Rank:       e.rank,
		Size:       e.size,
		EagerLimit: e.eagerLimit,
		NextReq:    e.nextReq,
		NextMsg:    e.nextMsg,
		Requests:   make(map[Request]SavedReq, len(e.reqs)),
	}
	for _, m := range e.arrivals {
		if m.claimed != NoRequest {
			// Claimed-but-incomplete cannot exist post-drain; claimed
			// complete entries are represented via their request.
			continue
		}
		s.Unexpected = append(s.Unexpected, SavedMsg{Src: m.src, Tag: m.tag, Size: m.size, Payload: m.payload})
	}
	s.Posted = append(s.Posted, e.posted...)
	for h, r := range e.reqs {
		s.Requests[h] = SavedReq{
			Kind: uint8(r.kind), Done: r.done,
			Src: r.src, Tag: r.tag,
			Size: r.status.Size, Payload: r.payload,
		}
	}
	return s, nil
}

// RestoreState rebuilds the engine from a saved image. The engine keeps
// its current BTL endpoint (restart attaches a fresh one via Rebind);
// rank and size come from the restored state. It checks the state
// before it changes anything.
func (e *Engine) RestoreState(s SavedState) error {
	if err := s.check(); err != nil {
		return fmt.Errorf("pml: restore: %w", err)
	}
	e.rank = s.Rank
	e.size = s.Size
	if s.EagerLimit > 0 {
		e.eagerLimit = s.EagerLimit
	}
	e.nextReq = s.NextReq
	e.nextMsg = s.NextMsg
	e.arrivals = nil
	e.posted = nil
	e.reqs = make(map[Request]*request, len(s.Requests))
	e.sendPending = make(map[uint64]*request)
	e.draining = false
	e.holdback = nil
	for _, m := range s.Unexpected {
		e.arrivals = append(e.arrivals, &inMsg{src: m.Src, tag: m.Tag, size: m.Size, payload: m.Payload, complete: true})
	}
	for h, sr := range s.Requests {
		r := &request{
			kind: reqKind(sr.Kind), done: sr.Done,
			src: sr.Src, tag: sr.Tag,
			payload: sr.Payload,
		}
		if sr.Done {
			r.status = Status{Source: sr.Src, Tag: sr.Tag, Size: sr.Size}
			if r.kind == reqRecv {
				r.status.Size = len(sr.Payload)
			}
		}
		e.reqs[h] = r
	}
	e.posted = append(e.posted, s.Posted...)
	return nil
}

// check validates what RestoreState relies on: a rank inside the job and
// every posted handle in the request table.
func (s SavedState) check() error {
	if s.Size <= 0 || s.Rank < 0 || s.Rank >= s.Size {
		return fmt.Errorf("invalid rank %d / size %d", s.Rank, s.Size)
	}
	for _, h := range s.Posted {
		if _, ok := s.Requests[h]; !ok {
			return fmt.Errorf("posted receive %d missing from request table", h)
		}
	}
	return nil
}

// The image section of a SavedState, in order (ints are zigzag
// varints, counts and NextMsg uvarints, payloads length-prefixed):
//
//	Rank Size EagerLimit NextReq NextMsg
//	count × unexpected (Src Tag Size Payload)
//	count × posted handle
//	count × request, handle-ascending (Handle Kind Done Src Tag Size Payload)
//
// Kind and Done are single bytes. AppendState and ReadState are the only
// encoding of a SavedState.

// AppendState appends the image encoding of s to b.
func AppendState(b []byte, s SavedState) []byte {
	for _, v := range []int{s.Rank, s.Size, s.EagerLimit, int(s.NextReq)} {
		b = wire.AppendInt(b, v)
	}
	b = binary.AppendUvarint(b, s.NextMsg)
	b = binary.AppendUvarint(b, uint64(len(s.Unexpected)))
	for _, m := range s.Unexpected {
		b = wire.AppendInt(wire.AppendInt(wire.AppendInt(b, m.Src), m.Tag), m.Size)
		b = wire.AppendBytes(b, m.Payload)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Posted)))
	for _, h := range s.Posted {
		b = wire.AppendInt(b, int(h))
	}
	hs := make([]Request, 0, len(s.Requests))
	for h := range s.Requests {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	b = binary.AppendUvarint(b, uint64(len(hs)))
	for _, h := range hs {
		r := s.Requests[h]
		done := byte(0)
		if r.Done {
			done = 1
		}
		b = append(wire.AppendInt(b, int(h)), r.Kind, done)
		b = wire.AppendInt(wire.AppendInt(wire.AppendInt(b, r.Src), r.Tag), r.Size)
		b = wire.AppendBytes(b, r.Payload)
	}
	return b
}

// ReadState decodes the section AppendState wrote. Payloads are copied
// out of the image; errors (including an unknown request kind, a
// repeated handle, and anything RestoreState would refuse) are left in
// r.
func ReadState(r *wire.Reader) SavedState {
	s := SavedState{Rank: r.Int(), Size: r.Int(), EagerLimit: r.Int(), NextReq: Request(r.Int()), NextMsg: r.Uvarint()}
	if n := r.Count(4); n > 0 {
		s.Unexpected = make([]SavedMsg, n)
		for i := range s.Unexpected {
			s.Unexpected[i] = SavedMsg{Src: r.Int(), Tag: r.Int(), Size: r.Int(), Payload: clone(r.Bytes())}
		}
	}
	if n := r.Count(1); n > 0 {
		s.Posted = make([]Request, n)
		for i := range s.Posted {
			s.Posted[i] = Request(r.Int())
		}
	}
	n := r.Count(7)
	s.Requests = make(map[Request]SavedReq, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		h := Request(r.Int())
		q := SavedReq{Kind: r.Byte(), Done: r.Bool(), Src: r.Int(), Tag: r.Int(), Size: r.Int(), Payload: clone(r.Bytes())}
		if _, dup := s.Requests[h]; dup || (q.Kind != uint8(reqSend) && q.Kind != uint8(reqRecv)) {
			r.Failf("request %d: duplicate handle or unknown kind %d", h, q.Kind)
		}
		s.Requests[h] = q
	}
	if err := s.check(); err != nil && r.Err() == nil {
		r.Failf("%v", err)
	}
	return s
}

// clone copies a payload out of the image buffer; empty stays nil.
func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
