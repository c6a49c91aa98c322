// Package rml is the ORTE Runtime Messaging Layer: the out-of-band
// control channel connecting the HNP (mpirun), the per-node daemons
// (orteds) and the application coordinators. All SNAPC traffic from the
// paper's Figure 1 — checkpoint requests flowing down, acknowledgements
// and snapshot references flowing up — travels over this layer, kept
// strictly separate from the MPI point-to-point data path.
//
// Messages are tagged; receivers block on (tag) or (tag, sender). The
// router is an in-process switchboard, standing in for ORTE's TCP OOB:
// what matters to the reproduced design is addressing, tagging and
// ordering, all of which are preserved.
//
// The switchboard is built for thousand-endpoint clusters: name
// resolution is sharded so concurrent senders do not serialize on one
// router lock, each mailbox keeps a per-tag queue so a receive scans
// only messages of its own tag, and SendBatch amortizes per-message
// locking when a coordinator fans the same kind of traffic out to (or
// relays it through) many peers at once.
package rml

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/errdef"
	"repro/internal/orte/names"
)

// Tag classifies a message's purpose, like ORTE's RML tags.
type Tag int

// Well-known tags used by the runtime and the SNAPC/FILEM frameworks.
const (
	TagSnapcRequest Tag = iota + 1 // HNP -> orted: initiate local checkpoints
	TagSnapcAck                    // orted -> HNP: local snapshots finished
	TagSnapcApp                    // orted -> app coordinator: checkpoint this proc
	TagSnapcAppAck                 // app coordinator -> orted: done
	TagFilemRequest                // file movement request
	TagFilemAck                    // file movement complete
	TagJobCtl                      // job control (launch, terminate)
	TagCRCP                        // checkpoint coordination control traffic
	TagHeartbeat                   // orted -> HNP: liveness beacon
	TagUser                        // free for tests and tools
)

// Message is one unit of control traffic.
type Message struct {
	From names.Name
	Tag  Tag
	Data []byte
}

// Errors returned by endpoint operations. They alias the shared
// taxonomy in errdef, so errors.Is matches across package boundaries.
var (
	// ErrClosed: the endpoint (or whole router) has shut down.
	ErrClosed = errdef.ErrClosed
	// ErrUnknownPeer: no endpoint is registered under the target name.
	ErrUnknownPeer = errdef.ErrUnknownPeer
	// ErrTimeout: a bounded receive expired.
	ErrTimeout = errdef.ErrTimeout
)

// routerShards fixes the name-table fan-out. Shard count only bounds
// lock contention, not capacity, so a modest power of two is enough for
// the 1k–10k endpoints the simulator runs.
const routerShards = 32

type routerShard struct {
	mu    sync.RWMutex
	boxes map[names.Name]*Endpoint
}

// Router is the in-process switchboard. It is safe for concurrent use.
type Router struct {
	// mu guards closed and the fault-injection hooks; the name table
	// itself lives in the shards so lookups by concurrent senders only
	// contend when their targets hash together.
	mu         sync.RWMutex
	closed     bool
	inject     func(point string) error
	sendInject func(point string) error

	shards [routerShards]routerShard
}

func (r *Router) shard(name names.Name) *routerShard {
	// Knuth multiplicative hash over the (job, vpid) pair; daemons of one
	// job spread across shards because vpid varies.
	h := uint64(uint32(name.Job))*2654435761 + uint64(uint32(name.Vpid))*40503
	return &r.shards[h%routerShards]
}

// SetInject installs a fault-injection hook consulted on every Send at
// point "rml.deliver:<to>". A firing hook drops the message silently —
// the lost-datagram failure mode the coordinator deadlines exist for.
func (r *Router) SetInject(fn func(point string) error) {
	r.mu.Lock()
	r.inject = fn
	r.mu.Unlock()
}

// SetSendInject installs a fault-injection hook consulted on every Send
// at point "rml.send:<to>". Unlike SetInject's silent drop, a firing
// hook here is returned to the sender as a transport error — the flaky
// NIC / transient EHOSTUNREACH failure mode the heartbeat miss budget
// must tolerate without self-declaring the node dead.
func (r *Router) SetSendInject(fn func(point string) error) {
	r.mu.Lock()
	r.sendInject = fn
	r.mu.Unlock()
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	r := &Router{}
	for i := range r.shards {
		r.shards[i].boxes = make(map[names.Name]*Endpoint)
	}
	return r
}

// Register creates the endpoint for name. Registering a name twice is an
// error: runtime entities are unique.
func (r *Router) Register(name names.Name) (*Endpoint, error) {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.boxes[name]; dup {
		return nil, fmt.Errorf("rml: name %v already registered", name)
	}
	e := &Endpoint{router: r, name: name, queues: make(map[Tag][]Message)}
	e.cond = sync.NewCond(&e.mu)
	s.boxes[name] = e
	return e, nil
}

// Deregister removes name's endpoint, failing any blocked receives.
func (r *Router) Deregister(name names.Name) {
	s := r.shard(name)
	s.mu.Lock()
	e := s.boxes[name]
	delete(s.boxes, name)
	s.mu.Unlock()
	if e != nil {
		e.close()
	}
}

// Close shuts the router down, closing every endpoint.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		boxes := make([]*Endpoint, 0, len(s.boxes))
		for _, e := range s.boxes {
			boxes = append(boxes, e)
		}
		s.boxes = make(map[names.Name]*Endpoint)
		s.mu.Unlock()
		for _, e := range boxes {
			e.close()
		}
	}
}

// lookup returns the endpoint for name.
func (r *Router) lookup(name names.Name) (*Endpoint, error) {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	s := r.shard(name)
	s.mu.RLock()
	e, ok := s.boxes[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownPeer, name)
	}
	return e, nil
}

// hooks snapshots the fault-injection hooks.
func (r *Router) hooks() (inject, sendInject func(string) error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.inject, r.sendInject
}

// Endpoint is one entity's mailbox. Receives match by tag (and
// optionally sender); sends are non-blocking and ordered per
// sender/receiver pair, like the OOB TCP channel they stand in for.
// Internally the mailbox keeps one FIFO per tag, so heavy traffic on
// one tag (heartbeats, say) never slows a receive on another.
type Endpoint struct {
	router *Router
	name   names.Name

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[Tag][]Message
	pending int
	closed  bool
}

// Name returns the endpoint's registered name.
func (e *Endpoint) Name() names.Name { return e.name }

func (e *Endpoint) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// deliver enqueues msg, waking blocked receivers. Caller must NOT hold
// e.mu.
func (e *Endpoint) deliver(msg Message) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("rml: send to %v: %w", e.name, ErrClosed)
	}
	e.queues[msg.Tag] = append(e.queues[msg.Tag], msg)
	e.pending++
	e.cond.Broadcast()
	return nil
}

// Send delivers data to the named peer under tag.
func (e *Endpoint) Send(to names.Name, tag Tag, data []byte) error {
	dst, err := e.router.lookup(to)
	if err != nil {
		return err
	}
	inject, sendInject := e.router.hooks()
	if sendInject != nil {
		if err := sendInject(fmt.Sprintf("rml.send:%v", to)); err != nil {
			return fmt.Errorf("rml: send to %v: %w", to, err)
		}
	}
	if inject != nil {
		if err := inject(fmt.Sprintf("rml.deliver:%v", to)); err != nil {
			return nil // silently dropped in flight, like a lost datagram
		}
	}
	return dst.deliver(Message{From: e.name, Tag: tag, Data: data})
}

// SendJSON marshals v as JSON and sends it.
func (e *Endpoint) SendJSON(to names.Name, tag Tag, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rml: marshal for %v tag %d: %w", to, tag, err)
	}
	return e.Send(to, tag, data)
}

// Outgoing is one element of a SendBatch: a (destination, tag, payload)
// triple.
type Outgoing struct {
	To   names.Name
	Tag  Tag
	Data []byte
}

// JSONOutgoing marshals v into an Outgoing, for building SendBatch
// argument slices.
func JSONOutgoing(to names.Name, tag Tag, v any) (Outgoing, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return Outgoing{}, fmt.Errorf("rml: marshal for %v tag %d: %w", to, tag, err)
	}
	return Outgoing{To: to, Tag: tag, Data: data}, nil
}

// SendBatch delivers a fan-out of messages, resolving each distinct
// destination once and taking each destination mailbox's lock once no
// matter how many messages it receives. Per-destination message order
// follows slice order, and the fault-injection hooks fire per message
// with the same semantics as Send. Delivery is attempted for every
// element even after a failure. SendBatch returns the destinations it
// could not send to and an error joining their failures (nil if all
// delivered or dropped in flight: a drop is indistinguishable from a
// delivery, like the lost datagram it models).
func (e *Endpoint) SendBatch(msgs []Outgoing) (failed []names.Name, err error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	inject, sendInject := e.router.hooks()
	var errs []error
	fail := func(to names.Name, err error) {
		if len(failed) == 0 || failed[len(failed)-1] != to {
			failed = append(failed, to)
		}
		errs = append(errs, err)
	}
	// Group into per-destination runs without disturbing slice order:
	// index lists per destination, then one lookup + one delivery batch
	// per destination.
	order := make([]names.Name, 0, 8)
	byDst := make(map[names.Name][]int, 8)
	for i, m := range msgs {
		if _, seen := byDst[m.To]; !seen {
			order = append(order, m.To)
		}
		byDst[m.To] = append(byDst[m.To], i)
	}
	for _, to := range order {
		dst, err := e.router.lookup(to)
		if err != nil {
			fail(to, err)
			continue
		}
		batch := make([]Message, 0, len(byDst[to]))
		for _, i := range byDst[to] {
			m := msgs[i]
			if sendInject != nil {
				if err := sendInject(fmt.Sprintf("rml.send:%v", to)); err != nil {
					fail(to, fmt.Errorf("rml: send to %v: %w", to, err))
					continue
				}
			}
			if inject != nil {
				if err := inject(fmt.Sprintf("rml.deliver:%v", to)); err != nil {
					continue // silently dropped in flight
				}
			}
			batch = append(batch, Message{From: e.name, Tag: m.Tag, Data: m.Data})
		}
		if len(batch) == 0 {
			continue
		}
		dst.mu.Lock()
		if dst.closed {
			dst.mu.Unlock()
			fail(to, fmt.Errorf("rml: send to %v: %w", to, ErrClosed))
			continue
		}
		for _, msg := range batch {
			dst.queues[msg.Tag] = append(dst.queues[msg.Tag], msg)
		}
		dst.pending += len(batch)
		dst.cond.Broadcast()
		dst.mu.Unlock()
	}
	return failed, errors.Join(errs...)
}

// match finds and removes the first queued message under tag satisfying
// pred (nil pred matches any). Caller holds e.mu.
func (e *Endpoint) matchLocked(tag Tag, pred func(Message) bool) (Message, bool) {
	q := e.queues[tag]
	for i, m := range q {
		if pred == nil || pred(m) {
			e.queues[tag] = append(q[:i:i], q[i+1:]...)
			e.pending--
			return m, true
		}
	}
	return Message{}, false
}

// recv blocks until a message under tag matching pred arrives, the
// endpoint closes, or the deadline (if nonzero) passes.
func (e *Endpoint) recv(tag Tag, pred func(Message) bool, timeout time.Duration) (Message, error) {
	var timer *time.Timer
	expired := false
	if timeout > 0 {
		timer = time.AfterFunc(timeout, func() {
			e.mu.Lock()
			expired = true
			e.cond.Broadcast()
			e.mu.Unlock()
		})
		defer timer.Stop()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if m, ok := e.matchLocked(tag, pred); ok {
			return m, nil
		}
		if e.closed {
			return Message{}, ErrClosed
		}
		if expired {
			return Message{}, fmt.Errorf("rml: recv on %v: %w", e.name, ErrTimeout)
		}
		e.cond.Wait()
	}
}

// Recv blocks for the next message with the given tag from any sender.
func (e *Endpoint) Recv(tag Tag) (Message, error) {
	return e.recv(tag, nil, 0)
}

// RecvTimeout is Recv with an upper bound on the wait.
func (e *Endpoint) RecvTimeout(tag Tag, timeout time.Duration) (Message, error) {
	return e.recv(tag, nil, timeout)
}

// RecvFrom blocks for the next message with the given tag from a
// specific sender.
func (e *Endpoint) RecvFrom(from names.Name, tag Tag) (Message, error) {
	return e.recv(tag, func(m Message) bool { return m.From == from }, 0)
}

// RecvWhere blocks for the next message with the given tag satisfying
// pred, leaving non-matching messages queued for other receivers. This
// is how concurrent coordinators share one mailbox: when several jobs'
// capture acks interleave on the HNP endpoint, each coordinator matches
// only its own job's traffic (typically by decoding a header out of
// Message.Data) instead of stealing a sibling's.
func (e *Endpoint) RecvWhere(tag Tag, pred func(Message) bool, timeout time.Duration) (Message, error) {
	return e.recv(tag, pred, timeout)
}

// RecvJSON receives the next message with tag and unmarshals it into v,
// returning the sender.
func (e *Endpoint) RecvJSON(tag Tag, v any) (names.Name, error) {
	m, err := e.Recv(tag)
	if err != nil {
		return names.Name{}, err
	}
	if err := json.Unmarshal(m.Data, v); err != nil {
		return m.From, fmt.Errorf("rml: unmarshal tag %d from %v: %w", tag, m.From, err)
	}
	return m.From, nil
}

// Pending returns the number of queued, unreceived messages.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}
