// Package btl is the Byte Transfer Layer: the transport fabric beneath
// the PML. The paper's testbed used TCP and InfiniBand; here the fabric
// is an in-process switchboard of per-endpoint fragment queues, which
// preserves the property every layer above depends on — reliable,
// per-pair FIFO delivery of typed fragments — while keeping latency low
// enough that the NetPIPE overhead experiment (R1/R2) measures the C/R
// infrastructure rather than the transport.
//
// The fragment kinds encode the ob1-style wire protocol: eager sends for
// small messages, RTS/CTS/DATA rendezvous for large ones, and CTRL
// fragments that the CRCP coordination protocol uses for its bookmark
// exchange (the paper's coordination services are "allowed to watch the
// network traffic as it moves through the system"), and FRONTIER
// fragments through which ranks agree on the step boundary a pending
// checkpoint is taken at.
package btl

import (
	"errors"
	"fmt"
	"sync"
)

// Kind identifies a fragment's role in the wire protocol.
type Kind uint8

// Fragment kinds.
const (
	// KindEager carries a complete small message: header + payload.
	KindEager Kind = iota + 1
	// KindRTS announces a large message (rendezvous request-to-send);
	// the payload stays on the sender until the receiver clears it.
	KindRTS
	// KindCTS is the receiver's clear-to-send for a pending rendezvous.
	KindCTS
	// KindData carries the payload of a cleared rendezvous.
	KindData
	// KindCtrl carries coordination-protocol control data (e.g. the
	// bookmark exchange); it is never matched against MPI receives.
	KindCtrl
	// KindFrontier carries the OMPI layer's step-frontier agreement:
	// which step boundary the ranks checkpoint at. Like KindCtrl it is
	// never matched, counted by the CRCP protocol or held at a cut.
	KindFrontier
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "EAGER"
	case KindRTS:
		return "RTS"
	case KindCTS:
		return "CTS"
	case KindData:
		return "DATA"
	case KindCtrl:
		return "CTRL"
	case KindFrontier:
		return "FRONTIER"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Frag is one fragment on the wire.
type Frag struct {
	Kind Kind
	// Colour is the sender's checkpoint-cut colour, stamped by the PML
	// on every application fragment: the CRCP protocol tells pre-cut
	// traffic from post-cut traffic by comparing it with its own.
	Colour  uint8
	Src     int    // sender rank
	Dst     int    // receiver rank
	Tag     int    // MPI tag (EAGER/RTS only)
	MsgID   uint64 // sender-unique message id (rendezvous correlation)
	Size    int    // total message size (RTS announces it)
	Seq     uint64 // per (src,dst) sequence number, assigned by the fabric
	Payload []byte
}

// Errors returned by fabric operations.
var (
	// ErrDetached: the endpoint is no longer attached to the fabric.
	ErrDetached = errors.New("btl: endpoint detached")
	// ErrNoPeer: the destination rank has no attached endpoint.
	ErrNoPeer = errors.New("btl: no endpoint for peer")
)

// Fabric connects a set of ranks. It is safe for concurrent use.
type Fabric struct {
	mu  sync.RWMutex
	eps map[int]*Endpoint
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{eps: make(map[int]*Endpoint)}
}

// Attach creates the endpoint for rank. Attaching a rank twice is an
// error; Detach first (restart in a new topology does exactly that).
func (f *Fabric) Attach(rank int) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.eps[rank]; dup {
		return nil, fmt.Errorf("btl: rank %d already attached", rank)
	}
	e := &Endpoint{fabric: f, rank: rank, seqOut: make(map[int]uint64)}
	e.inbox.init()
	f.eps[rank] = e
	return e, nil
}

// Detach removes rank's endpoint, failing its blocked receives. Pending
// queued fragments are dropped with it — they are channel state, which
// is exactly what a checkpoint must not capture.
func (f *Fabric) Detach(rank int) {
	f.mu.Lock()
	e := f.eps[rank]
	delete(f.eps, rank)
	f.mu.Unlock()
	if e != nil {
		e.close()
	}
}

// Attached returns the currently attached ranks.
func (f *Fabric) Attached() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]int, 0, len(f.eps))
	for r := range f.eps {
		out = append(out, r)
	}
	return out
}

func (f *Fabric) lookup(rank int) (*Endpoint, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.eps[rank]
	if !ok {
		return nil, fmt.Errorf("%w: rank %d", ErrNoPeer, rank)
	}
	return e, nil
}

// Endpoint is one rank's attachment to the fabric.
type Endpoint struct {
	inbox
	fabric *Fabric
	rank   int
	seqOut map[int]uint64 // next sequence number per destination (inbox.mu)
}

// Rank returns the endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Send delivers fr to fr.Dst. It never blocks: the fabric is an
// asynchronous, unbounded channel, like a TCP socket with a well-sized
// buffer. The fabric stamps fr.Src and the per-pair sequence number.
func (e *Endpoint) Send(fr Frag) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrDetached
	}
	fr.Src = e.rank
	fr.Seq = e.seqOut[fr.Dst]
	e.seqOut[fr.Dst]++
	e.mu.Unlock()

	dst, err := e.fabric.lookup(fr.Dst)
	if err != nil {
		return err
	}
	if err := dst.push(fr); err != nil {
		return fmt.Errorf("btl: send to rank %d: %w", fr.Dst, err)
	}
	return nil
}
