// Package crcp implements the paper's OMPI CRCP framework (§5.3, §6.3):
// the distributed checkpoint/restart coordination protocol. A local
// checkpointer cannot capture the state of communication channels, so a
// higher-level protocol must drive every process to a point where the
// collection of local snapshots forms a consistent global state (a
// Chandy/Lamport-consistent cut).
//
// Each component implements one protocol. Components bind to the PML as
// a wrapper (pml.Hooks), observing every message before and after the
// real PML processes it — exactly the paper's wrapper-PML arrangement —
// which lets researchers swap protocols with one MCA parameter while
// everything else stays constant.
//
// Two components are provided:
//
//   - none: a passthrough wrapper. It adds the infrastructure's
//     indirection to every message but performs no coordination; it is
//     the configuration the paper used to measure the overhead of the
//     framework itself (the NetPIPE experiment).
//   - bkmrk: the LAM/MPI-like coordinated protocol (paper §6.3), a
//     bookmark exchange refined to operate on whole messages instead of
//     bytes. See bkmrk.go.
package crcp

import (
	"encoding/binary"
	"slices"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/pml"
	"repro/internal/opal/inc"
	"repro/internal/opal/wire"
	"repro/internal/trace"
)

// FrameworkName is the MCA selection parameter for this framework.
const FrameworkName = "crcp"

// Protocol is the per-process instance of a coordination protocol, bound
// to one PML engine. It is the PML's wrapper (pml.Hooks) plus the
// checkpoint lifecycle driven through ft_event, plus state capture for
// the process image.
type Protocol interface {
	pml.Hooks
	// FTEvent receives the checkpoint/continue/restart/error
	// notifications. StateCheckpoint must leave the channels quiesced:
	// when it returns, the engine's state is a consistent cut.
	FTEvent(s inc.State) error
	// Save serializes protocol state (e.g. bookmark counters) for
	// inclusion in the process image.
	Save() ([]byte, error)
	// Restore re-instates protocol state from a process image.
	Restore(data []byte) error
}

// EncodeBookmarks is the image form of a protocol's channel bookmarks,
// the per-peer counts of whole messages sent and fully received at the
// quiesced cut: a uvarint count, then one (peer, sent, recvd) uvarint
// triple per peer with a non-zero count, peers ascending. The recovery
// coordinator reads it back with DecodeBookmarks to re-knit channels.
func EncodeBookmarks(sent, recvd map[int]uint64) []byte {
	peers := make([]int, 0, len(sent)+len(recvd))
	for q, c := range sent {
		if c != 0 {
			peers = append(peers, q)
		}
	}
	for q, c := range recvd {
		if c != 0 && sent[q] == 0 {
			peers = append(peers, q)
		}
	}
	slices.Sort(peers)
	b := binary.AppendUvarint(make([]byte, 0, 1+6*len(peers)), uint64(len(peers)))
	for _, q := range peers {
		b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, uint64(q)), sent[q]), recvd[q])
	}
	return b
}

// DecodeBookmarks accepts exactly EncodeBookmarks' output. Empty data
// (the none protocol saves no state) decodes to no counts.
func DecodeBookmarks(data []byte) (sent, recvd map[int]uint64, err error) {
	r, n := wire.NewReader(data), 0
	if len(data) > 0 {
		n = r.Count(3)
	}
	sent, recvd = make(map[int]uint64, n), make(map[int]uint64, n)
	for i, prev := 0, -1; i < n && r.Err() == nil; i++ {
		q, s, c := r.Uvarint(), r.Uvarint(), r.Uvarint()
		if r.Err() == nil && (q > 1<<31 || int(q) <= prev || s == 0 && c == 0) {
			r.Failf("triple %d (peer %d) out of order or empty", i, q)
		}
		if prev = int(q); s != 0 {
			sent[prev] = s
		}
		if c != 0 {
			recvd[prev] = c
		}
	}
	return sent, recvd, r.Close()
}

// Component is a CRCP implementation: a factory for per-process
// protocol instances.
type Component interface {
	mca.Component
	// Wrap binds a protocol instance to eng, configured by params and
	// observed through ins (trace events, quiesce spans, drain metrics).
	// ins may be nil: protocols run silent without it.
	Wrap(eng *pml.Engine, params *mca.Params, ins *trace.Instrumentation) Protocol
}

// NewFramework returns the CRCP framework with the built-in components:
// bkmrk (coordinated bookmark exchange, default) and none (passthrough).
func NewFramework() *mca.Framework[Component] {
	f := mca.NewFramework[Component](FrameworkName)
	f.MustRegister(&NoneComponent{})
	f.MustRegister(&BkmrkComponent{})
	return f
}

// NoneComponent builds passthrough protocols.
type NoneComponent struct{}

// Name implements mca.Component.
func (*NoneComponent) Name() string { return "none" }

// Priority implements mca.Component.
func (*NoneComponent) Priority() int { return 10 }

// Wrap implements Component.
func (*NoneComponent) Wrap(eng *pml.Engine, params *mca.Params, ins *trace.Instrumentation) Protocol {
	return &noneProto{}
}

var _ Component = (*NoneComponent)(nil)

// noneProto is the passthrough wrapper: every hook is a no-op, but every
// message still pays the wrapper indirection — the cost the paper's
// NetPIPE comparison quantifies.
type noneProto struct{}

func (*noneProto) MessageSent(dst, tag, size int)    {}
func (*noneProto) MessageArrived(src, tag, size int) {}
func (*noneProto) CtrlFrag(fr btl.Frag) error        { return nil }
func (*noneProto) HoldFrag(fr btl.Frag) bool         { return false }
func (*noneProto) FTEvent(s inc.State) error         { return nil }
func (*noneProto) Save() ([]byte, error)             { return nil, nil }
func (*noneProto) Restore(data []byte) error         { return nil }

var _ Protocol = (*noneProto)(nil)
