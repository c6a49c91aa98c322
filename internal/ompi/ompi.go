// Package ompi is the OMPI layer: the user-facing MPI-style library tying
// together the PML (point-to-point), collectives, the CRCP wrapper and
// the checkpoint/restart plumbing the paper adds to it.
//
// A Proc is one MPI application process. Its lifecycle follows the
// paper's Figure 2:
//
//   - the application registers named state, SELF callbacks and
//     optionally its own interlayer notification callback (INC);
//   - MPI_INIT (Run) enables checkpointing via the OPAL gate;
//   - when a checkpoint directive arrives (asynchronously from the SNAPC
//     application coordinator, or synchronously via Checkpoint), the
//     process enters the OPAL entry point: the INC stack is called with
//     StateCheckpoint (application first, then OMPI — where the CRCP
//     protocol quiesces the channels and the PML/coll subsystems get
//     their ft_event — then ORTE, then OPAL), the CRS component captures
//     the process, and the stack is called again with the resulting
//     state (Continue or, on a restore, Restart);
//   - MPI_FINALIZE (the end of Run) marks the process non-checkpointable
//     and disables the gate.
//
// The process's place in this lifecycle is one Phase, written only by
// transition on the Run goroutine; the runtime reads it (Status, Watch)
// and keeps no copy.
//
// Applications are step-structured (the App interface): checkpoint
// directives are honored at step boundaries, which is where a restarted
// process resumes. This is the Go substitution for BLCR's ability to
// freeze a process at an arbitrary instruction; see DESIGN.md. In-flight
// messages, posted receives, request handles and collective sequence
// numbers all survive a checkpoint, so steps may freely leave
// communication crossing a boundary via nonblocking operations.
package ompi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/coll"
	"repro/internal/ompi/crcp"
	"repro/internal/ompi/pml"
	"repro/internal/opal/crs"
	"repro/internal/opal/inc"
	"repro/internal/opal/wire"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// App is a step-structured MPI application.
type App interface {
	// Setup registers state (RegisterState), callbacks and INCs. It is
	// called on fresh start and again on restart before the image is
	// restored, so it must register the same state names with zero
	// values and must not perform communication.
	Setup(p *Proc) error
	// Step performs one unit of work, returning done=true when the
	// application is finished. Checkpoints are taken between Steps.
	Step(p *Proc) (done bool, err error)
}

// FuncApp adapts plain functions to App.
type FuncApp struct {
	SetupFn func(p *Proc) error
	StepFn  func(p *Proc) (bool, error)
}

// Setup implements App.
func (a FuncApp) Setup(p *Proc) error {
	if a.SetupFn == nil {
		return nil
	}
	return a.SetupFn(p)
}

// Step implements App.
func (a FuncApp) Step(p *Proc) (bool, error) {
	if a.StepFn == nil {
		return true, nil
	}
	return a.StepFn(p)
}

// Directive is one checkpoint order delivered to a process by the SNAPC
// application coordinator (or generated by a synchronous request).
type Directive struct {
	Interval  int
	FS        vfs.FS // node-local filesystem to write the snapshot on
	Dir       string // local snapshot directory on FS
	Terminate bool   // checkpoint-and-terminate

	// Result carries the participation outcome back to the coordinator.
	Result chan ParticipationResult

	delivered time.Time // stamped by Deliver; FrontierNS counts from here
}

// ParticipationResult reports one process's local checkpoint.
type ParticipationResult struct {
	Rank      int
	Component string   // CRS component used
	Files     []string // payload files written
	Err       error
	// FrontierNS is how long the directive waited, from its delivery to
	// this rank, for the step frontier the job checkpoints at. QuiesceNS
	// is how long this rank spent in checkpoint preparation — dominated
	// by the CRCP quiesce/drain — and CaptureNS how long the CRS capture
	// of the process image took. All three feed the interval's
	// PhaseBreakdown (paper §6's per-phase cost decomposition).
	FrontierNS int64
	QuiesceNS  int64
	CaptureNS  int64
}

// RestoreSpec tells Run to restore from a local snapshot before stepping.
type RestoreSpec struct {
	FS    vfs.FS
	Dir   string
	Files []string
	// Release, when set, drops a copy staged for this restore alone; the
	// process calls it once the restore has read the snapshot.
	Release func()
}

// Errors returned by Proc operations.
var (
	// ErrFinalized: an MPI call was made after finalize.
	ErrFinalized = errors.New("ompi: process is finalized")
	// ErrNoRuntime: a synchronous checkpoint was requested but no
	// runtime callback is wired (standalone Proc).
	ErrNoRuntime = errors.New("ompi: no runtime attached for checkpoint requests")
)

// Config assembles a Proc.
type Config struct {
	JobID int
	Rank  int
	Size  int
	Node  string
	PID   int

	Fabric btl.JobFabric
	Params *mca.Params
	CRS    crs.Component
	CRCP   crcp.Component
	// Ins observes the process: trace events, checkpoint-phase spans,
	// and metrics. Optional (nil runs silent).
	Ins *trace.Instrumentation

	// SyncCheckpoint asks the runtime's global coordinator for a
	// job-wide checkpoint (the synchronous API path). Optional.
	SyncCheckpoint func() error
	// Recover, when set, is consulted after a communication failure ends
	// the step loop: it blocks until the runtime's recovery coordinator
	// issues a RecoverOrder (roll back in place and resume) or returns an
	// error (this rank must die; the job falls back to whole-job
	// restart). Optional — without it any failure is fatal, the pre-
	// recovery behavior.
	Recover func(cause error) (*RecoverOrder, error)
	// RecoveryGate, when set on a rank respawned by the recovery
	// coordinator, reports the restored channel bookmarks (and any
	// restore error) after the pre-step restore and blocks until the
	// session is released. Optional.
	RecoveryGate func(bookmarks []byte, restoreErr error) error
}

// Proc is one MPI process. All MPI-facing methods must be called from
// the application goroutine; Deliver may be called from any goroutine.
type Proc struct {
	cfg  Config
	ep   btl.Port // written under mu: Deliver reports for the rank through it
	eng  *pml.Engine
	coll *coll.Coll
	prot crcp.Protocol
	gate *crs.Gate
	incs *inc.Stack
	ins  *trace.Instrumentation
	log  *trace.Log // ins's event sink, kept handy for Emit call sites

	states        map[string]*appState
	headSize      int             // head room plus library header of the last image, to size the next reserve
	stateSize     int             // length of the last app-state table, to size the next one
	ahead         chan stateTable // the app-state table encodeAhead is encoding, or nil
	selfCbs       *crs.SelfCallbacks
	restarted     bool
	ckpts         int    // completed checkpoint participations this run
	termRequested bool   // a terminate directive was honored mid-step
	lastBookmarks []byte // CRCP counters at the most recent restored cut

	directives chan *Directive
	front      frontier // step-frontier agreement state (frontier.go)
	mu         sync.Mutex
	inSync     bool          // inside Checkpoint, which takes its directive inline (mu)
	status     Status        // written only by transition (mu)
	changed    chan struct{} // closed and replaced by each transition (mu)
	fence      int64         // directives with Interval <= fence are refused (mu)
}

// Phase is where a process is in its lifecycle: launching → stepping ⇄
// recovering → finalizing → exited (a failed finalize barrier may also
// enter recovering). Only a stepping process has the gate open, so only
// it is checkpointable.
type Phase int8

const (
	PhaseLaunching  Phase = iota // Setup and any restore; MPI_INIT not complete
	PhaseStepping                // between MPI_INIT and MPI_FINALIZE
	PhaseRecovering              // a communication failure stopped the step loop
	PhaseFinalizing              // MPI_FINALIZE has begun
	PhaseExited                  // Run has returned; Status.Err holds its result
)

// Status is a process's lifecycle state: its phase and, once exited,
// the error Run returned.
type Status struct {
	Phase Phase
	Err   error
}

// NewProc attaches a process to the fabric and wires the INC stack.
func NewProc(cfg Config) (*Proc, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("ompi: invalid rank %d / size %d", cfg.Rank, cfg.Size)
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("ompi: no fabric")
	}
	if cfg.CRS == nil {
		cfg.CRS = &crs.SimCR{}
	}
	if cfg.CRCP == nil {
		cfg.CRCP = &crcp.BkmrkComponent{}
	}
	ep, err := cfg.Fabric.Attach(cfg.Rank)
	if err != nil {
		return nil, fmt.Errorf("ompi: attach rank %d: %w", cfg.Rank, err)
	}
	p := &Proc{
		cfg:        cfg,
		ep:         ep,
		gate:       crs.NewGate(),
		incs:       &inc.Stack{},
		ins:        cfg.Ins,
		log:        cfg.Ins.TraceLog(),
		states:     make(map[string]*appState),
		directives: make(chan *Directive, 4),
		changed:    make(chan struct{}),
		fence:      -1,
	}
	p.eng = pml.New(pml.Config{
		Rank: cfg.Rank, Size: cfg.Size, Endpoint: ep,
		EagerLimit: int(cfg.Params.Bytes("pml_eager_limit", int64(pml.DefaultEagerLimit))),
	})
	p.prot = cfg.CRCP.Wrap(p.eng, cfg.Params, cfg.Ins)
	p.eng.SetHooks(p.prot)
	p.front.reset(cfg.Size)
	p.eng.SetFrontier(p.onFrontier)
	p.coll = coll.New(p.eng)

	// Build the INC stack bottom-up: OPAL, ORTE, OMPI. The application
	// may push its own on top via RegisterINC. Within the OMPI layer the
	// coordination protocol is notified before any MPI subsystem
	// (paper §5.3 ordering requirement); only the app-state encoding is
	// started ahead of it, to run beside the quiesce.
	p.incs.Register(inc.LayerCallback("opal", []inc.FTEventer{p.ftLogger("opal")}, nil))
	p.pushLayer("orte", []inc.FTEventer{p.ftLogger("orte")})
	p.pushLayer("ompi", []inc.FTEventer{p.encodeAhead(), p.prot, p.pmlFT(), p.collFT()})
	return p, nil
}

// pushLayer registers a LayerCallback wrapping the previous top.
func (p *Proc) pushLayer(name string, subs []inc.FTEventer) {
	var prev inc.Callback
	prev = p.incs.Register(inc.LayerCallback(name, subs, func(s inc.State) error {
		return prev(s)
	}))
}

// ftLogger emits trace events and counts ft_event deliveries for a
// layer, so the INC fan-out is visible in /metrics.
func (p *Proc) ftLogger(layer string) inc.FTEventer {
	return inc.FTEventFunc(func(s inc.State) error {
		p.log.Emit(p.source(), "inc."+layer, "%v", s)
		p.ins.Counter("ompi_inc_ft_events_total").Inc()
		return nil
	})
}

// pmlFT is the PML's ft_event: nothing to do on checkpoint (the CRCP
// quiesce already settled the engine); on restart the runtime has
// already rebound the endpoint, so just record it.
func (p *Proc) pmlFT() inc.FTEventer {
	return inc.FTEventFunc(func(s inc.State) error {
		p.log.Emit(p.source(), "inc.pml", "%v", s)
		return nil
	})
}

// collFT is the collective module's ft_event.
func (p *Proc) collFT() inc.FTEventer {
	return inc.FTEventFunc(func(s inc.State) error {
		p.log.Emit(p.source(), "inc.coll", "%v", s)
		return nil
	})
}

func (p *Proc) source() string { return fmt.Sprintf("ompi[%d]", p.cfg.Rank) }

// --- Application-facing API ------------------------------------------------

// Rank returns this process's rank in the world communicator.
func (p *Proc) Rank() int { return p.cfg.Rank }

// Size returns the world communicator size.
func (p *Proc) Size() int { return p.cfg.Size }

// Node returns the name of the node the process runs on.
func (p *Proc) Node() string { return p.cfg.Node }

// Restarted reports whether this process was restored from a snapshot.
func (p *Proc) Restarted() bool { return p.restarted }

// StateHints carries the paper's §6.4 future-work refinement: memory
// inclusion/exclusion hints for checkpointers that support them (libckpt
// memory exclusion, cited as [17]). Excluded state is not captured in
// the process image — appropriate for scratch buffers the application
// can rebuild — and after a restart it holds whatever zero value Setup
// registered.
type StateHints struct {
	// Exclude keeps this state out of the image.
	Exclude bool
}

// appState is one registered state: the application's pointer and the
// codec for what it points to.
type appState struct {
	ptr     reflect.Value
	codec   *wire.Codec
	exclude bool
}

// RegisterState registers a named pointer as part of the process image —
// the analogue of living in BLCR's captured address space. Must be
// called in Setup, before any restore. The pointee may be built from
// bools, numbers, strings, slices, arrays, maps, pointers and structs;
// only exported struct fields are captured, and a restore sets the whole
// pointee, so unexported fields come back zero. Interfaces, channels,
// functions, complex numbers and structs with no exported fields (such
// as time.Time) are refused here, with the path to the field.
func (p *Proc) RegisterState(name string, ptr any) error {
	return p.RegisterStateHinted(name, ptr, StateHints{})
}

// RegisterStateHinted is RegisterState with inclusion/exclusion hints.
func (p *Proc) RegisterStateHinted(name string, ptr any, h StateHints) error {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("ompi: RegisterState(%q): want a non-nil pointer, got %T", name, ptr)
	}
	if _, dup := p.states[name]; dup {
		return fmt.Errorf("ompi: RegisterState(%q): duplicate name", name)
	}
	c, err := wire.CodecFor(v.Type().Elem())
	if err != nil {
		return fmt.Errorf("ompi: RegisterState(%q): %w", name, err)
	}
	p.states[name] = &appState{ptr: v, codec: c, exclude: h.Exclude}
	return nil
}

// RegisterSelfCallbacks installs the SELF checkpointer's application
// callbacks (used when the CRS component is "self").
func (p *Proc) RegisterSelfCallbacks(cbs *crs.SelfCallbacks) { p.selfCbs = cbs }

// RegisterINC pushes an application interlayer notification callback,
// returning the previously registered one. Per the paper's contract the
// new INC must invoke the previous callback from within its own body.
// Registered state is captured as it stands when that call reaches the
// OMPI layer (its encoding starts there, beside the quiesce), so an INC
// prepares its state for a checkpoint before calling down and leaves
// it alone until the call returns.
func (p *Proc) RegisterINC(cb inc.Callback) inc.Callback {
	return p.incs.Register(cb)
}

// guarded wraps an MPI operation in the OPAL gate so it cannot overlap a
// checkpoint window. It reads the phase without the lock: MPI calls run
// on the application goroutine, the only one that writes it.
func guarded[T any](p *Proc, op func() (T, error)) (T, error) {
	var zero T
	if p.status.Phase >= PhaseFinalizing {
		return zero, ErrFinalized
	}
	p.gate.Enter()
	defer p.gate.Exit()
	return op()
}

// Send sends data to rank dst with the given (non-negative) tag.
func (p *Proc) Send(dst, tag int, data []byte) error {
	_, err := guarded(p, func() (struct{}, error) {
		if tag < 0 {
			return struct{}{}, fmt.Errorf("ompi: negative tags are reserved (got %d)", tag)
		}
		return struct{}{}, p.eng.Send(dst, tag, data)
	})
	return err
}

// Recv receives a message matching (src, tag); wildcards AnySource and
// AnyTag are permitted.
func (p *Proc) Recv(src, tag int) ([]byte, pml.Status, error) {
	type rr struct {
		data []byte
		st   pml.Status
	}
	r, err := guarded(p, func() (rr, error) {
		data, st, err := p.eng.Recv(src, tag)
		return rr{data, st}, err
	})
	return r.data, r.st, err
}

// Isend starts a nonblocking send; the handle survives checkpoints.
func (p *Proc) Isend(dst, tag int, data []byte) (pml.Request, error) {
	return guarded(p, func() (pml.Request, error) {
		if tag < 0 {
			return pml.NoRequest, fmt.Errorf("ompi: negative tags are reserved (got %d)", tag)
		}
		return p.eng.Isend(dst, tag, data)
	})
}

// Irecv posts a nonblocking receive; the handle survives checkpoints.
func (p *Proc) Irecv(src, tag int) (pml.Request, error) {
	return guarded(p, func() (pml.Request, error) { return p.eng.Irecv(src, tag) })
}

// Wait completes a request, returning the payload for receives.
func (p *Proc) Wait(h pml.Request) ([]byte, pml.Status, error) {
	type rr struct {
		data []byte
		st   pml.Status
	}
	r, err := guarded(p, func() (rr, error) {
		data, st, err := p.eng.Wait(h)
		return rr{data, st}, err
	})
	return r.data, r.st, err
}

// Test polls a request for completion.
func (p *Proc) Test(h pml.Request) (bool, []byte, pml.Status, error) {
	type rr struct {
		done bool
		data []byte
		st   pml.Status
	}
	r, err := guarded(p, func() (rr, error) {
		done, data, st, err := p.eng.Test(h)
		return rr{done, data, st}, err
	})
	return r.done, r.data, r.st, err
}

// Waitall completes every request in hs.
func (p *Proc) Waitall(hs []pml.Request) error {
	_, err := guarded(p, func() (struct{}, error) { return struct{}{}, p.eng.Waitall(hs) })
	return err
}

// Probe blocks until a matching message is available.
func (p *Proc) Probe(src, tag int) (pml.Status, error) {
	return guarded(p, func() (pml.Status, error) { return p.eng.Probe(src, tag) })
}

// Iprobe polls for a matching message.
func (p *Proc) Iprobe(src, tag int) (pml.Status, bool, error) {
	type rr struct {
		st pml.Status
		ok bool
	}
	r, err := guarded(p, func() (rr, error) {
		st, ok, err := p.eng.Iprobe(src, tag)
		return rr{st, ok}, err
	})
	return r.st, r.ok, err
}

// Barrier blocks until all ranks arrive.
func (p *Proc) Barrier() error {
	_, err := guarded(p, func() (struct{}, error) { return struct{}{}, p.coll.Barrier() })
	return err
}

// Bcast broadcasts root's data to all ranks.
func (p *Proc) Bcast(root int, data []byte) ([]byte, error) {
	return guarded(p, func() ([]byte, error) { return p.coll.Bcast(root, data) })
}

// Reduce folds contributions at root.
func (p *Proc) Reduce(root int, data []byte, op coll.Op) ([]byte, error) {
	return guarded(p, func() ([]byte, error) { return p.coll.Reduce(root, data, op) })
}

// Allreduce folds contributions and distributes the result to all ranks.
func (p *Proc) Allreduce(data []byte, op coll.Op) ([]byte, error) {
	return guarded(p, func() ([]byte, error) { return p.coll.Allreduce(data, op) })
}

// Gather collects contributions at root, indexed by rank.
func (p *Proc) Gather(root int, data []byte) ([][]byte, error) {
	return guarded(p, func() ([][]byte, error) { return p.coll.Gather(root, data) })
}

// Scatter distributes root's per-rank blocks.
func (p *Proc) Scatter(root int, blocks [][]byte) ([]byte, error) {
	return guarded(p, func() ([]byte, error) { return p.coll.Scatter(root, blocks) })
}

// Allgather gives every rank all contributions, indexed by rank.
func (p *Proc) Allgather(data []byte) ([][]byte, error) {
	return guarded(p, func() ([][]byte, error) { return p.coll.Allgather(data) })
}

// Alltoall exchanges per-rank blocks between all ranks.
func (p *Proc) Alltoall(blocks [][]byte) ([][]byte, error) {
	return guarded(p, func() ([][]byte, error) { return p.coll.Alltoall(blocks) })
}

// Checkpoint synchronously requests a global checkpoint (the paper's
// common API for synchronous requests) and participates in it before
// returning. It is collective: every rank must call it at the same
// logical point, which is what gives the resulting snapshot a uniform
// application frontier (the analogue of LAM-style SELF checkpoints taken
// at application barriers).
func (p *Proc) Checkpoint() error {
	if p.cfg.SyncCheckpoint == nil {
		return ErrNoRuntime
	}
	p.setInSync(true)
	defer p.setInSync(false)
	// Collective entry: ensures all ranks are here before the request.
	if _, err := p.Allreduce(coll.Int64sToBytes([]int64{1}), coll.SumInt64); err != nil {
		return fmt.Errorf("ompi: synchronous checkpoint entry: %w", err)
	}
	if p.cfg.Rank == 0 {
		if err := p.cfg.SyncCheckpoint(); err != nil {
			return fmt.Errorf("ompi: synchronous checkpoint request: %w", err)
		}
	}
	// Wait for our own directive and participate inline. An external
	// checkpoint-and-terminate may race the synchronous request and win;
	// participate either way and let the step driver honor the
	// termination at the next boundary.
	select {
	case d := <-p.directives:
		p.participate(d)
		if d.Terminate {
			p.termRequested = true
		}
		return nil
	case <-time.After(time.Minute):
		return fmt.Errorf("ompi: synchronous checkpoint: directive never arrived")
	}
}

// --- Runtime-facing API ------------------------------------------------------

func (p *Proc) setInSync(on bool) {
	p.mu.Lock()
	p.inSync = on
	p.mu.Unlock()
}

// Deliver hands the process a checkpoint directive: the queued directive
// arms the process, and Deliver reports the process's next boundary to
// the frontier agreement on its behalf, whatever the application
// goroutine is doing. Safe to call from the application coordinator
// goroutine. Once the process can no longer honour one (recovering,
// finalizing or exited), the directive is answered immediately with an
// error instead of queueing forever: a local coordinator must never hang
// on it.
func (p *Proc) Deliver(d *Directive) {
	d.delivered = time.Now()
	for {
		p.mu.Lock()
		// A directive at or below the fence belongs to an interval
		// allocated before an in-job recovery completed: its global
		// coordinator has abandoned it. Refusing it (rather than queueing
		// it) keeps a late-arriving order from dragging the rebuilt job
		// into a checkpoint nobody is collecting.
		if p.status.Phase >= PhaseRecovering || int64(d.Interval) <= p.fence {
			p.refuse(d)
			p.mu.Unlock()
			return
		}
		// Enqueue without blocking under the lock: if the queue is
		// momentarily full, release and retry so a transition can never
		// deadlock against a blocked sender.
		select {
		case p.directives <- d:
			// A synchronous Checkpoint takes its directive inline; no
			// agreement is opened for it.
			var b int64
			report := !p.inSync
			if report {
				b, report = p.front.claim()
			}
			ep := p.ep
			p.mu.Unlock()
			if report {
				// A failed send only means the port is gone; the rank then
				// leaves stepping and refuses the directive.
				_ = ep.Send(btl.Frag{Kind: btl.KindFrontier, Dst: 0, Payload: encodeFrontier(frontierReport, b)})
			}
			return
		default:
		}
		p.mu.Unlock()
		runtime.Gosched()
	}
}

// FenceDirectives refuses every queued directive and every future
// delivery whose interval is <= iv. Called at in-job recovery
// completion, before the parked ranks are released: interval numbers
// are never reused, and no capture can pass the checkpointable
// precheck until the ranks re-arm after release, so every interval
// allocated up to this instant is either committed, aborted, or
// abandoned by the failure — none of their directives may reach the
// rebuilt job's step boundaries.
func (p *Proc) FenceDirectives(iv int) {
	p.mu.Lock()
	if int64(iv) > p.fence {
		p.fence = int64(iv)
	}
	p.refuseQueued()
	p.mu.Unlock()
}

// refuseQueued refuses every directive already queued. The caller
// holds mu.
func (p *Proc) refuseQueued() {
	for {
		select {
		case d := <-p.directives:
			p.refuse(d)
		default:
			return
		}
	}
}

// refuse answers a directive the process will not honour.
func (p *Proc) refuse(d *Directive) {
	if d.Result != nil {
		d.Result <- ParticipationResult{
			Rank: p.cfg.Rank, Component: p.cfg.CRS.Name(),
			Err: fmt.Errorf("%w: rank %d cannot participate", ErrFinalized, p.cfg.Rank),
		}
	}
}

// Status returns the process's lifecycle state.
func (p *Proc) Status() Status { st, _ := p.Watch(); return st }

// Watch returns the lifecycle state and a channel closed at the next
// transition, so a caller can wait for a phase without polling.
func (p *Proc) Watch() (Status, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status, p.changed
}

// transition is the lifecycle's only writer, called on the application
// goroutine. Entering stepping opens the checkpoint gate, leaving it
// closes the gate (no checkpoint is in flight then: participation runs
// on this goroutine). Entering a phase that cannot honour directives
// refuses the queued ones. Waiters wake on every transition.
func (p *Proc) transition(to Phase, err error) {
	if to == PhaseStepping {
		p.gate.Enable()
	}
	p.mu.Lock()
	from := p.status.Phase
	p.status = Status{Phase: to, Err: err}
	if to >= PhaseRecovering {
		p.refuseQueued()
	}
	close(p.changed)
	p.changed = make(chan struct{})
	p.mu.Unlock()
	if from == PhaseStepping {
		p.gate.Disable()
	}
}

// Engine exposes the PML engine (benchmark harness use).
func (p *Proc) Engine() *pml.Engine { return p.eng }

// Run executes the application: Setup, optional restore, the step loop
// with checkpoint boundaries, then finalize. It is the moral equivalent
// of the span from MPI_INIT to MPI_FINALIZE. When Config.Recover is
// wired, a communication failure does not end the process: it enters an
// in-job recovery session (tryRecover) and, on success, resumes stepping
// at the restored frontier.
func (p *Proc) Run(app App, restore *RestoreSpec) (err error) {
	defer func() { p.transition(PhaseExited, err) }()
	if err := app.Setup(p); err != nil {
		return fmt.Errorf("ompi: rank %d setup: %w", p.cfg.Rank, err)
	}
	if restore != nil {
		if err := p.restoreFrom(restore); err != nil {
			// A rank respawned by the recovery coordinator must still
			// report, so the session learns of the failure promptly
			// instead of waiting out its rendezvous deadline.
			if p.cfg.RecoveryGate != nil {
				_ = p.cfg.RecoveryGate(nil, err)
			}
			return fmt.Errorf("ompi: rank %d restore: %w", p.cfg.Rank, err)
		}
		if p.cfg.RecoveryGate != nil {
			// Respawned-rank rendezvous: hand over the restored channel
			// bookmarks and park until every rank of the session is
			// verified and released.
			if err := p.cfg.RecoveryGate(p.lastBookmarks, nil); err != nil {
				return fmt.Errorf("ompi: rank %d recovery gate: %w", p.cfg.Rank, err)
			}
		}
	}
	// MPI_INIT complete: checkpointing becomes possible.
	p.transition(PhaseStepping, nil)
	p.log.Emit(p.source(), "proc.init", "restarted=%v", p.restarted)

	for {
		err := p.stepLoop(app)
		if err == nil {
			return nil
		}
		if rerr := p.tryRecover(err); rerr != nil {
			return rerr
		}
		// Recovered in place: loop back into stepping at the restored
		// frontier.
	}
}

// stepLoop drives the application from one MPI_INIT-equivalent point to
// finalize: checkpoint boundaries between steps, then the finalize
// barrier. A non-nil return leaves the process in the phase it failed
// in, stepping or finalizing; Run either moves it to recovering
// (tryRecover) or lets it exit.
func (p *Proc) stepLoop(app App) error {
	terminate := false
	for {
		term, err := p.boundarySync()
		if err != nil {
			return fmt.Errorf("ompi: rank %d boundary: %w", p.cfg.Rank, err)
		}
		if term {
			terminate = true
			break
		}
		done, err := app.Step(p)
		if err != nil {
			return fmt.Errorf("ompi: rank %d step: %w", p.cfg.Rank, err)
		}
		if p.termRequested {
			terminate = true
			break
		}
		if done {
			break
		}
	}
	// MPI_FINALIZE entry: no further checkpoints of this process, and no
	// further boundary to report to a frontier agreement.
	p.front.finalize()
	p.transition(PhaseFinalizing, nil)
	if !terminate {
		// Finalize synchronizes, like MPI_Finalize commonly does.
		if err := p.coll.Barrier(); err != nil {
			return fmt.Errorf("ompi: rank %d finalize barrier: %w", p.cfg.Rank, err)
		}
	}
	p.log.Emit(p.source(), "proc.fini", "terminate=%v", terminate)
	return nil
}

// boundarySync is the step-boundary checkpoint check. Because directive
// delivery is asynchronous, ranks could otherwise drift across step
// boundaries and deadlock (one rank quiescing at boundary k while
// another blocks in a step-k+1 receive for a message the quiescing rank
// will only send after the checkpoint). Arm, then agree, makes the
// decision uniform: a delivered directive arms the rank and reports it
// to one frontier agreement, and every rank participates at the agreed
// boundary F (frontier.go). A rank that is neither armed nor in an
// agreement steps on after a local test, sending nothing. A rank in an
// agreement waits at the boundary it reported until F is known; the PML
// serves the agreement inside every blocking wait, so a peer blocked
// mid-step on this rank still answers rank 0, and the wait always ends.
// This is the Go substitution for BLCR's ability to interrupt a process
// at an arbitrary instruction (see DESIGN.md); it also keeps
// application state and channel state consistent for restart.
func (p *Proc) boundarySync() (terminate bool, err error) {
	f := &p.front
	for {
		v := f.pos.Load()
		b := v >> 1
		if v&1 == 0 {
			if !p.armed() {
				if f.pass(v) {
					return false, nil
				}
				continue // Deliver reported meanwhile
			}
			if err := p.join(); err != nil {
				return false, err
			}
			continue
		}
		if err := p.eng.Await(func() bool { return f.decided || !f.joined() }); err != nil {
			return false, err
		}
		if !f.decided {
			continue // a frontier nobody reaches ended the agreement
		}
		if f.at > b {
			f.pos.Add(2) // still in the agreement
			return false, nil
		}
		break
	}
	// This is the frontier. The process stays in the agreement until it
	// holds its directive, so a late directive's delivery opens no new
	// agreement; it leaves past the frontier, so a report made while
	// participating names the next boundary.
	f.decided = false
	// Usually the directive is already queued. ompi_directive_timeout
	// bounds the wait for it when the local coordinator died before
	// delivering it (e.g. its node was killed mid-fan-out). The default
	// sits far beyond any legitimate delivery delay in the simulator;
	// fault studies that kill nodes mid-capture lower it so a torn
	// broadcast fails the frontier at failure-detection speed instead of
	// wedging the job.
	var d *Directive
	select {
	case d = <-p.directives:
	default:
		timeout := 10 * time.Second
		if p.cfg.Params != nil {
			timeout = p.cfg.Params.Duration("ompi_directive_timeout", timeout)
		}
		// A stopped timer, not time.After: one per checkpoint would stay
		// live for the whole timeout.
		timer := time.NewTimer(timeout)
		select {
		case d = <-p.directives:
			timer.Stop()
		case <-timer.C:
			return false, fmt.Errorf("ompi: boundary: peers agreed on a checkpoint but no directive arrived")
		}
	}
	f.pos.Store((f.at + 1) << 1)
	p.participate(d)
	return d.Terminate, nil
}

// Checkpoints reports how many checkpoint participations this process
// has completed since it started (or restarted). Because participation
// happens at a uniform step frontier, the value is identical across
// ranks at any step boundary, so applications may use it in termination
// conditions.
func (p *Proc) Checkpoints() int { return p.ckpts }

// participate runs the Figure-2 sequence for one checkpoint directive
// and reports the result on d.Result (if any).
func (p *Proc) participate(d *Directive) {
	res := ParticipationResult{Rank: p.cfg.Rank, Component: p.cfg.CRS.Name()}
	if !d.delivered.IsZero() {
		res.FrontierNS = int64(time.Since(d.delivered))
	}
	res.Files, res.Err = p.doCheckpoint(d, &res)
	if res.Err == nil {
		p.ckpts++
	}
	p.log.Emit(p.source(), "proc.ckpt", "interval %d err=%v", d.Interval, res.Err)
	if d.Result != nil {
		d.Result <- res
	}
	// Yield so the local coordinator can consume the result promptly:
	// on small machines the resuming application goroutines would
	// otherwise monopolize the scheduler for a full preemption quantum
	// before the coordinator's ack reaches the HNP.
	runtime.Gosched()
}

// doCheckpoint is the OPAL entry point of Figure 2. It times the two
// rank-local phases — preparation (dominated by the CRCP quiesce) and
// CRS capture — into res, so the global coordinator can assemble the
// interval's PhaseBreakdown.
func (p *Proc) doCheckpoint(d *Directive, res *ParticipationResult) ([]string, error) {
	if err := p.gate.Begin(); err != nil {
		return nil, fmt.Errorf("ompi: checkpoint gate: %w", err)
	}
	defer p.gate.End()
	defer p.settleAhead()
	root := p.ins.Span("ckpt.participate",
		trace.WithRank(p.cfg.Rank), trace.WithInterval(d.Interval), trace.WithSource(p.source()))
	// Downward notification: prepare every layer (application INC
	// first, then OMPI/ORTE/OPAL).
	prepStart := time.Now()
	if err := p.incs.Call(inc.StateCheckpoint); err != nil {
		// Undo preparation on the layers that succeeded.
		_ = p.incs.Call(inc.StateError)
		root.End(err)
		return nil, fmt.Errorf("ompi: checkpoint preparation: %w", err)
	}
	res.QuiesceNS = int64(time.Since(prepStart))
	// The channels are quiesced: capture the process.
	capture := root.Child("crs.capture")
	capStart := time.Now()
	files, err := p.cfg.CRS.Checkpoint(p, d.FS, d.Dir)
	res.CaptureNS = int64(time.Since(capStart))
	capture.End(err)
	if err != nil {
		_ = p.incs.Call(inc.StateError)
		root.End(err)
		return nil, fmt.Errorf("ompi: CRS capture: %w", err)
	}
	// Resulting-state notification.
	if err := p.incs.Call(inc.StateContinue); err != nil {
		root.End(err)
		return nil, fmt.Errorf("ompi: continue notification: %w", err)
	}
	root.End(nil)
	return files, nil
}

// --- crs.Process implementation ---------------------------------------------

// PID implements crs.Process.
func (p *Proc) PID() int { return p.cfg.PID }

// Self implements crs.Process.
func (p *Proc) Self() *crs.SelfCallbacks { return p.selfCbs }

// The process image, format 2: the magic "OMPI", a version byte, then
//
//	JobID Rank Size (zigzag varints) | CollSeq (uvarint)
//	PML section (pml.AppendState)
//	CRCP bookmarks (length-prefixed Protocol.Save output)
//	app-state table: uvarint count, then (length-prefixed name, value)
//	pairs, names strictly ascending, each value in its type's wire.Codec
//
// The decoder is strict: bounded counts, canonical encodings, no
// trailing bytes. Format 1 held gob-encoded values.
const (
	imageMagic   = "OMPI"
	imageVersion = 2
)

// Image implements crs.Process: serialize MPI library state plus all
// registered application state into one buffer, after head free bytes.
// When encodeAhead encoded the app-state table behind a reserve, the
// library header goes right-aligned into that reserve and the table's
// buffer becomes the image, so the table is never copied. A header that
// outgrew its reserve, or a capture with no table encoded ahead, gets a
// buffer whose reserve fits it exactly.
func (p *Proc) Image(head int) ([]byte, error) {
	var t stateTable // the app-state table encodeAhead encoded, if any
	ahead := p.ahead != nil
	if ahead {
		t = <-p.ahead
		p.ahead = nil
		if t.err != nil {
			return nil, fmt.Errorf("ompi: image: %w", t.err)
		}
	}
	hdr, err := p.appendHeader(make([]byte, 0, p.headSize+64))
	if err != nil {
		return nil, fmt.Errorf("ompi: image: %w", err)
	}
	p.headSize = head + len(hdr)
	if !ahead {
		t.reserve = p.headSize
		if t.b, err = p.appendStates(make([]byte, t.reserve, t.reserve+p.stateSize+p.stateSize/8+64)); err != nil {
			return nil, fmt.Errorf("ompi: image: %w", err)
		}
	} else if p.headSize > t.reserve { // the header outgrew its reserve
		table := t.b[t.reserve:]
		t.b, t.reserve = append(make([]byte, p.headSize, p.headSize+len(table)), table...), p.headSize
	}
	at := t.reserve - p.headSize
	copy(t.b[at+head:], hdr)
	p.stateSize = len(t.b) - t.reserve
	return t.b[at:], nil
}

// appendHeader appends the image's library header: everything before
// the app-state table.
func (p *Proc) appendHeader(b []byte) ([]byte, error) {
	st, err := p.eng.SaveState()
	if err != nil {
		return nil, err
	}
	bm, err := p.prot.Save()
	if err != nil {
		return nil, err
	}
	b = append(append(b, imageMagic...), imageVersion)
	b = wire.AppendInt(wire.AppendInt(wire.AppendInt(b, p.cfg.JobID), p.cfg.Rank), p.cfg.Size)
	b = binary.AppendUvarint(b, p.coll.Seq())
	return wire.AppendBytes(pml.AppendState(b, st), bm), nil
}

// appendStates appends the image's app-state table.
func (p *Proc) appendStates(b []byte) ([]byte, error) {
	names := make([]string, 0, len(p.states))
	for name, s := range p.states {
		if !s.exclude { // exclusion hint: scratch state stays out of the image
			names = append(names, name)
		}
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		s := p.states[name]
		b = append(binary.AppendUvarint(b, uint64(len(name))), name...)
		var err error
		if b, err = s.codec.Append(b, s.ptr.Elem()); err != nil {
			return nil, fmt.Errorf("encode state %q: %w", name, err)
		}
	}
	return b, nil
}

// stateTable is an app-state table encoded ahead of the capture, in b
// after reserve bytes left for the image's head room and header.
type stateTable struct {
	b       []byte
	reserve int
	err     error
}

// reserve is the room encodeAhead leaves before the table: the last
// image's head room and library header, plus slack for a header that
// grew a little (the PML's unexpected messages vary between captures).
func (p *Proc) reserve() int { return p.headSize + p.headSize/8 + 256 }

// encodeAhead is the OMPI layer's first ft_event. Entering a checkpoint
// for a CRS that captures the image, it starts encoding the app-state
// table on another goroutine, behind a reserve for Image to write the
// library header into: the application's own INC has run, and the
// application goroutine leaves the state alone until the participation
// ends, so the encoding overlaps the quiesce — most of all the wait at
// the frontier for ranks still a step behind.
func (p *Proc) encodeAhead() inc.FTEventer {
	return inc.FTEventFunc(func(s inc.State) error {
		if _, image := p.cfg.CRS.(*crs.SimCR); s != inc.StateCheckpoint || !image {
			return nil
		}
		ch := make(chan stateTable, 1)
		p.ahead = ch
		reserve := p.reserve()
		size := reserve + p.stateSize + p.stateSize/8 + 64
		go func() {
			b, err := p.appendStates(make([]byte, reserve, size))
			ch <- stateTable{b, reserve, err}
		}()
		return nil
	})
}

// settleAhead waits out an encoding no capture took, so the application
// never resumes while it still reads the state.
func (p *Proc) settleAhead() {
	if p.ahead != nil {
		<-p.ahead
		p.ahead = nil
	}
}

// RestoreImage implements crs.Process: re-instate library and
// application state captured by Image. The application must already have
// registered the same state names (Setup runs before restore). Nothing
// is restored unless the whole image decodes and matches this process.
func (p *Proc) RestoreImage(data []byte) error {
	if err := p.restoreImage(data); err != nil {
		return fmt.Errorf("ompi: restore image: %w", err)
	}
	return nil
}

func (p *Proc) restoreImage(data []byte) error {
	if !bytes.HasPrefix(data, []byte(imageMagic)) {
		return fmt.Errorf("not a process image (no %q magic)", imageMagic)
	}
	r := wire.NewReader(data[len(imageMagic):])
	if v := r.Byte(); r.Err() == nil && v != imageVersion {
		return fmt.Errorf("image format %d: this build reads format %d", v, imageVersion)
	}
	_, rank, size := r.Int(), r.Int(), r.Int()
	collSeq := r.Uvarint()
	st := pml.ReadState(r)
	bm := r.Bytes()
	// Every value decodes into a fresh zero value; nothing is installed
	// until the whole image has decoded.
	type decoded struct {
		s *appState
		v reflect.Value
	}
	var vals []decoded
	prev := ""
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		name := string(r.Bytes())
		if i > 0 && name <= prev {
			r.Failf("state %q out of order after %q", name, prev)
		}
		prev = name
		if r.Err() != nil {
			break
		}
		s, ok := p.states[name]
		if !ok {
			return fmt.Errorf("snapshot contains unregistered state %q", name)
		}
		v := s.codec.Decode(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("decode state %q: %w", name, err)
		}
		vals = append(vals, decoded{s, v})
	}
	if err := r.Close(); err != nil {
		return err
	}
	if size != p.cfg.Size {
		return fmt.Errorf("snapshot is for a %d-rank job, this job has %d", size, p.cfg.Size)
	}
	if rank != p.cfg.Rank {
		return fmt.Errorf("snapshot of rank %d restored into rank %d", rank, p.cfg.Rank)
	}
	// The CRCP restore decodes its blob before it changes anything, and
	// ReadState already checked what RestoreState checks, so a failure
	// here leaves the process as it was.
	if err := p.prot.Restore(bm); err != nil {
		return err
	}
	if err := p.eng.RestoreState(st); err != nil {
		return err
	}
	p.coll.SetSeq(collSeq)
	for _, d := range vals {
		d.s.ptr.Elem().Set(d.v)
	}
	return nil
}
