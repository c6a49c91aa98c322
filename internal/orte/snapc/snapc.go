// Package snapc implements the paper's ORTE SNAPC framework (§5.1,
// §6.1): the snapshot coordinator that launches, monitors and aggregates
// distributed checkpoint requests.
//
// The initial component, full, is the paper's centralized coordination
// approach with its three sub-coordinators (Fig. 1):
//
//   - the global coordinator lives in the HNP (mpirun): it accepts
//     requests from tools and the synchronous API (Fig. 1-A), fans the
//     request out to the per-node daemons (B), monitors progress (E),
//     aggregates the remote local snapshots into the global snapshot on
//     stable storage via FILEM (F), and returns the global snapshot
//     reference to the user;
//   - a local coordinator lives in each orted: it initiates the local
//     checkpoint of every application process on its node (C), records
//     the local snapshot metadata, and reports back (D→E);
//   - an application coordinator lives in each process: it interprets
//     the directive (e.g. checkpoint-and-terminate) and enters the OPAL
//     entry point (the ompi.Proc participation path).
//
// Before initiating anything, the global coordinator consults the
// checkpointability of every target process; if any process cannot be
// checkpointed the request fails atomically — no process is affected —
// exactly the paper's §5.1 requirement.
package snapc

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/errdef"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/orte/filem"
	"repro/internal/orte/names"
	"repro/internal/orte/rml"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// FrameworkName is the MCA selection parameter for this framework.
const FrameworkName = "snapc"

// ErrNotCheckpointable reports that a target process opted out of
// checkpointing, failing the whole request before any process acted.
var ErrNotCheckpointable = errdef.ErrNotCheckpointable

// ErrHNPCrashed marks an operation cut short because the HNP itself
// died mid-flight (the "hnp.crash:<when>" fault class). Unlike an
// ordinary failure the interval is NOT aborted: the orteds seal their
// local stages autonomously, and a later reattach rebuilds the drain
// state from the stage markers and the journal.
var ErrHNPCrashed = errdef.ErrHNPCrashed

// ErrHNPDown rejects control-plane operations while the HNP is dead
// (headless window between a crash and a reattach).
var ErrHNPDown = errdef.ErrHNPDown

// ErrStoreDegraded reports a checkpoint that succeeded at the
// local-stage level but could not reach stable storage: the store is in
// a DEGRADED window, the interval is sealed node-local and parked, and
// the catch-up drainer will commit it when the store returns. It is a
// degraded success, not a failure — no checkpoint data was lost.
var ErrStoreDegraded = errdef.ErrStoreDegraded

// JobView is the coordinator's window onto a running job.
type JobView interface {
	// JobID identifies the job.
	JobID() names.JobID
	// AppName is the launched application's name (recorded in metadata).
	AppName() string
	// AppArgs are the application arguments (recorded in metadata).
	AppArgs() []string
	// NumProcs is the job size.
	NumProcs() int
	// NodeOf returns the node hosting a rank.
	NodeOf(vpid int) string
	// Nodes lists the distinct nodes hosting the job.
	Nodes() []string
	// Checkpointable reports whether a rank currently permits
	// checkpoints (false before MPI_INIT, after MPI_FINALIZE entry, or
	// when the application opted out).
	Checkpointable(vpid int) bool
	// Deliver hands a checkpoint directive to a rank's application
	// coordinator.
	Deliver(vpid int, d *ompi.Directive)
	// Params returns the job's MCA parameters (recorded in metadata so
	// restart needs no user-recalled flags).
	Params() *mca.Params
}

// Env wires a coordinator to the runtime's services.
type Env struct {
	// Filem moves snapshot files; FilemEnv resolves nodes and charges
	// simulated transfer time.
	Filem    filem.Component
	FilemEnv *filem.Env
	// Stable is the stable-storage filesystem.
	Stable vfs.FS
	// NodeFS resolves a node's local filesystem.
	NodeFS func(node string) (vfs.FS, error)
	// Nodes lists the candidate replica holders (the cluster's surviving
	// nodes, in placement-preference order). Nil disables replication
	// regardless of filem_replicas.
	Nodes func() []string
	// Ins receives snapc.* trace events, interval spans, and the
	// committed/aborted counters. Optional.
	Ins *trace.Instrumentation
	// AckTimeout bounds how long the global coordinator waits for a
	// local coordinator. Zero means DefaultAckTimeout.
	AckTimeout time.Duration
	// Inject is the fault-injection hook for the drain lifecycle edges
	// ("snapc.drain:<edge>", see drain.go) and the HNP-crash edges
	// ("hnp.crash:<when>"). Optional.
	Inject func(point string) error
	// Note, when set, receives interval lifecycle notifications
	// (captured, committed, discarded, parked, replicas placed). The
	// runtime uses it to write the HNP's durable job ledger through the
	// asynchronous drain path it cannot otherwise observe. Optional;
	// must not block.
	Note func(IntervalNote)
	// CleanupLocal removes node-local snapshot directories after the
	// gather (the FILEM remove operation). Defaults to true via
	// Options.
	// (Set per request in Options.)
}

// IntervalNote is one interval lifecycle notification (Env.Note).
type IntervalNote struct {
	// Event is "captured", "committed", "discarded", "parked",
	// "stage-replicas" or "replicas".
	Event    string
	Job      names.JobID
	Interval int
	// Nodes carries the holder set for replica events.
	Nodes []string
}

// note delivers an interval lifecycle notification, if a sink is set.
func (e *Env) note(n IntervalNote) {
	if e.Note != nil {
		e.Note(n)
	}
}

// DefaultAckTimeout bounds the wait for local coordinator acks.
const DefaultAckTimeout = 2 * time.Minute

// fire consults the drain-lifecycle fault-injection hook.
func (e *Env) fire(point string) error {
	if e.Inject == nil {
		return nil
	}
	return e.Inject(point)
}

// Options modify one checkpoint request.
type Options struct {
	// Terminate requests checkpoint-and-terminate.
	Terminate bool
	// KeepLocal leaves the node-local snapshot copies in place instead
	// of removing them after the gather.
	KeepLocal bool
}

// Result reports a completed global checkpoint.
type Result struct {
	Ref      snapshot.GlobalRef
	Meta     snapshot.GlobalMeta
	Interval int
	// GatherStats reports the FILEM aggregation work.
	GatherStats filem.Stats
	// ReplicaStats reports the FILEM work of pushing interval replicas
	// (zero when filem_replicas is unset).
	ReplicaStats filem.Stats
	// ReplicasPlaced counts the replicas that were pushed and verified
	// intact; fewer than filem_replicas means a degraded (but still
	// committed) checkpoint.
	ReplicasPlaced int
}

// Captured is the outcome of an interval's synchronous capture phase:
// every rank quiesced, captured and resumed, and each participating
// node holds the interval's local snapshots under a LOCAL_COMMITTED
// marker. Nothing has touched stable storage yet — Drain (directly, or
// via the Drainer's background queue) performs the gather → commit →
// replicate half.
type Captured struct {
	Job       JobView
	GlobalDir string
	Interval  int
	Opts      Options

	ByNode  map[string][]int
	Results map[int]procResult
	Began   time.Time

	// StagedBytes is the interval's total node-local payload, the unit
	// the Drainer's snapc_stage_bytes_max backpressure counts.
	StagedBytes int64
	// BlockedNS accumulates the application-blocked time: the capture
	// phase itself, plus (added by the Drainer) any backpressure block.
	BlockedNS int64
	// EnqueuedAt is stamped by the Drainer when the interval enters the
	// drain queue; the drain turns it into the DrainWaitNS phase.
	EnqueuedAt time.Time
}

// Component is a SNAPC implementation.
type Component interface {
	mca.Component
	// Capture runs the synchronous phase of one global checkpoint of
	// job: quiesce → capture → release on every rank, ending with the
	// interval staged node-local. hnp is the HNP's RML endpoint; daemons
	// maps node names to their orted RML names (the local coordinators
	// must be serving).
	Capture(env *Env, job JobView, hnp *rml.Endpoint, daemons map[string]names.Name,
		globalDir string, interval int, opts Options) (*Captured, error)
	// Checkpoint runs one full global checkpoint of job synchronously
	// (Capture immediately followed by Drain), writing the global
	// snapshot under globalDir on stable storage as the given interval.
	Checkpoint(env *Env, job JobView, hnp *rml.Endpoint, daemons map[string]names.Name,
		globalDir string, interval int, opts Options) (Result, error)
	// ServeLocal runs a node's local coordinator loop on ep until the
	// endpoint closes. resolve maps a job id to its JobView.
	ServeLocal(env *Env, node string, ep *rml.Endpoint, resolve func(names.JobID) (JobView, error)) error
}

// NewFramework returns the SNAPC framework with the full (centralized)
// component registered.
func NewFramework() *mca.Framework[Component] {
	f := mca.NewFramework[Component](FrameworkName)
	f.MustRegister(&Full{})
	f.MustRegister(&Tree{})
	return f
}

// localRequest is the global→local coordinator order (Fig. 1-B).
type localRequest struct {
	Job       int    `json:"job"`
	Interval  int    `json:"interval"`
	Vpids     []int  `json:"vpids"`
	BaseDir   string `json:"base_dir"` // node-local directory for snapshots
	Terminate bool   `json:"terminate"`
}

// procResult is one process's outcome inside a localAck. QuiesceNS and
// CaptureNS carry the rank's phase timing (channel quiesce, CRS capture)
// up to the global coordinator so the committed interval's PhaseBreakdown
// can attribute time per phase across ranks.
type procResult struct {
	Vpid      int      `json:"vpid"`
	Component string   `json:"crs_component"`
	Files     []string `json:"files"`
	Dir       string   `json:"dir"` // node-local snapshot dir
	QuiesceNS int64    `json:"quiesce_ns,omitempty"`
	CaptureNS int64    `json:"capture_ns,omitempty"`
	// Bytes is the staged size of the rank's local snapshot. The drain
	// engine's staged-bytes backpressure cap counts these.
	Bytes int64  `json:"bytes,omitempty"`
	Err   string `json:"err,omitempty"`
}

// localAck is the local→global coordinator report (Fig. 1-D/E).
type localAck struct {
	Job      int          `json:"job"`
	Interval int          `json:"interval"`
	Node     string       `json:"node"`
	Results  []procResult `json:"results"`
	Err      string       `json:"err,omitempty"`
}

// ackForJob matches TagSnapcAck traffic belonging to one job, by
// decoding just the job field of the payload. Undecodable messages
// match too, so a corrupt ack surfaces as an error in the receiver
// instead of rotting in the mailbox.
func ackForJob(job names.JobID) func(rml.Message) bool {
	return func(m rml.Message) bool {
		var hdr struct {
			Job int `json:"job"`
		}
		if err := json.Unmarshal(m.Data, &hdr); err != nil {
			return true
		}
		return hdr.Job == int(job)
	}
}

// Full is the centralized snapshot coordinator component.
type Full struct{}

// Name implements mca.Component.
func (*Full) Name() string { return "full" }

// Priority implements mca.Component.
func (*Full) Priority() int { return 20 }

// Checkpoint implements Component: one full synchronous checkpoint —
// Capture immediately followed by Drain.
func (f *Full) Checkpoint(env *Env, job JobView, hnp *rml.Endpoint, daemons map[string]names.Name,
	globalDir string, interval int, opts Options) (Result, error) {
	cap, err := f.Capture(env, job, hnp, daemons, globalDir, interval, opts)
	if err != nil {
		return Result{}, err
	}
	return Drain(env, cap)
}

// Capture implements Component: the synchronous phase of the global
// coordinator — checkpointability check, fan-out to the local
// coordinators, ack collection. When it returns, every rank has already
// resumed and the interval is staged node-local under LOCAL_COMMITTED
// markers.
func (f *Full) Capture(env *Env, job JobView, hnp *rml.Endpoint, daemons map[string]names.Name,
	globalDir string, interval int, opts Options) (*Captured, error) {
	began := time.Now()
	log := env.Ins
	csp := env.Ins.Span("snapc.capture", trace.WithInterval(interval), trace.WithSource("snapc.global"))
	log.Emit("snapc.global", "ckpt.request", "job %d interval %d terminate=%v", job.JobID(), interval, opts.Terminate)

	// §5.1: verify every target is checkpointable before touching any.
	for v := 0; v < job.NumProcs(); v++ {
		if !job.Checkpointable(v) {
			err := fmt.Errorf("%w: job %d rank %d", ErrNotCheckpointable, job.JobID(), v)
			csp.End(err)
			return nil, err
		}
	}

	// Group ranks by node and order each node's local coordinator to
	// checkpoint them (Fig. 1-B).
	byNode := make(map[string][]int)
	for v := 0; v < job.NumProcs(); v++ {
		n := job.NodeOf(v)
		byNode[n] = append(byNode[n], v)
	}
	base := snapshot.LocalStageBase(int(job.JobID()), interval)
	// Resolve every node's local coordinator before ordering any, so a
	// missing daemon fails the request with no debris to sweep, then fan
	// the orders out as one batch: at thousand-node scale the per-node
	// SendJSON loop was 2N router-lock acquisitions on the hot path.
	batch := make([]rml.Outgoing, 0, len(byNode))
	for node, vpids := range byNode {
		daemon, ok := daemons[node]
		if !ok {
			err := fmt.Errorf("snapc: no local coordinator on node %q", node)
			csp.End(err)
			return nil, err
		}
		req := localRequest{
			Job: int(job.JobID()), Interval: interval,
			Vpids: vpids, BaseDir: base, Terminate: opts.Terminate,
		}
		out, err := rml.JSONOutgoing(daemon, rml.TagSnapcRequest, req)
		if err != nil {
			csp.End(err)
			return nil, err
		}
		batch = append(batch, out)
	}
	if err := hnp.SendBatch(batch); err != nil {
		// Some orders may already be out: abort the interval so their
		// debris is swept rather than abandoned mid-flight.
		abortInterval(env, job, byNode, globalDir, interval, err)
		csp.End(err)
		return nil, fmt.Errorf("snapc: order local coordinators: %w", err)
	}

	// HNP-crash edge: the coordinator dies after ordering the quiesce
	// but before collecting a single ack. No abort — the local
	// coordinators checkpoint and seal their stages autonomously (their
	// acks go nowhere), and the interval is rebuilt from the
	// LOCAL_COMMITTED markers when the HNP reattaches.
	if err := env.fire("hnp.crash:quiesce"); err != nil {
		err = fmt.Errorf("%w inside quiesce of interval %d: %w", ErrHNPCrashed, interval, err)
		csp.End(err)
		return nil, err
	}

	// Monitor progress: one ack per involved node (Fig. 1-E), all
	// within one overall request deadline so a hung or silenced local
	// coordinator cannot wedge the job — the interval is aborted
	// atomically instead.
	deadline := time.Now().Add(ackTimeout(env))
	results := make(map[int]procResult)
	seen := make(map[string]bool, len(byNode))
	for len(seen) < len(byNode) {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			err := fmt.Errorf("snapc: checkpoint interval %d: %w deadline exceeded (%d of %d node acks)",
				interval, errAborted, len(seen), len(byNode))
			abortInterval(env, job, byNode, globalDir, interval,
				fmt.Errorf("deadline exceeded with %d of %d node acks", len(seen), len(byNode)))
			csp.End(err)
			return nil, err
		}
		// Match only this job's acks: concurrent captures by other jobs
		// share the HNP mailbox, and taking their acks here would wedge
		// both coordinators.
		m, err := hnp.RecvWhere(rml.TagSnapcAck, ackForJob(job.JobID()), remaining)
		if err != nil {
			abortInterval(env, job, byNode, globalDir, interval, err)
			csp.End(err)
			return nil, fmt.Errorf("snapc: waiting for local coordinators: %w", err)
		}
		var ack localAck
		if err := json.Unmarshal(m.Data, &ack); err != nil {
			abortInterval(env, job, byNode, globalDir, interval, err)
			csp.End(err)
			return nil, fmt.Errorf("snapc: decode ack from %v: %w", m.From, err)
		}
		// Discard stale acks from earlier (aborted or timed-out)
		// intervals: without this match, a late ack would be
		// misattributed to the current checkpoint.
		if ack.Job != int(job.JobID()) || ack.Interval != interval {
			log.Emit("snapc.global", "ckpt.stale-ack", "discarding ack for job %d interval %d (running interval %d)",
				ack.Job, ack.Interval, interval)
			continue
		}
		if ack.Err != "" {
			abortInterval(env, job, byNode, globalDir, interval, errors.New(ack.Err))
			err := fmt.Errorf("snapc: node %q: %s", ack.Node, ack.Err)
			csp.End(err)
			return nil, err
		}
		for _, pr := range ack.Results {
			if pr.Err != "" {
				abortInterval(env, job, byNode, globalDir, interval, errors.New(pr.Err))
				err := fmt.Errorf("snapc: rank %d on %q: %s", pr.Vpid, ack.Node, pr.Err)
				csp.End(err)
				return nil, err
			}
			results[pr.Vpid] = pr
		}
		seen[ack.Node] = true
		log.Emit("snapc.global", "ckpt.node-done", "node %s (%d procs)", ack.Node, len(ack.Results))
	}
	if len(results) != job.NumProcs() {
		abortInterval(env, job, byNode, globalDir, interval,
			fmt.Errorf("%d of %d local snapshots reported", len(results), job.NumProcs()))
		err := fmt.Errorf("snapc: %d of %d local snapshots reported", len(results), job.NumProcs())
		csp.End(err)
		return nil, err
	}
	csp.End(nil)
	return newCaptured(job, globalDir, interval, opts, byNode, results, began), nil
}

// newCaptured assembles the capture-phase outcome shared by the full
// and tree coordinators: staged-byte totals for backpressure accounting
// and the slowest rank's quiesce+capture as the blocked share.
func newCaptured(job JobView, globalDir string, interval int, opts Options,
	byNode map[string][]int, results map[int]procResult, began time.Time) *Captured {
	cap := &Captured{
		Job: job, GlobalDir: globalDir, Interval: interval, Opts: opts,
		ByNode: byNode, Results: results, Began: began,
	}
	var quiesceWall, captureWall int64
	for _, pr := range results {
		cap.StagedBytes += pr.Bytes
		if pr.QuiesceNS > quiesceWall {
			quiesceWall = pr.QuiesceNS
		}
		if pr.CaptureNS > captureWall {
			captureWall = pr.CaptureNS
		}
	}
	cap.BlockedNS = quiesceWall + captureWall
	return cap
}

// errAborted tags checkpoint failures that aborted the interval. It is
// exported through the shared taxonomy as errdef.ErrIntervalAborted.
var errAborted = errdef.ErrIntervalAborted

func ackTimeout(env *Env) time.Duration {
	if env.AckTimeout > 0 {
		return env.AckTimeout
	}
	return DefaultAckTimeout
}

// abortInterval fails one checkpoint interval atomically: best-effort
// removal of the node-local snapshot temporaries and of anything staged
// on stable storage, so the failed interval leaves no debris and is
// never mistakable for a restartable snapshot. The job itself keeps
// running — a failed checkpoint is a logged event, not a job failure.
func abortInterval(env *Env, job JobView, byNode map[string][]int, globalDir string, interval int, cause error) {
	ref := snapshot.GlobalRef{FS: env.Stable, Dir: globalDir}
	if stage := ref.StageDir(interval); vfs.Exists(env.Stable, stage) {
		_ = env.Stable.Remove(stage)
	}
	base := snapshot.LocalStageBase(int(job.JobID()), interval)
	for node := range byNode {
		if fsys, err := env.NodeFS(node); err == nil && vfs.Exists(fsys, base) {
			_ = env.Filem.Remove(env.FilemEnv, node, []string{base})
		}
	}
	env.Ins.Counter("ompi_snapc_intervals_aborted_total").Inc()
	env.Ins.Emit("snapc.global", "ckpt.aborted", "job %d interval %d: %v", job.JobID(), interval, cause)
}

// abortOrPreserve aborts a failed interval unless the failure is a
// transient store outage: during an outage the sealed node-local stages
// (and the journal entry pinning them) are deliberately preserved — the
// drain engine parks the interval and the catch-up pass commits it when
// the store returns. Destroying the stages here would turn a transient
// outage into checkpoint loss.
func abortOrPreserve(env *Env, job JobView, byNode map[string][]int, globalDir string, interval int, cause error) {
	if faultsim.IsOutage(cause) {
		env.Ins.Emit("snapc.global", "ckpt.outage",
			"interval %d hit a store outage; local stages preserved: %v", interval, cause)
		return
	}
	abortInterval(env, job, byNode, globalDir, interval, cause)
}

// gatherBaseline builds the content-addressed dedup index for one
// gather: the checksum manifest of the newest interval committed before
// this one, inverted to hash → path. Returns nil (a full gather) when
// dedup is disabled, no earlier interval exists, or the previous
// metadata cannot be read — the optimization must never fail a
// checkpoint.
func gatherBaseline(env *Env, ref snapshot.GlobalRef, interval int, enabled bool) *filem.Baseline {
	if !enabled {
		return nil
	}
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		return nil
	}
	prev := -1
	for _, iv := range ivs {
		if iv < interval && iv > prev {
			prev = iv
		}
	}
	if prev < 0 {
		return nil
	}
	meta, err := snapshot.ReadGlobal(ref, prev)
	if err != nil {
		return nil
	}
	idx := meta.ByChecksum()
	if len(idx) == 0 {
		return nil
	}
	env.Ins.Emit("snapc.global", "ckpt.dedup-baseline", "interval %d dedups against interval %d (%d entries)",
		interval, prev, len(idx))
	return &filem.Baseline{Dir: ref.IntervalDir(prev), ByHash: idx}
}

// Drain is the asynchronous half of a global checkpoint, shared by
// every coordination topology: FILEM-gather the captured node-local
// snapshots into the global snapshot directory on stable storage while
// the processes run on, write the global metadata, push replicas, and
// clean the node-local temporaries. Callers that want background
// draining go through the Drainer; recovery re-drains call it directly.
func Drain(env *Env, cpt *Captured) (Result, error) {
	res, err := finishGlobal(env, cpt)
	if err == nil {
		// Drain-scoped FILEM accounting: bytes and transfers the drain
		// engine moved (gather plus replica pushes), as opposed to the
		// restart broadcast path.
		moved := res.GatherStats.Add(res.ReplicaStats)
		env.Ins.Counter("ompi_filem_drain_bytes_total").Add(moved.Bytes)
		env.Ins.Counter("ompi_filem_drain_transfers_total").Add(int64(moved.Transfers))
	}
	return res, err
}

// finishGlobal implements Drain.
func finishGlobal(env *Env, cpt *Captured) (Result, error) {
	job, globalDir, interval, opts := cpt.Job, cpt.GlobalDir, cpt.Interval, cpt.Opts
	byNode, results, began := cpt.ByNode, cpt.Results, cpt.Began
	drainStart := time.Now()
	log := env.Ins
	root := env.Ins.Span("snapc.interval", trace.WithInterval(interval), trace.WithSource("snapc.global"))
	dsp := root.Child("snapc.drain")
	// Per-phase attribution starts from what the ranks reported: quiesce
	// and capture happen rank-parallel, so the wall share is the slowest
	// rank and the sum is the aggregate work. The capture phase already
	// totaled the blocked share; the queue wait (if the Drainer staged
	// this interval) is everything between enqueue and now.
	pb := &snapshot.PhaseBreakdown{BlockedNS: cpt.BlockedNS}
	if !cpt.EnqueuedAt.IsZero() {
		pb.DrainWaitNS = int64(drainStart.Sub(cpt.EnqueuedAt))
	}
	for _, pr := range results {
		pb.QuiesceSumNS += pr.QuiesceNS
		pb.CaptureSumNS += pr.CaptureNS
		if pr.QuiesceNS > pb.QuiesceWallNS {
			pb.QuiesceWallNS = pr.QuiesceNS
		}
		if pr.CaptureNS > pb.CaptureWallNS {
			pb.CaptureWallNS = pr.CaptureNS
		}
	}
	ref := snapshot.GlobalRef{FS: env.Stable, Dir: globalDir}
	// Gather into the stage directory, not the interval directory: the
	// interval only appears on stable storage via WriteGlobal's atomic
	// commit rename, so a crash or failure mid-gather can never leave a
	// half-written snapshot that restart would trust.
	stage := ref.StageDir(interval)
	// A stale stage of the same number (abandoned by a crash) would mix
	// old payloads into this gather; start from a clean slate.
	if vfs.Exists(env.Stable, stage) {
		if err := env.Stable.Remove(stage); err != nil {
			abortOrPreserve(env, job, byNode, globalDir, interval, err)
			dsp.End(err)
			root.End(err)
			return Result{}, fmt.Errorf("snapc: clear stale stage for interval %d: %w", interval, err)
		}
	}
	dedup := job.Params().Bool("filem_dedup", true)
	baseline := gatherBaseline(env, ref, interval, dedup)
	var reqs []filem.Request
	for v := 0; v < job.NumProcs(); v++ {
		pr := results[v]
		reqs = append(reqs, filem.Request{
			SrcNode: job.NodeOf(v), SrcPath: pr.Dir,
			DstNode: filem.StableNode, DstPath: path.Join(stage, snapshot.LocalDirName(v)),
			Baseline: baseline,
		})
	}
	gsp := root.Child("filem.gather")
	gatherStart := time.Now()
	stats, err := env.Filem.Move(env.FilemEnv, reqs)
	pb.GatherNS = int64(time.Since(gatherStart))
	gsp.AddBytes(stats.Bytes)
	gsp.End(err)
	if err != nil {
		abortOrPreserve(env, job, byNode, globalDir, interval, err)
		dsp.End(err)
		root.End(err)
		return Result{}, fmt.Errorf("snapc: gather to stable storage: %w", err)
	}
	pb.BytesGathered = stats.Bytes
	pb.BytesMoved = stats.BytesMoved
	pb.BytesDeduped = stats.BytesDeduped
	log.Emit("snapc.global", "ckpt.gathered", "%d transfers, %d bytes (%d moved, %d deduped), %v modeled",
		stats.Transfers, stats.Bytes, stats.BytesMoved, stats.BytesDeduped, stats.Simulated)

	// Write the global metadata: everything restart needs.
	meta := snapshot.GlobalMeta{
		JobID:     int(job.JobID()),
		Interval:  interval,
		Taken:     time.Now(),
		NumProcs:  job.NumProcs(),
		AppName:   job.AppName(),
		AppArgs:   job.AppArgs(),
		MCAParams: job.Params().Map(),
		Nodes:     job.Nodes(),
		Gather: &snapshot.GatherRecord{
			Bytes:        stats.Bytes,
			BytesMoved:   stats.BytesMoved,
			BytesDeduped: stats.BytesDeduped,
			BytesHashed:  stats.BytesHashed,
			Transfers:    stats.Transfers,
			SimulatedNS:  int64(stats.Simulated),
			Dedup:        baseline != nil,
		},
	}
	for v := 0; v < job.NumProcs(); v++ {
		meta.Procs = append(meta.Procs, snapshot.ProcEntry{
			Vpid: v, Node: job.NodeOf(v),
			Component: results[v].Component,
			LocalDir:  snapshot.LocalDirName(v),
		})
	}
	// Durability: decide replica placement before the commit so the
	// records land inside the sealed metadata. Holders avoid the job's
	// own nodes when the cluster allows it — losing such a node then
	// costs either ranks or a copy, never both.
	k := job.Params().Int("filem_replicas", 0)
	var holders []string
	if k > 0 && env.Nodes != nil {
		holders = snapshot.PlaceReplicas(k, job.Nodes(), env.Nodes())
		if len(holders) < k {
			log.Emit("snapc.global", "ckpt.replica-degraded",
				"interval %d: only %d of %d replica holders available", interval, len(holders), k)
		}
		for _, node := range holders {
			meta.Replicas = append(meta.Replicas, snapshot.ReplicaRecord{
				Node: node, Path: snapshot.ReplicaDir(globalDir, interval),
			})
		}
	}
	// Stamp the breakdown into the metadata being committed. TotalNS so
	// far covers quiesce through gather; WriteGlobal folds its own commit
	// cost in (checksums before the marshal, rename tail after, into the
	// shared pb).
	pb.TotalNS = int64(time.Since(began))
	meta.Phases = pb
	csp := root.Child("snapshot.commit")
	if err := snapshot.WriteGlobal(ref, meta); err != nil {
		csp.End(err)
		abortOrPreserve(env, job, byNode, globalDir, interval, err)
		dsp.End(err)
		root.End(err)
		return Result{}, fmt.Errorf("snapc: commit global snapshot: %w", err)
	}
	csp.End(nil)
	// Report the committed metadata (checksums and stamped replica
	// records included), not the pre-commit draft. Re-attach the shared
	// breakdown: it carries the commit tail (and, below, the replica
	// time) that post-date the persisted copy.
	if committed, err := snapshot.ReadGlobal(ref, interval); err == nil {
		meta = committed
		meta.Phases = pb
	}
	// Push the replicas after the commit: the interval is already
	// durable on the primary, so a failed push degrades durability and
	// is logged — it never fails the checkpoint. Scrub re-replicates.
	var rsp *trace.SpanHandle
	if len(meta.Replicas) > 0 {
		rsp = root.Child("replica.push")
	}
	repStart := time.Now()
	repStats, placedHolders := replicateInterval(env, ref, globalDir, interval, meta, dedup)
	placed := len(placedHolders)
	if placed > 0 {
		env.note(IntervalNote{Event: "replicas", Job: job.JobID(), Interval: interval, Nodes: placedHolders})
	}
	if len(meta.Replicas) > 0 {
		pb.ReplicaNS = int64(time.Since(repStart))
	}
	rsp.AddBytes(repStats.Bytes)
	rsp.End(nil)

	// FILEM remove: clean temporary node-local snapshot data. The
	// snapshot is already committed, so a cleanup failure degrades to a
	// warning — stale temporaries are garbage, not corruption, and must
	// not fail an otherwise-good checkpoint.
	if !opts.KeepLocal {
		base := snapshot.LocalStageBase(int(job.JobID()), interval)
		for node := range byNode {
			if err := env.Filem.Remove(env.FilemEnv, node, []string{base}); err != nil {
				log.Emit("snapc.global", "ckpt.cleanup-failed", "node %q: %v", node, err)
			}
		}
	}
	env.Ins.Counter("ompi_snapc_intervals_committed_total").Inc()
	pb.DrainNS = int64(time.Since(drainStart))
	env.Ins.ObserveSeconds("ompi_snapc_interval_e2e_seconds", time.Since(began))
	dsp.End(nil)
	root.End(nil)
	log.Emit("snapc.global", "ckpt.done", "global snapshot %s interval %d", globalDir, interval)
	return Result{Ref: ref, Meta: meta, Interval: interval,
		GatherStats: stats, ReplicaStats: repStats, ReplicasPlaced: placed}, nil
}

// replicateInterval pushes byte-identical copies of a committed
// interval onto the holders recorded in meta.Replicas. Each push is an
// independent FILEM move — one holder failing must not roll back the
// others — with the holder's previous-interval replica as the dedup
// baseline, so k-way placement re-ships only what changed. Every
// pushed copy is verified standalone before it counts.
func replicateInterval(env *Env, ref snapshot.GlobalRef, globalDir string, interval int,
	meta snapshot.GlobalMeta, dedup bool) (filem.Stats, []string) {
	var total filem.Stats
	var placed []string
	if len(meta.Replicas) == 0 {
		return total, nil
	}
	// Baseline index: the previous interval's manifest, shared across
	// holders (the payload bytes are the same everywhere).
	var prevIdx map[string]string
	prev := -1
	if dedup {
		if ivs, err := snapshot.Intervals(ref); err == nil {
			for _, iv := range ivs {
				if iv < interval && iv > prev {
					prev = iv
				}
			}
		}
		if prev >= 0 {
			if prevMeta, err := snapshot.ReadGlobal(ref, prev); err == nil {
				prevIdx = prevMeta.ByChecksum()
			}
		}
	}
	for _, rec := range meta.Replicas {
		var baseline *filem.Baseline
		if len(prevIdx) > 0 {
			prevDir := snapshot.ReplicaDir(globalDir, prev)
			if fsys, err := env.NodeFS(rec.Node); err == nil && vfs.Exists(fsys, path.Join(prevDir, snapshot.CommittedFile)) {
				baseline = &filem.Baseline{Dir: prevDir, ByHash: prevIdx}
			}
		}
		req := filem.Request{
			SrcNode: filem.StableNode, SrcPath: ref.IntervalDir(interval),
			DstNode: rec.Node, DstPath: rec.Path, Baseline: baseline,
		}
		stats, err := env.Filem.Move(env.FilemEnv, []filem.Request{req})
		total.Bytes += stats.Bytes
		total.BytesMoved += stats.BytesMoved
		total.BytesDeduped += stats.BytesDeduped
		total.BytesHashed += stats.BytesHashed
		total.Simulated += stats.Simulated
		total.Transfers += stats.Transfers
		if err == nil {
			if fsys, verr := env.NodeFS(rec.Node); verr == nil {
				if _, verr = snapshot.VerifyDir(fsys, rec.Path); verr != nil {
					err = verr
				}
			} else {
				err = verr
			}
		}
		if err != nil {
			// Degraded, not fatal: drop the partial copy so nothing
			// half-written can ever masquerade as a replica.
			if fsys, ferr := env.NodeFS(rec.Node); ferr == nil && vfs.Exists(fsys, rec.Path) {
				_ = env.Filem.Remove(env.FilemEnv, rec.Node, []string{rec.Path})
			}
			env.Ins.Emit("snapc.global", "ckpt.replica-failed", "interval %d -> %s: %v", interval, rec.Node, err)
			continue
		}
		placed = append(placed, rec.Node)
		env.Ins.Emit("snapc.global", "ckpt.replicated", "interval %d -> %s (%d bytes, %d moved, %d deduped)",
			interval, rec.Node, stats.Bytes, stats.BytesMoved, stats.BytesDeduped)
	}
	return total, placed
}

// ServeLocal implements Component: the local coordinator loop for one
// node's orted. Each request is handled on its own goroutine: with
// several jobs sharing a node, one job's capture must not queue behind
// another's quiesce — per-job ordering is already enforced upstream by
// the per-job capture lock, so concurrent requests here always belong
// to different jobs (or different intervals of an aborted one, which
// the stale-ack matching on the HNP side discards).
func (f *Full) ServeLocal(env *Env, node string, ep *rml.Endpoint, resolve func(names.JobID) (JobView, error)) error {
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		var req localRequest
		from, err := ep.RecvJSON(rml.TagSnapcRequest, &req)
		if err != nil {
			if errors.Is(err, rml.ErrClosed) {
				return nil // orderly shutdown
			}
			return fmt.Errorf("snapc local[%s]: %w", node, err)
		}
		handlers.Add(1)
		go func(from names.Name, req localRequest) {
			defer handlers.Done()
			ack := f.handleLocal(env, node, req, resolve)
			if err := ep.SendJSON(from, rml.TagSnapcAck, ack); err != nil {
				// The global coordinator vanished between the order and the
				// ack — the HNP crashed mid-quiesce. The node's share of the
				// interval is already sealed under its LOCAL_COMMITTED
				// marker; keep serving so the reattached HNP finds a live
				// local coordinator, not a dead loop.
				env.Ins.Counter("ompi_snapc_orphaned_acks_total").Inc()
				env.Ins.Emit("snapc.local["+node+"]", "ckpt.ack-orphaned",
					"interval %d ack undeliverable (HNP down?): %v", req.Interval, err)
			}
		}(from, req)
	}
}

// handleLocal performs one node's part of a checkpoint: initiate every
// local process checkpoint (Fig. 1-C), collect outcomes (D), and write
// each local snapshot's metadata beside its payload files.
func (f *Full) handleLocal(env *Env, node string, req localRequest, resolve func(names.JobID) (JobView, error)) localAck {
	ack := localAck{Job: req.Job, Interval: req.Interval, Node: node}
	log := env.Ins
	job, err := resolve(names.JobID(req.Job))
	if err != nil {
		ack.Err = err.Error()
		return ack
	}
	nodeFS, err := env.NodeFS(node)
	if err != nil {
		ack.Err = fmt.Sprintf("no filesystem: %v", err)
		return ack
	}
	// Initiate all local checkpoints, then collect all results: the
	// application coordinators run concurrently.
	results := make(chan ompi.ParticipationResult, len(req.Vpids))
	dirs := make(map[int]string, len(req.Vpids))
	for _, v := range req.Vpids {
		dir := path.Join(req.BaseDir, snapshot.LocalDirName(v))
		dirs[v] = dir
		log.Emit("snapc.local["+node+"]", "ckpt.start", "rank %d -> %s", v, dir)
		job.Deliver(v, &ompi.Directive{
			Interval: req.Interval, FS: nodeFS, Dir: dir,
			Terminate: req.Terminate, Result: results,
		})
	}
	clean := true
	for range req.Vpids {
		res := <-results
		pr := procResult{Vpid: res.Rank, Component: res.Component, Files: res.Files, Dir: dirs[res.Rank],
			QuiesceNS: res.QuiesceNS, CaptureNS: res.CaptureNS}
		if res.Err != nil {
			pr.Err = res.Err.Error()
			clean = false
			ack.Results = append(ack.Results, pr)
			continue
		}
		// Local snapshot metadata makes the directory self-describing.
		meta := snapshot.LocalMeta{
			Component: res.Component,
			JobID:     req.Job, Vpid: res.Rank,
			Interval: req.Interval, Node: node,
			Files: res.Files, Taken: time.Now(),
		}
		if _, err := snapshot.WriteLocal(nodeFS, dirs[res.Rank], meta); err != nil {
			pr.Err = err.Error()
			clean = false
		} else if sz, err := vfs.TreeSize(nodeFS, dirs[res.Rank]); err == nil {
			pr.Bytes = sz
		}
		ack.Results = append(ack.Results, pr)
	}
	// Every rank staged: seal the node's share of the interval with the
	// LOCAL_COMMITTED marker. The async drain and the restart fast path
	// trust a node-local stage only under this marker — it is the local
	// analogue of the global COMMITTED file.
	if clean {
		marker := path.Join(req.BaseDir, snapshot.LocalCommittedFile)
		body := fmt.Sprintf("job %d interval %d procs %d\n", req.Job, req.Interval, len(req.Vpids))
		if err := nodeFS.WriteFile(marker, []byte(body)); err != nil {
			ack.Err = fmt.Sprintf("seal local stage: %v", err)
		}
	}
	return ack
}
