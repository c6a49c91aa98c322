package runtime

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/opal/crs"
	"repro/internal/orte/filem"
	"repro/internal/orte/ledger"
	"repro/internal/orte/names"
	"repro/internal/orte/plm"
	"repro/internal/orte/snapc"
	"repro/internal/vfs"
)

// JobSpec describes an application launch.
type JobSpec struct {
	// Name identifies the application (recorded in snapshot metadata).
	Name string
	// Args are the application's arguments (recorded in metadata).
	Args []string
	// NP is the number of ranks.
	NP int
	// AppFactory builds the rank-local application instance.
	AppFactory func(rank int) ompi.App
	// Params overlays job-specific MCA parameters on the cluster's.
	Params *mca.Params
	// CRSByRank optionally selects a CRS component per rank (returning
	// "" falls back to the job-wide selection). Local snapshots record
	// which checkpointer produced them, so one global snapshot may mix
	// components — the paper's heterogeneous-support scenario (§4).
	CRSByRank func(rank int) string
}

// rankSlot is one rank of a job: its current incarnation and what the
// rank table shows beside it. The proc pointer is the incarnation: the
// freeze detaches a lost proc (nil until the respawn fills the slot), so
// a superseded incarnation is told apart by identity, and every
// lifecycle question (checkpointable, initialized, done, failed) is
// asked of the current proc rather than of a copy.
type rankSlot struct {
	proc     *ompi.Proc // current incarnation; nil between freeze and respawn
	app      ompi.App
	node     string
	interval int    // last checkpoint interval the rank took part in, -1 before
	source   string // where the incarnation's state came from (RankInfo.Source)
}

// Job is one launched parallel application.
type Job struct {
	cluster *Cluster
	id      names.JobID
	spec    JobSpec
	params  *mca.Params

	// Component selections are kept so the recovery coordinator can
	// respawn ranks with the same stack the job launched with.
	btlComp  btl.Component
	crcpComp crcp.Component
	crsFor   func(rank int) (crs.Component, error)

	slots  []rankSlot    // one per rank (mu)
	fabric btl.JobFabric // job transport; Close aborts the job (mu)

	// capMu serializes this job's capture phases: one interval of a job
	// captures at a time, but different jobs capture concurrently —
	// their coordinators share the HNP mailbox via job-matched receives.
	capMu sync.Mutex

	mu           sync.Mutex
	nextInterval int
	handler      RecoveryHandler
	recov        *RecoverySession // active recovery session, nil otherwise
	frozen       chan struct{}    // closed and replaced when a session begins (mu)

	wg   sync.WaitGroup // one per live rank goroutine (respawns included) and rank-requested checkpoint
	done chan struct{}
}

// effectiveParams overlays job params on cluster params.
func effectiveParams(cluster *mca.Params, job *mca.Params) *mca.Params {
	out := cluster.Clone()
	for _, k := range job.Keys() {
		v, _ := job.Lookup(k)
		out.Set(k, v)
	}
	return out
}

// Launch starts a job on the cluster: the PLM places ranks on nodes,
// processes attach to a fresh fabric, and each rank's application runs
// on its own goroutine.
func (c *Cluster) Launch(spec JobSpec) (*Job, error) {
	return c.launch(spec, nil, nil)
}

// launch implements Launch and Restart. placementOverride fixes the
// rank->node map (restart may re-place); restores supplies per-rank
// restore specs.
func (c *Cluster) launch(spec JobSpec, placementOverride map[int]string, restores []*ompi.RestoreSpec) (*Job, error) {
	if err := c.headlessErr(); err != nil {
		return nil, err
	}
	if spec.NP <= 0 {
		return nil, fmt.Errorf("runtime: job needs NP > 0, got %d", spec.NP)
	}
	if spec.AppFactory == nil {
		return nil, fmt.Errorf("runtime: job needs an AppFactory")
	}
	params := effectiveParams(c.params, spec.Params)

	placement := placementOverride
	if placement == nil {
		var err error
		placement, err = c.plmComp.MapProcs(spec.NP, c.NodeSpecs())
		if err != nil {
			return nil, fmt.Errorf("runtime: place job: %w", err)
		}
	}

	defaultCRS, err := c.crsFw.Select(params)
	if err != nil {
		return nil, err
	}
	crsFor := func(rank int) (crs.Component, error) {
		if spec.CRSByRank != nil {
			if name := spec.CRSByRank(rank); name != "" {
				return c.crsFw.Lookup(name)
			}
		}
		return defaultCRS, nil
	}
	crcpComp, err := c.crcpFw.Select(params)
	if err != nil {
		return nil, err
	}
	btlComp, err := c.btlFw.Select(params)
	if err != nil {
		return nil, err
	}

	j := &Job{
		cluster:  c,
		id:       c.ns.AllocateJob(),
		spec:     spec,
		params:   params,
		btlComp:  btlComp,
		crcpComp: crcpComp,
		crsFor:   crsFor,
		slots:    make([]rankSlot, spec.NP),
		frozen:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	for r := 0; r < spec.NP; r++ {
		node := placement[r]
		if _, ok := c.nodes[node]; !ok {
			return nil, fmt.Errorf("runtime: rank %d placed on unknown node %q", r, node)
		}
		if !c.Alive(node) {
			return nil, fmt.Errorf("runtime: rank %d placed on dead node %q", r, node)
		}
	}

	fabric, err := btlComp.NewFabric(spec.NP)
	if err != nil {
		return nil, fmt.Errorf("runtime: job fabric: %w", err)
	}
	j.fabric = fabric
	for r := 0; r < spec.NP; r++ {
		proc, err := j.newRankProc(r, placement[r], fabric, nil)
		if err != nil {
			return nil, err
		}
		j.slots[r] = rankSlot{proc: proc, app: spec.AppFactory(r), node: placement[r], interval: -1, source: "fresh"}
	}

	// Job ids restart with each HNP, so a fresh cluster sharing stable
	// storage with an earlier run can collide with its global snapshot
	// directory. Committed intervals are never overwritten: continue the
	// interval sequence past whatever is already there.
	ref := snapshot.GlobalRef{FS: c.stable, Dir: snapshot.GlobalDirName(int(j.id))}
	if iv, err := snapshot.LatestInterval(ref); err == nil {
		j.nextInterval = iv + 1
	}

	c.mu.Lock()
	c.jobs[j.id] = j
	c.mu.Unlock()
	c.ins.Emit("hnp", "job.launch", "job %d np=%d app=%s", j.id, spec.NP, spec.Name)
	c.ledgerAppend(ledger.TypeJobLaunch, int(j.id),
		ledger.JobLaunch{Name: spec.Name, NP: spec.NP, Placement: placement})

	for r := 0; r < spec.NP; r++ {
		var rs *ompi.RestoreSpec
		if restores != nil {
			rs = restores[r]
		}
		j.wg.Add(1)
		go j.runRank(r, j.slots[r].proc, j.slots[r].app, rs)
	}
	go func() {
		j.wg.Wait()
		j.closeFabric() // release transport resources (TCP connections)
		c.ins.Emit("hnp", "job.done", "job %d", j.id)
		// Ledger first: once Wait returns, a cold reattach must already
		// see the job as finished, not as live work to re-adopt.
		c.ledgerAppend(ledger.TypeJobDone, int(j.id), nil)
		close(j.done)
	}()
	return j, nil
}

// fenceStaleDirectivesLocked fences every checkpoint interval
// allocated so far on every rank (j.mu held): after an HNP crash or a
// recovery session, a directive from a coordinator that is gone, parked
// in a survivor's mailbox, would force ranks to a step frontier nobody
// coordinates.
func (j *Job) fenceStaleDirectivesLocked() {
	fence := j.nextInterval - 1
	for _, sl := range j.slots {
		if sl.proc != nil {
			sl.proc.FenceDirectives(fence)
		}
	}
}

// newRankProc builds one rank's process object, wired to the job's
// lifecycle hooks. Used at launch and again when the recovery
// coordinator respawns a lost rank on a replacement node.
func (j *Job) newRankProc(r int, node string, fabric btl.JobFabric, gate func([]byte, error) error) (*ompi.Proc, error) {
	crsComp, err := j.crsFor(r)
	if err != nil {
		return nil, fmt.Errorf("runtime: rank %d CRS: %w", r, err)
	}
	var proc *ompi.Proc
	proc, err = ompi.NewProc(ompi.Config{
		JobID: int(j.id), Rank: r, Size: j.spec.NP,
		Node: node, PID: 1000*int(j.id) + r,
		Fabric: fabric, Params: j.params,
		CRS: crsComp, CRCP: j.crcpComp, Ins: j.cluster.ins,
		SyncCheckpoint: j.syncCheckpoint,
		Recover:        func(cause error) (*ompi.RecoverOrder, error) { return j.awaitRecovery(r, proc, cause) },
		RecoveryGate:   gate,
	})
	if err != nil {
		return nil, fmt.Errorf("runtime: create rank %d: %w", r, err)
	}
	return proc, nil
}

// syncCheckpoint serves a rank's synchronous checkpoint request. The
// requesting rank participates in the checkpoint it triggers, so the
// global request must run concurrently: blocking here would deadlock the
// coordinator against the caller's own participation. The request
// counts as live job work: the job is not done until the checkpoint it
// asked for has committed (or failed).
func (j *Job) syncCheckpoint() error {
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		if _, err := j.cluster.CheckpointJob(j.id, snapc.Options{}); err != nil {
			j.cluster.ins.Emit("hnp", "ckpt.sync-error", "job %d: %v", j.id, err)
		}
	}()
	return nil
}

// runRank drives one incarnation of a rank slot. The process records
// its own exit; runRank only decides whether a failure aborts the job.
func (j *Job) runRank(r int, proc *ompi.Proc, app ompi.App, rs *ompi.RestoreSpec) {
	defer j.wg.Done()
	if proc.Run(app, rs) == nil {
		return
	}
	j.mu.Lock()
	// A superseded incarnation (its slot was detached at a freeze) no
	// longer speaks for the rank, and while a recovery session owns the
	// job survivors are parked, not dead.
	abort := j.slots[r].proc == proc && j.recov == nil
	fab := j.fabric
	j.mu.Unlock()
	if abort {
		// A failed rank aborts the whole job, as mpirun kills a
		// parallel job when one process dies: closing the fabric fails
		// every peer blocked in communication.
		fab.Close()
	}
}

// closeFabric closes the job's current fabric under the lock (recovery
// swaps fabrics, so the field must not be read bare).
func (j *Job) closeFabric() {
	j.mu.Lock()
	fab := j.fabric
	j.mu.Unlock()
	fab.Close()
}

// Wait blocks until every rank finished and returns the combined error
// of all failed ranks (nil if the job completed cleanly). A rank counts
// through its current incarnation: a detached one's exit is not the
// rank's.
func (j *Job) Wait() error {
	<-j.done
	var errs []error
	for r := range j.slots {
		if p := j.Proc(r); p != nil {
			if err := p.Status().Err; err != nil {
				errs = append(errs, fmt.Errorf("runtime: job %d rank %d: %w", j.id, r, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Done reports (without blocking) whether the job has finished.
func (j *Job) Done() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// App returns the rank-local application instance (examples inspect it).
// Recovery replaces slot entries, so reads go through the lock.
func (j *Job) App(rank int) ompi.App {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slots[rank].app
}

// hasRanksOn reports whether any rank of the job runs on node.
func (j *Job) hasRanksOn(node string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, sl := range j.slots {
		if sl.node == node {
			return true
		}
	}
	return false
}

// Proc returns the rank's current process object: nil while a recovery
// session has detached the lost incarnation and not yet respawned it.
func (j *Job) Proc(rank int) *ompi.Proc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slots[rank].proc
}

// awaitInitialized waits until no rank is still pre-MPI_INIT, so a
// checkpoint requested during job startup waits for initialization
// instead of failing spuriously. During a recovery session it does not
// wait: the precheck refuses the frozen job at once.
func (j *Job) awaitInitialized(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		var next <-chan struct{}
		j.mu.Lock()
		for r := 0; r < len(j.slots) && next == nil && j.recov == nil; r++ {
			if p := j.slots[r].proc; p != nil {
				if st, ch := p.Watch(); st.Phase == ompi.PhaseLaunching {
					next = ch
				}
			}
		}
		j.mu.Unlock()
		if next == nil {
			return nil
		}
		select {
		case <-next:
		case <-deadline.C:
			return fmt.Errorf("runtime: job %d did not finish initializing within %v", j.id, timeout)
		}
	}
}

// --- snapc.JobView -----------------------------------------------------------

// JobID implements snapc.JobView.
func (j *Job) JobID() names.JobID { return j.id }

// AppName implements snapc.JobView.
func (j *Job) AppName() string { return j.spec.Name }

// AppArgs implements snapc.JobView.
func (j *Job) AppArgs() []string { return j.spec.Args }

// NumProcs implements snapc.JobView.
func (j *Job) NumProcs() int { return j.spec.NP }

// NodeOf implements snapc.JobView.
func (j *Job) NodeOf(vpid int) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slots[vpid].node
}

// Nodes implements snapc.JobView: the distinct nodes hosting ranks, in
// order of first appearance by rank.
func (j *Job) Nodes() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []string
	seen := make(map[string]bool)
	for _, sl := range j.slots {
		if !seen[sl.node] {
			seen[sl.node] = true
			out = append(out, sl.node)
		}
	}
	return out
}

// Checkpointable implements snapc.JobView: the rank's current
// incarnation is stepping.
func (j *Job) Checkpointable(vpid int) bool {
	p := j.Proc(vpid)
	return p != nil && p.Status().Phase == ompi.PhaseStepping
}

// Deliver implements snapc.JobView. A slot detached by a recovery
// freeze refuses the directive on the lost incarnation's behalf.
func (j *Job) Deliver(vpid int, d *ompi.Directive) {
	if p := j.Proc(vpid); p != nil {
		p.Deliver(d)
	} else if d.Result != nil {
		d.Result <- ompi.ParticipationResult{Rank: vpid,
			Err: fmt.Errorf("%w: rank %d is being replaced", ompi.ErrFinalized, vpid)}
	}
}

// Params implements snapc.JobView.
func (j *Job) Params() *mca.Params { return j.params }

var _ snapc.JobView = (*Job)(nil)

// --- Checkpoint and restart ---------------------------------------------------

// CheckpointJobAsync runs the synchronous capture phase of a global
// checkpoint — quiesce → capture → release, ending with the interval
// staged node-local — and hands the interval to the background drain
// queue. The returned ticket's Wait blocks until the drain (gather →
// commit → replicate) finishes. Captures are serialized per job — the
// drain of interval N overlaps the capture of interval N+1, and
// different jobs' captures overlap each other.
func (c *Cluster) CheckpointJobAsync(id names.JobID, opts snapc.Options) (*snapc.Pending, error) {
	cpt, err := c.captureJob(id, opts)
	if err != nil {
		return nil, err
	}
	return c.Drainer().Enqueue(cpt)
}

// captureJob is the synchronous half every checkpoint flavor shares:
// quiesce → capture → release under the capture gate, ending with the
// interval staged node-local. CheckpointJobAsync hands the result to
// the drain queue; CheckpointJobLevel seals it at a sub-stable level.
func (c *Cluster) captureJob(id names.JobID, opts snapc.Options) (*snapc.Captured, error) {
	if err := c.headlessErr(); err != nil {
		return nil, err
	}
	j, err := c.Job(id)
	if err != nil {
		return nil, err
	}
	j.capMu.Lock()
	defer j.capMu.Unlock()
	if err := j.awaitInitialized(10 * time.Second); err != nil {
		return nil, err
	}
	j.mu.Lock()
	interval := j.nextInterval
	j.nextInterval++
	j.mu.Unlock()
	globalDir := snapshot.GlobalDirName(int(id))
	// Stage retention is the job's, decided here alone: a job with a
	// recovery handler keeps the node-local stages of its newest
	// committed interval, the survivors' in-place rollback source, and
	// the commit that supersedes them drops them. A terminate checkpoint,
	// and a job without a handler, keep none.
	opts.KeepLocal = j.HasRecoveryHandler() && !opts.Terminate
	// The capture gate (snapc_capture_gate) bounds how many jobs
	// quiesce-and-capture at once, in the drain scheduler's
	// weighted-fair order; unlimited by default.
	if err := c.Drainer().AcquireCapture(globalDir, j); err != nil {
		return nil, err
	}
	cpt, err := c.snapcComp.Capture(c.snapcEnv, j, c.hnpEndpoint(), c.daemons, globalDir, interval, opts)
	c.Drainer().ReleaseCapture(globalDir)
	if err != nil {
		// An injected HNP crash inside the quiesce window takes the
		// whole coordinator down: the directives already fanned out, the
		// orteds seal their stages autonomously, and Reattach's journal
		// rebuild resurrects the interval from them.
		if errors.Is(err, snapc.ErrHNPCrashed) {
			_ = c.CrashHNP(err)
		}
		return nil, err
	}
	j.noteCheckpoint(interval)
	return cpt, nil
}

// CheckpointJob runs a global checkpoint of the job through the SNAPC
// component and returns the result, whose Ref is the global snapshot
// reference the paper's tools print. The synchronous path is exactly
// the asynchronous one awaited immediately — one code path, one
// journal, one state machine.
func (c *Cluster) CheckpointJob(id names.JobID, opts snapc.Options) (snapc.Result, error) {
	p, err := c.CheckpointJobAsync(id, opts)
	if err != nil {
		return snapc.Result{}, err
	}
	return p.Wait()
}

// Restart relaunches a job from a global snapshot reference, possibly
// on a different cluster or node mapping. Everything but the application
// factory comes from the snapshot metadata — the user recalls nothing.
func (c *Cluster) Restart(ref snapshot.GlobalRef, interval int, appFactory func(rank int) ompi.App) (*Job, error) {
	if err := c.headlessErr(); err != nil {
		return nil, err
	}
	meta, err := snapshot.ReadGlobal(ref, interval)
	if err != nil {
		return nil, err
	}
	params := mca.FromMap(meta.MCAParams)
	// Re-place the ranks on this cluster's nodes (may differ from the
	// original mapping: the restart mechanism "maps onto the
	// heterogeneous environment as required by the global snapshot").
	plmComp, err := plm.NewFramework().Select(params)
	if err != nil {
		return nil, err
	}
	placement, err := plmComp.MapProcs(meta.NumProcs, c.NodeSpecs())
	if err != nil {
		return nil, fmt.Errorf("runtime: place restarted job: %w", err)
	}

	// FILEM broadcast: each rank restores from the first copy the
	// restore-source ladder finds, preloaded onto its new node unless it
	// already lives there. A snapshot on another store has no copies on
	// this cluster's nodes (job ids and intervals restart on every
	// cluster, so a node copy of the same name is another job's): only
	// the stable rung applies.
	res := c.Resolver(ref.Dir)
	if ref.FS != c.stable {
		res = &snapshot.Resolver{Ref: ref, Ins: c.ins}
	}
	plans := make([]RestorePlan, meta.NumProcs) // the metadata lists every rank once
	for _, pe := range meta.Procs {
		plans[pe.Vpid] = RestorePlan{Rank: pe.Vpid, Origin: pe.Node, Node: placement[pe.Vpid]}
	}
	spec := JobSpec{
		Name:       meta.AppName,
		Args:       meta.AppArgs,
		NP:         meta.NumProcs,
		AppFactory: appFactory,
		Params:     params,
	}
	c.ins.Emit("hnp", "job.restart", "from %s interval %d np=%d", ref.Dir, interval, meta.NumProcs)
	ladder := res.CommittedLadder(meta, snapshot.Copy{FS: ref.FS, Dir: ref.IntervalDir(interval)})
	j, err := c.relaunch(spec, ladder, plans, meta.JobID, interval)
	if err != nil {
		return nil, err
	}
	for _, p := range plans {
		if p.Src.Kind == snapshot.FromStage {
			c.ins.Counter("ompi_restart_local_fast_path_total").Inc()
			c.ins.Emit("hnp", "restart.local-fast-path",
				"rank %d restored from node %q local stage (interval %d)", p.Rank, p.Node, interval)
		}
	}
	return j, nil
}

// Resolver builds the replica-aware resolver of one snapshot lineage
// over this cluster's stable storage and live nodes.
func (c *Cluster) Resolver(dir string) *snapshot.Resolver {
	return &snapshot.Resolver{
		Ref:    snapshot.GlobalRef{FS: c.stable, Dir: dir},
		Nodes:  c.AliveNodes(),
		NodeFS: c.NodeFS,
		Ins:    c.ins,
	}
}

// StageRoot returns a fresh staging directory for one restart or
// recovery attempt, tmp/<name>-<seq>: FILEM stages each rank's copy in
// a subdirectory, and nothing else ever writes under it.
func (c *Cluster) StageRoot(name string) string {
	return fmt.Sprintf("tmp/%s-%d", name, c.stageSeq.Add(1))
}

// RestorePlan is one rank's restore: the node the rank ran on at the
// interval (Origin) and the node it restores on (Node). StageRestores
// fills in the source it restores from, the restore built on Node, and
// the bytes FILEM staged for it.
type RestorePlan struct {
	Rank    int
	Origin  string
	Node    string
	Src     snapshot.Source
	Restore *ompi.RestoreSpec
	Bytes   int64
}

// ReleaseRestores drops every copy the plans staged that no rank has
// restored from (a rank that restored has dropped its own already).
func ReleaseRestores(plans []RestorePlan) {
	for i := range plans {
		plans[i].release()
	}
}

func (p *RestorePlan) release() {
	if p.Restore != nil {
		p.Restore.Release()
	}
	p.Restore = nil
}

// errStagingAborted reports a StageRestores stopped by its abort
// channel.
var errStagingAborted = errors.New("runtime: restore staging aborted")

// StageRestores is the restore tail every restart path shares: each
// plan's rank walks the ladder, and the first copy that checks out is
// made readable on the rank's node (restoreOn), staged under root (a
// StageRoot) when it lives elsewhere. The nodes stage concurrently,
// each its own ranks in rank order, so every node's operations run in
// the same order on every run. A closed abort (nil: never) stops the
// staging before the next rank. Returns nil when every plan staged;
// otherwise one error per plan (nil for those that staged), having
// released everything it staged. Every plan of root must be staged
// before any rank restores from it.
func (c *Cluster) StageRestores(ladder *snapshot.Ladder, root string, plans []RestorePlan, abort <-chan struct{}) []error {
	byNode := make(map[string][]int) // node -> its plans, in rank order
	for i, p := range plans {
		byNode[p.Node] = append(byNode[p.Node], i)
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for _, idx := range byNode {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			for _, i := range idx {
				select {
				case <-abort:
					errs[i] = errStagingAborted
					return
				default:
				}
				if errs[i] = c.stageRestore(ladder, root, &plans[i]); errs[i] != nil {
					return
				}
			}
		}(idx)
	}
	wg.Wait()
	if errors.Join(errs...) == nil {
		return nil
	}
	ReleaseRestores(plans)
	return errs
}

// stageRestore restores one plan's rank from the first rung of the
// ladder whose copy checks out on the plan's node.
func (c *Cluster) stageRestore(ladder *snapshot.Ladder, root string, p *RestorePlan) error {
	src, err := ladder.Walk(p.Rank, p.Origin, p.Node, func(src snapshot.Source) (snapshot.LocalMeta, error) {
		p.release() // an earlier rung's copy, staged but not this rank's share
		var meta snapshot.LocalMeta
		var err error
		p.Restore, meta, p.Bytes, err = c.restoreOn(src, p.Node, root, p.Rank)
		return meta, err
	})
	if err != nil {
		p.release()
		return fmt.Errorf("runtime: restore rank %d on %q: %w", p.Rank, p.Node, err)
	}
	p.Src = src
	return nil
}

// restoreOn builds one rank's restore on node from src: in place when
// the copy lives on node (or on a store FILEM does not serve: another
// cluster's stable storage), and otherwise from a copy FILEM stages
// under root there, which the rank drops once it has restored from it
// (RestoreSpec.Release).
//
// A source carrying its share's digests (src.Sums, from a ShareLadder)
// is checked where it is read, once: a copy in place is hashed on its
// node, a staged one from the bytes FILEM reads to stage it. A source
// without digests is taken as read (whole-job restart reads copies the
// resolver verified). A share that does not check out, or whose local
// metadata does not read, fails with snapshot.ErrCorrupt and leaves
// nothing staged. Returns the restore, the share's local metadata as
// read from the copy the rank restores, and the bytes staged.
func (c *Cluster) restoreOn(src snapshot.Source, node, root string, rank int) (*ompi.RestoreSpec, snapshot.LocalMeta, int64, error) {
	var meta snapshot.LocalMeta
	rs := &ompi.RestoreSpec{FS: src.FS, Dir: src.Dir, Release: func() {}} // in place: nothing to drop
	sums, staged := src.Sums, int64(0)
	if src.Node != node && (src.Node != "" || src.FS == c.stable) {
		fsys, err := c.nodeFS(node)
		if err != nil {
			return nil, meta, 0, err
		}
		from := src.Node
		if from == "" {
			from = filem.StableNode
		}
		dir := path.Join(root, snapshot.LocalDirName(rank))
		rs = &ompi.RestoreSpec{FS: fsys, Dir: dir, Release: func() { dropStaged(fsys, root, dir) }}
		st, err := c.filemComp.Move(c.filemEnv, []filem.Request{{
			SrcNode: from, SrcPath: src.Dir, DstNode: node, DstPath: dir, Sums: src.Sums,
		}})
		if err != nil {
			rs.Release()
			if errors.Is(err, filem.ErrDigestMismatch) {
				err = fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
			}
			return nil, meta, 0, err
		}
		sums, staged = nil, st.Bytes // the staged bytes were checked on the way in
	}
	var err error
	if sums != nil {
		meta, err = snapshot.VerifyShare(rs.FS, rs.Dir, sums)
	} else if meta, err = snapshot.ReadLocal(snapshot.LocalRef{FS: rs.FS, Dir: rs.Dir}); err != nil {
		err = fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	if err != nil {
		rs.Release()
		return nil, meta, 0, err
	}
	rs.Files = meta.Files
	return rs, meta, staged, nil
}

// dropStaged removes one rank's staged restore copy, then its staging
// root once that is empty. The root belongs to one attempt, which has
// staged every rank before any releases, so nothing lands in it between
// the check and the removal. Removing a copy already gone is a no-op.
func dropStaged(fsys vfs.FS, root, dir string) {
	if fsys.Remove(dir) != nil {
		return
	}
	if ents, err := fsys.ReadDir(root); err == nil && len(ents) == 0 {
		_ = fsys.Remove(root)
	}
}

// relaunch is the tail whole-job and hold-direct restart share: every
// plan's rank restores on its node (StageRestores, staging under
// tmp/restart/ what lives elsewhere), the job launches, and the rank
// table records each source. plans are in rank order.
func (c *Cluster) relaunch(spec JobSpec, ladder *snapshot.Ladder, plans []RestorePlan, jobID, interval int) (*Job, error) {
	root := c.StageRoot(fmt.Sprintf("restart/job%d-iv%d", jobID, interval))
	if err := errors.Join(c.StageRestores(ladder, root, plans, nil)...); err != nil {
		return nil, err
	}
	placement := make(map[int]string, len(plans))
	restores := make([]*ompi.RestoreSpec, len(plans))
	for _, p := range plans {
		placement[p.Rank], restores[p.Rank] = p.Node, p.Restore
		c.ins.Counter("ompi_restart_restored_bytes_total").Add(p.Bytes)
	}
	// Per-process CRS components may differ (heterogeneous snapshots):
	// each local snapshot's metadata records the checkpointer that
	// produced it, and the restarted rank must use the same one.
	spec.CRSByRank = func(rank int) string { return plans[rank].Src.Meta.Component }
	j, err := c.launch(spec, placement, restores)
	if err != nil {
		ReleaseRestores(plans)
		return nil, err
	}
	j.mu.Lock()
	for _, p := range plans {
		j.slots[p.Rank].source = "restored:" + p.Src.Label()
		j.slots[p.Rank].interval = interval
	}
	j.mu.Unlock()
	return j, nil
}
