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

// ckptState tracks one rank's checkpointability: unknown until the rank
// completes MPI_INIT, yes between init and finalize, no after finalize
// entry or when the application opted out.
type ckptState int8

const (
	ckptUnknown ckptState = iota
	ckptYes
	ckptNo
)

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

	placement map[int]string // rank -> node; guarded by mu after launch
	nodes     []string       // distinct nodes, stable order; guarded by mu
	procs     []*ompi.Proc   // rank slots; entries replaced on respawn (mu)
	apps      []ompi.App     // rank slots; entries replaced on respawn (mu)
	fabric    btl.JobFabric  // job transport; Close aborts the job (mu)

	// capMu serializes this job's capture phases: one interval of a job
	// captures at a time, but different jobs capture concurrently —
	// their coordinators share the HNP mailbox via job-matched receives.
	capMu sync.Mutex

	mu             sync.Mutex
	checkpointable []ckptState
	nextInterval   int
	epochs         []int      // per-rank incarnation counter (mu)
	rankMeta       []RankInfo // per-rank observability (mu)
	handler        RecoveryHandler
	recov          *RecoverySession // active recovery session, nil otherwise

	wg   sync.WaitGroup // one per live rank goroutine (respawns included) and rank-requested checkpoint
	errs []error
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
		cluster:        c,
		id:             c.ns.AllocateJob(),
		spec:           spec,
		params:         params,
		btlComp:        btlComp,
		crcpComp:       crcpComp,
		crsFor:         crsFor,
		placement:      placement,
		checkpointable: make([]ckptState, spec.NP),
		epochs:         make([]int, spec.NP),
		rankMeta:       make([]RankInfo, spec.NP),
		done:           make(chan struct{}),
		errs:           make([]error, spec.NP),
	}
	for r := 0; r < spec.NP; r++ {
		j.rankMeta[r] = RankInfo{Rank: r, Node: placement[r], State: RankRunning, Interval: -1, Source: "fresh"}
	}
	seen := make(map[string]bool)
	for r := 0; r < spec.NP; r++ {
		node := placement[r]
		if _, ok := c.nodes[node]; !ok {
			return nil, fmt.Errorf("runtime: rank %d placed on unknown node %q", r, node)
		}
		if !c.Alive(node) {
			return nil, fmt.Errorf("runtime: rank %d placed on dead node %q", r, node)
		}
		if !seen[node] {
			seen[node] = true
			j.nodes = append(j.nodes, node)
		}
	}

	fabric, err := btlComp.NewFabric(spec.NP)
	if err != nil {
		return nil, fmt.Errorf("runtime: job fabric: %w", err)
	}
	j.fabric = fabric
	j.procs = make([]*ompi.Proc, spec.NP)
	j.apps = make([]ompi.App, spec.NP)
	for r := 0; r < spec.NP; r++ {
		proc, err := j.newRankProc(r, placement[r], fabric, nil)
		if err != nil {
			return nil, err
		}
		j.procs[r] = proc
		j.apps[r] = spec.AppFactory(r)
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
		go j.runRank(r, 0, j.procs[r], j.apps[r], rs)
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

// fenceStaleDirectives fences every checkpoint interval allocated so
// far on every rank: after an HNP crash, a directive from the dead
// coordinator parked in a survivor's mailbox would force ranks to a
// step frontier nobody coordinates (see CompleteRecovery for the same
// fence at session close).
func (j *Job) fenceStaleDirectives() {
	j.mu.Lock()
	defer j.mu.Unlock()
	fence := j.nextInterval - 1
	for r := 0; r < j.spec.NP; r++ {
		if p := j.procs[r]; p != nil {
			p.FenceDirectives(fence)
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
	j.mu.Lock()
	epoch := j.epochs[r]
	j.mu.Unlock()
	proc, err := ompi.NewProc(ompi.Config{
		JobID: int(j.id), Rank: r, Size: j.spec.NP,
		Node: node, PID: 1000*int(j.id) + r,
		Fabric: fabric, Params: j.params,
		CRS: crsComp, CRCP: j.crcpComp, Ins: j.cluster.ins,
		SyncCheckpoint:       j.syncCheckpoint,
		NotifyCheckpointable: func(ok bool) { j.setCheckpointable(r, epoch, ok) },
		Recover:              func(cause error) (*ompi.RecoverOrder, error) { return j.awaitRecovery(r, cause) },
		RecoveryGate:         gate,
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

// runRank drives one incarnation of a rank slot. The epoch guards
// bookkeeping: when the slot has been respawned (lost-node recovery or
// migration), the stale incarnation's exit is discarded.
func (j *Job) runRank(r, epoch int, proc *ompi.Proc, app ompi.App, rs *ompi.RestoreSpec) {
	defer j.wg.Done()
	err := proc.Run(app, rs)
	j.mu.Lock()
	if epoch != j.epochs[r] {
		j.mu.Unlock()
		return // superseded incarnation; the respawn owns this slot now
	}
	j.errs[r] = err
	if err != nil {
		j.rankMeta[r].State = RankFailed
	} else if j.rankMeta[r].State != RankMigrated {
		j.rankMeta[r].State = RankDone
	}
	fab := j.fabric
	abort := err != nil && j.recov == nil
	j.mu.Unlock()
	if abort {
		// A failed rank aborts the whole job, as mpirun kills a
		// parallel job when one process dies: closing the fabric fails
		// every peer blocked in communication. Suppressed while a
		// recovery session owns the job: survivors are parked, not dead.
		j.setCheckpointable(r, epoch, false)
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
// of all failed ranks (nil if the job completed cleanly).
func (j *Job) Wait() error {
	<-j.done
	var errs []error
	for r, err := range j.errs {
		if err != nil {
			errs = append(errs, fmt.Errorf("runtime: job %d rank %d: %w", j.id, r, err))
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
	return j.apps[rank]
}

// hasRanksOn reports whether any rank of the job runs on node.
func (j *Job) hasRanksOn(node string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, n := range j.nodes {
		if n == node {
			return true
		}
	}
	return false
}

// Proc returns the rank's process object.
func (j *Job) Proc(rank int) *ompi.Proc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.procs[rank]
}

func (j *Job) setCheckpointable(rank, epoch int, ok bool) {
	st := ckptNo
	if ok {
		st = ckptYes
	}
	j.mu.Lock()
	if epoch == j.epochs[rank] { // a superseded incarnation no longer speaks for the slot
		j.checkpointable[rank] = st
	}
	j.mu.Unlock()
}

// awaitInitialized waits until no rank is still pre-MPI_INIT, so a
// checkpoint requested during job startup waits for initialization
// instead of failing spuriously.
func (j *Job) awaitInitialized(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := true
		j.mu.Lock()
		for _, st := range j.checkpointable {
			if st == ckptUnknown {
				ready = false
				break
			}
		}
		j.mu.Unlock()
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("runtime: job %d did not finish initializing within %v", j.id, timeout)
		}
		time.Sleep(200 * time.Microsecond)
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
	return j.placement[vpid]
}

// Nodes implements snapc.JobView.
func (j *Job) Nodes() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, len(j.nodes))
	copy(out, j.nodes)
	return out
}

// Checkpointable implements snapc.JobView.
func (j *Job) Checkpointable(vpid int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpointable[vpid] == ckptYes
}

// Deliver implements snapc.JobView.
func (j *Job) Deliver(vpid int, d *ompi.Directive) { j.Proc(vpid).Deliver(d) }

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

	// FILEM broadcast: preload each local snapshot from stable storage
	// onto the node that will host the restarted rank — unless the rank
	// lands back on the node that captured it and that node still holds
	// the interval's sealed local stage, in which case the restart
	// restores straight from it (no stable-storage round-trip). The
	// local stage outlives the job when checkpoints keep local copies or
	// when drain recovery preserved it.
	restores := make([]*ompi.RestoreSpec, meta.NumProcs)
	sources := make(map[int]string, meta.NumProcs)
	localBase := snapshot.LocalStageBase(meta.JobID, interval)
	for _, pe := range meta.Procs {
		node := placement[pe.Vpid]
		if node == pe.Node {
			if nodeFS, err := c.nodeFS(node); err == nil &&
				vfs.Exists(nodeFS, path.Join(localBase, snapshot.LocalCommittedFile)) {
				localDir := path.Join(localBase, snapshot.LocalDirName(pe.Vpid))
				if lmeta, err := snapshot.ReadLocal(snapshot.LocalRef{FS: nodeFS, Dir: localDir}); err == nil &&
					lmeta.Interval == interval && lmeta.JobID == meta.JobID && lmeta.Vpid == pe.Vpid {
					restores[pe.Vpid] = &ompi.RestoreSpec{FS: nodeFS, Dir: localDir, Files: lmeta.Files}
					sources[pe.Vpid] = "restored:local-stage"
					c.ins.Counter("ompi_restart_local_fast_path_total").Inc()
					c.ins.Emit("hnp", "restart.local-fast-path",
						"rank %d restored from node %q local stage (interval %d)", pe.Vpid, node, interval)
					continue
				}
			}
		}
		lref := snapshot.LocalRefIn(ref, interval, pe)
		lmeta, err := snapshot.ReadLocal(lref)
		if err != nil {
			return nil, fmt.Errorf("runtime: restart rank %d: %w", pe.Vpid, err)
		}
		dstDir := fmt.Sprintf("tmp/restart/job%d/%d/%s", meta.JobID, interval, snapshot.LocalDirName(pe.Vpid))
		st, err := c.filemComp.Move(c.filemEnv, []filem.Request{{
			SrcNode: filem.StableNode, SrcPath: lref.Dir,
			DstNode: node, DstPath: dstDir,
		}})
		if err != nil {
			return nil, fmt.Errorf("runtime: preload rank %d on %q: %w", pe.Vpid, node, err)
		}
		c.ins.Counter("ompi_restart_restored_bytes_total").Add(st.Bytes)
		nodeFS, err := c.nodeFS(node)
		if err != nil {
			return nil, err
		}
		restores[pe.Vpid] = &ompi.RestoreSpec{FS: nodeFS, Dir: dstDir, Files: lmeta.Files}
		sources[pe.Vpid] = "restored:stable"
	}

	// Per-process CRS components may differ (heterogeneous snapshots):
	// each local snapshot's metadata records the checkpointer that
	// produced it, and the restarted rank must use the same one.
	crsNames := make([]string, meta.NumProcs)
	for _, pe := range meta.Procs {
		crsNames[pe.Vpid] = pe.Component
	}
	spec := JobSpec{
		Name:       meta.AppName,
		Args:       meta.AppArgs,
		NP:         meta.NumProcs,
		AppFactory: appFactory,
		Params:     params,
		CRSByRank:  func(rank int) string { return crsNames[rank] },
	}
	c.ins.Emit("hnp", "job.restart", "from %s interval %d np=%d", ref.Dir, interval, meta.NumProcs)
	j, err := c.launch(spec, placement, restores)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	for r, src := range sources {
		j.rankMeta[r].Source = src
		j.rankMeta[r].Interval = interval
	}
	j.mu.Unlock()
	return j, nil
}
