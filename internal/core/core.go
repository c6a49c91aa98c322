// Package core is the library's front door: it assembles the paper's
// checkpoint/restart infrastructure — the MCA frameworks (SNAPC, FILEM,
// CRCP, CRS, PLM), the simulated ORTE runtime and the OMPI library —
// into one API a user (or the command-line tools) drives:
//
//	sys, _ := core.NewSystem(core.Options{Nodes: 4, SlotsPerNode: 2})
//	job, _ := sys.Launch(core.JobSpec{Name: "ring", NP: 8, AppFactory: f})
//	ckpt, _ := job.Checkpoint(false)   // global snapshot ref
//	...
//	job2, _ := sys.Restart(ckpt.Ref, ckpt.Interval, f2)
//
// Snapshot representations (paper §4) live in the snapshot subpackage;
// everything here is orchestration.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/ompi"
	"repro/internal/orte/cadence"
	"repro/internal/orte/names"
	"repro/internal/orte/plm"
	"repro/internal/orte/recovery"
	"repro/internal/orte/runtime"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Options configure a System. The zero value is not valid; use at least
// Nodes >= 1.
type Options struct {
	// Nodes is the number of simulated nodes (named node0..nodeN-1)
	// unless NodeSpecs is given.
	Nodes int
	// SlotsPerNode is the per-node process capacity (default 2).
	SlotsPerNode int
	// NodeSpecs overrides Nodes/SlotsPerNode with explicit machines.
	NodeSpecs []plm.NodeSpec
	// StableDir, when non-empty, backs stable storage with a real
	// directory so snapshots survive the process (the tool path).
	// Otherwise stable storage is in-memory.
	StableDir string
	// Stable, when non-nil, is used as the stable-storage filesystem
	// directly (overriding StableDir). Benchmarks wrap a store in
	// vfs.Throttle to model constrained stable-storage bandwidth.
	Stable vfs.FS
	// MCA parameters ("crs=self", "crcp=none", "filem=raw", ...).
	Params *mca.Params
	// Ins captures trace events, metrics and spans; optional.
	Ins *trace.Instrumentation
	// Uplink/Ingress override modeled link speeds; optional.
	Uplink  *netsim.Link
	Ingress *netsim.Link
	// Faults optionally installs a deterministic fault-injection plan
	// (the "fault_plan" MCA parameter is the stringly equivalent).
	Faults *faultsim.Injector
}

// System is a running simulated cluster plus its runtime services.
type System struct {
	cluster *runtime.Cluster
	ins     *trace.Instrumentation

	recovMu sync.Mutex
	recov   *recovery.Coordinator // lazily built in-job recovery coordinator

	reattachMu sync.Mutex // serializes automatic HNP reattach attempts
}

// JobSpec re-exports the runtime job description.
type JobSpec = runtime.JobSpec

// Job is the job-scoped API handle: the runtime job (all of whose
// observation methods — JobID, Wait, Done, Nodes, NodeOf, Params,
// RankTable — promote through) plus the per-job verbs. Every operation
// a tool performs on one job of a multi-job cluster hangs off this
// handle.
type Job struct {
	*runtime.Job
	sys *System
}

// wrap binds a runtime job to its owning system. nil stays nil so
// error paths pass through untouched.
func (s *System) wrap(j *runtime.Job) *Job {
	if j == nil {
		return nil
	}
	return &Job{Job: j, sys: s}
}

// Checkpoint takes a global checkpoint of this job (optionally
// terminating it) and returns the global snapshot reference.
func (j *Job) Checkpoint(terminate bool) (CheckpointResult, error) {
	return j.sys.checkpoint(j.JobID(), snapc.Options{Terminate: terminate})
}

// CheckpointAsync runs the capture phase of a global checkpoint of this
// job and queues the drain; the ticket's Wait yields the committed
// reference.
func (j *Job) CheckpointAsync(terminate bool) (*PendingCheckpoint, error) {
	return j.sys.checkpointAsync(j.JobID(), snapc.Options{Terminate: terminate})
}

// Supervise runs this job to completion under the supervision loop
// (periodic checkpoints, automatic restart, optional in-job recovery).
func (j *Job) Supervise(appFactory func(rank int) ompi.App, opts SuperviseOptions) (SuperviseReport, error) {
	return j.sys.Supervise(j, appFactory, opts)
}

// Migrate moves one rank of this job onto another live node through an
// in-job recovery session; the job keeps its identity.
func (j *Job) Migrate(rank int, node string) error {
	return j.sys.Migrate(j.JobID(), rank, node)
}

// EnableRecovery attaches the system's in-job recovery coordinator to
// this job: node loss respawns only the lost ranks instead of killing
// the job.
func (j *Job) EnableRecovery() {
	j.SetRecoveryHandler(j.sys.Recovery())
}

// Lineage returns the job's global snapshot lineage directory — the
// flow key its drains are scheduled under and the reference its
// restarts resolve from.
func (j *Job) Lineage() string {
	return snapshot.GlobalDirName(int(j.JobID()))
}

// SetDrainWeight sets this job's drain QoS weight in the multi-job
// checkpoint scheduler (see sched): weight-proportional drain bandwidth
// under contention, applied to intervals enqueued after the call.
func (j *Job) SetDrainWeight(w int) {
	j.sys.cluster.SetJobDrainWeight(j.JobID(), w)
}

// RestartLatest relaunches this job's lineage from its newest committed
// interval. The receiver job should be done (terminated checkpoint or
// failure); the returned handle is a fresh incarnation.
func (j *Job) RestartLatest(appFactory func(rank int) ompi.App) (*Job, error) {
	ref, err := j.sys.OpenGlobalSnapshot(j.Lineage())
	if err != nil {
		return nil, err
	}
	return j.sys.RestartLatest(ref, appFactory)
}

// CheckpointResult is what the paper's tools hand back to the user: the
// single global snapshot reference (plus bookkeeping).
type CheckpointResult struct {
	Ref      snapshot.GlobalRef
	Dir      string // the reference the user preserves
	Interval int
	Meta     snapshot.GlobalMeta
}

// NewSystem boots a simulated cluster.
func NewSystem(opts Options) (*System, error) {
	specs := opts.NodeSpecs
	if specs == nil {
		if opts.Nodes <= 0 {
			return nil, fmt.Errorf("core: need at least one node")
		}
		slots := opts.SlotsPerNode
		if slots <= 0 {
			slots = 2
		}
		for i := 0; i < opts.Nodes; i++ {
			specs = append(specs, plm.NodeSpec{Name: fmt.Sprintf("node%d", i), Slots: slots})
		}
	}
	stable := opts.Stable
	if stable == nil && opts.StableDir != "" {
		osfs, err := vfs.NewOS(opts.StableDir)
		if err != nil {
			return nil, fmt.Errorf("core: stable storage: %w", err)
		}
		stable = osfs
	}
	cluster, err := runtime.New(runtime.Config{
		Nodes:   specs,
		Stable:  stable,
		Params:  opts.Params,
		Ins:     opts.Ins,
		Uplink:  opts.Uplink,
		Ingress: opts.Ingress,
		Faults:  opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &System{cluster: cluster, ins: opts.Ins}, nil
}

// Ins returns the system instrumentation (may be nil).
func (s *System) Ins() *trace.Instrumentation { return s.ins }

// Close shuts the cluster down.
func (s *System) Close() { s.cluster.Close() }

// Cluster exposes the underlying runtime for advanced callers
// (benchmarks, tools).
func (s *System) Cluster() *runtime.Cluster { return s.cluster }

// Launch starts a parallel job.
func (s *System) Launch(spec JobSpec) (*Job, error) {
	j, err := s.cluster.Launch(spec)
	if err != nil {
		return nil, err
	}
	return s.wrap(j), nil
}

// Job looks a job up by id.
func (s *System) Job(id names.JobID) (*Job, error) {
	j, err := s.cluster.Job(id)
	if err != nil {
		return nil, err
	}
	return s.wrap(j), nil
}

// JobIDs lists known jobs.
func (s *System) JobIDs() []names.JobID { return s.cluster.JobIDs() }

// checkpoint takes a global checkpoint of the job and returns the
// global snapshot reference — the one name the user must preserve
// (paper §4). Job.Checkpoint is the public face.
func (s *System) checkpoint(id names.JobID, copts snapc.Options) (CheckpointResult, error) {
	return result(s.cluster.CheckpointJob(id, copts))
}

// result converts a committed drain's outcome into the public form.
func result(res snapc.Result, err error) (CheckpointResult, error) {
	if err != nil {
		return CheckpointResult{}, err
	}
	return CheckpointResult{Ref: res.Ref, Dir: res.Ref.Dir, Interval: res.Interval, Meta: res.Meta}, nil
}

// PendingCheckpoint is a ticket for an interval whose capture phase
// completed but whose drain (gather → commit → replicate) is still in
// the background queue. Wait blocks for the drain's outcome.
type PendingCheckpoint struct {
	p *snapc.Pending
}

// Interval is the checkpoint interval number the ticket refers to.
func (p *PendingCheckpoint) Interval() int { return p.p.Interval }

// Done reports without blocking whether the drain has finished.
func (p *PendingCheckpoint) Done() bool { return p.p.Done() }

// Wait blocks until the background drain finishes and returns the
// committed checkpoint (or the drain's failure).
func (p *PendingCheckpoint) Wait() (CheckpointResult, error) { return result(p.p.Wait()) }

// checkpointAsync runs only the synchronous capture phase of a global
// checkpoint — the application blocks for quiesce + capture, then
// resumes — and queues the interval for the background drain engine.
// The returned ticket's Wait yields the committed snapshot reference.
// Job.CheckpointAsync is the public face.
func (s *System) checkpointAsync(id names.JobID, copts snapc.Options) (*PendingCheckpoint, error) {
	p, err := s.cluster.CheckpointJobAsync(id, copts)
	if err != nil {
		return nil, err
	}
	return &PendingCheckpoint{p: p}, nil
}

// FlushDrains blocks until the background drain queue is empty.
func (s *System) FlushDrains() { s.cluster.FlushDrains() }

// RecoverDrains resolves a snapshot lineage's undrained journal
// entries (see snapc.Recover). Flush first.
func (s *System) RecoverDrains(dir string) (snapc.RecoverReport, error) {
	return s.cluster.RecoverDrains(dir)
}

// Restart relaunches a job from a global snapshot reference at the
// given interval (LatestInterval(ref) picks the newest). Only the
// application factory is supplied by the caller; process count, node
// layout and runtime parameters all come from the snapshot metadata.
func (s *System) Restart(ref snapshot.GlobalRef, interval int, appFactory func(rank int) ompi.App) (*Job, error) {
	j, err := s.cluster.Restart(ref, interval, appFactory)
	if err != nil {
		return nil, err
	}
	return s.wrap(j), nil
}

// RestartLatest restarts from the newest interval in ref.
func (s *System) RestartLatest(ref snapshot.GlobalRef, appFactory func(rank int) ompi.App) (*Job, error) {
	iv, err := snapshot.LatestInterval(ref)
	if err != nil {
		return nil, err
	}
	return s.Restart(ref, iv, appFactory)
}

// OpenGlobalSnapshot builds a reference to an existing global snapshot
// directory on this system's stable storage.
func (s *System) OpenGlobalSnapshot(dir string) (snapshot.GlobalRef, error) {
	ref := snapshot.GlobalRef{FS: s.cluster.Stable(), Dir: dir}
	if _, err := snapshot.LatestInterval(ref); err != nil {
		return snapshot.GlobalRef{}, fmt.Errorf("core: %q is not a global snapshot reference: %w", dir, err)
	}
	return ref, nil
}

// Resolver builds a replica-aware snapshot resolver over this system's
// stable storage and surviving nodes: the quorum-restart view of one
// global snapshot lineage directory.
func (s *System) Resolver(dir string) *snapshot.Resolver { return s.cluster.Resolver(dir) }

// Scrub runs one scrub/repair pass over a global snapshot directory:
// every copy of every interval is re-hashed against its manifest, a
// damaged primary is rebuilt from any intact replica, and intervals
// below k intact replicas are re-replicated onto surviving nodes. The
// pass is serialized against global checkpoints so it never interleaves
// with a commit or its replica pushes.
func (s *System) Scrub(dir string, k int) snapshot.ScrubReport {
	var rep snapshot.ScrubReport
	s.cluster.WithCheckpointLock(func() {
		rep = s.Resolver(dir).Scrub(k)
	})
	return rep
}

// --- Supervision: periodic checkpoints + automatic restart -------------------

// Drain configures how Supervise's periodic checkpoints move through
// the drain pipeline. The zero value checkpoints synchronously.
type Drain struct {
	// Async takes the periodic checkpoints through the background
	// drain engine: the ticker only pays the capture phase, drains
	// overlap the application, and on a failure Supervise flushes the
	// queue and recovers undrained journal entries (fast-forward,
	// re-drain from surviving local stages, or discard) before picking
	// the restart interval.
	Async bool
}

// Recovery configures the failure posture of a supervised job. The
// zero value is the paper's baseline: no self-healing, whole-job
// restart semantics.
type Recovery struct {
	// Policy selects the node-loss posture. RecoverWholeJob (zero
	// value) keeps the paper's abort-and-restart behavior; RecoverInJob
	// attaches the in-job recovery coordinator to every incarnation, so
	// node loss respawns only the lost ranks (whole-job restart remains
	// the fallback when a session cannot converge). In-job mode also
	// keeps each periodic checkpoint's node-local stages (KeepLocal) —
	// they are the zero-cost rollback source for the survivors — and
	// prunes stages older than the newest committed interval.
	Policy RecoveryPolicy
	// AutoRestart is the number of restarts Supervise may attempt after
	// a job failure (a lost node, a dead rank). 0 disables self-healing:
	// the first failure is final.
	AutoRestart int
}

// Reattach configures what Supervise does about a crashed coordinator.
// The zero value leaves the HNP down (operations fail with ErrHNPDown
// until an explicit System.Reattach).
type Reattach struct {
	// OnCrash makes Supervise rebuild the coordinator when a
	// checkpoint attempt reports the HNP crashed or down: the paper's
	// mpirun, made crash-safe. The reattach re-registers the control
	// plane over the still-running orteds, replays deaths from the
	// headless window, and resolves the drain journal — no COMMITTED
	// interval is lost; at most the in-flight one is re-drained or
	// discarded.
	OnCrash bool
}

// Scheduler configures the supervised job's standing in the multi-job
// checkpoint scheduler. The zero value inherits the job's
// snapc_sched_weight MCA parameter (default 1).
type Scheduler struct {
	// Weight, when > 0, is set as the job's drain QoS weight (on every
	// incarnation, restarts included) before supervision starts: the
	// SFQ scheduler grants the lineage a weight-proportional share of
	// drain bandwidth when several jobs checkpoint concurrently.
	Weight int
}

// SuperviseOptions configure Supervise. Concern-specific knobs are
// grouped into sub-structs (Drain, Recovery, Reattach, Scheduler);
// every sub-struct's zero value is the conservative default, so
// SuperviseOptions{CheckpointEvery: d} is a complete configuration.
type SuperviseOptions struct {
	// CheckpointEvery, when > 0, takes periodic global checkpoints of
	// the supervised job. Failed checkpoint attempts are counted and
	// logged but never abort the run — an aborted interval leaves the
	// job unwedged by design.
	CheckpointEvery time.Duration
	// Progress, when non-nil, is called after every committed checkpoint.
	Progress func(CheckpointResult)

	Drain     Drain
	Recovery  Recovery
	Reattach  Reattach
	Scheduler Scheduler
	// Levels runs the multilevel checkpoint engine (L1 node-local
	// seals, L2 replica promotions, L3 stable commits on independent —
	// optionally self-tuning — cadences); see the Levels type.
	Levels Levels
}

// RestartSource records which interval — and which copy of it — one
// auto-restart used, so operators can see degraded restarts.
type RestartSource struct {
	Dir      string // global snapshot lineage directory
	Interval int
	Copy     string // "primary" or "replica:<node>"
	Repaired bool   // the primary was rebuilt from that replica before relaunch
}

// SuperviseReport summarizes a supervised run.
type SuperviseReport struct {
	Restarts          int // restarts performed
	Checkpoints       int // committed global checkpoints
	FailedCheckpoints int // aborted checkpoint attempts
	// DegradedCheckpoints counts intervals that succeeded node-local
	// during a stable-store outage and were parked for catch-up
	// (ErrStoreDegraded): degraded successes, not failures.
	DegradedCheckpoints int
	// Reattaches counts automatic HNP rebuilds (ReattachOnCrash).
	Reattaches int
	Recovered  bool // the job failed at least once and was restarted
	Scrubs     int  // completed periodic scrub passes
	// Phases accumulates every committed interval's PhaseBreakdown:
	// total time and bytes spent per checkpoint phase over the run.
	Phases snapshot.PhaseBreakdown
	// LevelCheckpoints counts the level engine's work by level: index 0
	// (L1) node-local seals, index 1 (L2) replica promotions, index 2
	// (L3) stable commits it took (those also count in Checkpoints).
	LevelCheckpoints [cadence.NumLevels]int
	// Retunes counts cadence changes the auto Young/Daly tuner adopted.
	Retunes int
	// Sources records, per restart, the snapshot copy it used.
	Sources []RestartSource
	// DrainRecovery accumulates what the failure-path drain recovery
	// passes resolved (async mode): intervals fast-forwarded, re-drained
	// from surviving local stages, or discarded.
	DrainRecovery snapc.RecoverReport
	// InJobRecovery summarizes the in-job recovery coordinator's work
	// during this supervised run (RecoverInJob policy): sessions,
	// recovered ranks, retries, fallbacks into whole-job restart,
	// migrations, and bytes staged for restores.
	InJobRecovery recovery.Stats
}

// Reattach rebuilds a crashed HNP over the still-running cluster (see
// runtime.Cluster.Reattach). It is safe to call concurrently; only one
// rebuild runs at a time and a no-longer-headless coordinator is not an
// error.
func (s *System) Reattach() (runtime.ReattachReport, error) {
	s.reattachMu.Lock()
	defer s.reattachMu.Unlock()
	if !s.cluster.Headless() {
		return runtime.ReattachReport{}, nil
	}
	return s.cluster.Reattach()
}

// reattach is the supervise-loop half of ReattachOnCrash: attempt one
// serialized rebuild and report whether this call performed it.
func (s *System) reattach() bool {
	s.reattachMu.Lock()
	defer s.reattachMu.Unlock()
	if !s.cluster.Headless() {
		return false
	}
	if _, err := s.cluster.Reattach(); err != nil {
		s.ins.Emit("core", "supervise.reattach-failed", "%v", err)
		return false
	}
	return true
}

// noteCkptErr classifies one failed checkpoint attempt for the
// supervise report: a store-outage degradation (the interval succeeded
// node-local and is parked for catch-up) is a degraded success, not a
// failure; a crashed coordinator optionally triggers an automatic
// reattach so the next tick finds a working control plane.
func (s *System) noteCkptErr(job names.JobID, err error, rep *SuperviseReport, mu *sync.Mutex, opts SuperviseOptions) {
	mu.Lock()
	if errors.Is(err, snapc.ErrStoreDegraded) {
		rep.DegradedCheckpoints++
	} else {
		rep.FailedCheckpoints++
	}
	mu.Unlock()
	if errors.Is(err, snapc.ErrStoreDegraded) {
		s.ins.Emit("core", "supervise.ckpt-degraded", "job %d: %v", job, err)
		return
	}
	s.ins.Emit("core", "supervise.ckpt-failed", "job %d: %v", job, err)
	if opts.Reattach.OnCrash &&
		(errors.Is(err, snapc.ErrHNPDown) || errors.Is(err, snapc.ErrHNPCrashed)) {
		if s.reattach() {
			mu.Lock()
			rep.Reattaches++
			mu.Unlock()
		}
	}
}

// Supervise runs a job to completion, checkpointing it periodically and —
// when it fails with restarts remaining — relaunching it from the newest
// restartable global snapshot onto the surviving nodes. This is the
// paper's recovery loop driven from the tool layer: detection comes from
// the HNP's heartbeat monitor (the failed job's surviving ranks abort),
// and restart reuses the standard ompi-restart path, so only snapshot
// copies that pass full validation are ever used. Resolution is
// replica-aware: when the primary copy is missing, corrupt or on a dead
// node, any intact replica restarts the job — the primary is repaired
// from it first, and the report records which copy was used.
//
// When the job's scrub_interval MCA parameter is set, Supervise also
// runs periodic scrub passes over the snapshot lineage, healing bitrot
// and re-replicating intervals that fell below filem_replicas.
//
// appFactory must build the same application the job runs; it is handed
// to every restarted incarnation.
func (s *System) Supervise(job *Job, appFactory func(rank int) ompi.App, opts SuperviseOptions) (SuperviseReport, error) {
	var co *recovery.Coordinator
	var base recovery.Stats
	if opts.Recovery.Policy == RecoverInJob {
		co = s.Recovery()
		base = co.Stats()
	}
	rep, err := s.superviseLoop(job, appFactory, opts, co)
	if co != nil {
		d := co.Stats()
		rep.InJobRecovery = recovery.Stats{
			Sessions:       d.Sessions - base.Sessions,
			RecoveredRanks: d.RecoveredRanks - base.RecoveredRanks,
			Retries:        d.Retries - base.Retries,
			Fallbacks:      d.Fallbacks - base.Fallbacks,
			Migrations:     d.Migrations - base.Migrations,
			RestoredBytes:  d.RestoredBytes - base.RestoredBytes,
		}
	}
	return rep, err
}

func (s *System) superviseLoop(job *Job, appFactory func(rank int) ompi.App, opts SuperviseOptions, co *recovery.Coordinator) (SuperviseReport, error) {
	var rep SuperviseReport
	var mu sync.Mutex
	// Snapshot lineage: the original job's global reference plus one per
	// restarted incarnation, newest last.
	dirs := []string{snapshot.GlobalDirName(int(job.JobID()))}
	current := job
	scrubEvery := job.Params().Duration("scrub_interval", 0)
	replicas := job.Params().Int("filem_replicas", 0)
	// The level engine's tuner outlives incarnations: a restart keeps
	// the cost and cadence estimates, only the tickers re-enter.
	var lsup *levelSup
	if opts.Levels.enabled() {
		lsup = newLevelSup(s, opts, snapc.Options{KeepLocal: co != nil}, co != nil, &rep, &mu)
	}
	for {
		if co != nil {
			// Every incarnation opts into in-job recovery: node loss
			// freezes the job and respawns only the lost ranks; the
			// incarnation dies (and this loop restarts it whole) only
			// when a session falls back.
			current.SetRecoveryHandler(co)
		}
		if opts.Scheduler.Weight > 0 {
			// QoS: each incarnation's lineage gets the configured drain
			// weight before its first periodic checkpoint can enqueue.
			s.cluster.SetJobDrainWeight(current.JobID(), opts.Scheduler.Weight)
		}
		stop := make(chan struct{})
		var tickers sync.WaitGroup
		if scrubEvery > 0 {
			tickers.Add(1)
			lineage := append([]string(nil), dirs...)
			go func() {
				defer tickers.Done()
				t := time.NewTicker(scrubEvery)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
					}
					for _, dir := range lineage {
						sr := s.Scrub(dir, replicas)
						if sr.Repaired > 0 || sr.Rereplicated > 0 {
							s.ins.Emit("core", "supervise.scrubbed", "%s: repaired %d primaries, re-replicated %d copies",
								dir, sr.Repaired, sr.Rereplicated)
						}
					}
					mu.Lock()
					rep.Scrubs++
					mu.Unlock()
				}
			}()
		}
		if opts.CheckpointEvery > 0 {
			tickers.Add(1)
			// In-job recovery keeps every periodic checkpoint's node-local
			// stages: they are the survivors' zero-cost rollback source.
			copts := snapc.Options{KeepLocal: co != nil}
			go func(j *Job) {
				defer tickers.Done()
				t := time.NewTicker(opts.CheckpointEvery)
				defer t.Stop()
				settle := func(res CheckpointResult, err error) {
					if err != nil {
						s.noteCkptErr(j.JobID(), err, &rep, &mu, opts)
						return
					}
					mu.Lock()
					rep.Checkpoints++
					rep.Phases.Accumulate(res.Meta.Phases)
					mu.Unlock()
					if co != nil {
						s.cluster.PruneLocalStages(j.JobID(), res.Interval)
					}
					if opts.Progress != nil {
						opts.Progress(res)
					}
				}
				for {
					select {
					case <-stop:
						return
					case <-t.C:
					}
					if j.Done() {
						return
					}
					if !opts.Drain.Async {
						settle(s.checkpoint(j.JobID(), copts))
						continue
					}
					// Pay only the capture phase on the ticker; a collector
					// goroutine (joined with the tickers) accounts for the
					// drain when it lands.
					p, err := s.checkpointAsync(j.JobID(), copts)
					if err != nil {
						s.noteCkptErr(j.JobID(), err, &rep, &mu, opts)
						continue
					}
					tickers.Add(1)
					go func() {
						defer tickers.Done()
						settle(p.Wait())
					}()
				}
			}(current)
		}
		if lsup != nil {
			tickers.Add(1)
			go func(j *Job) {
				defer tickers.Done()
				lsup.run(j, stop)
			}(current)
		}
		err := current.Wait()
		close(stop)
		tickers.Wait()
		if err == nil {
			return rep, nil
		}
		if rep.Restarts >= opts.Recovery.AutoRestart {
			return rep, err
		}
		// A restart needs a working coordinator: if the job died while the
		// HNP was also down, rebuild the control plane first.
		if opts.Reattach.OnCrash && s.cluster.Headless() && s.reattach() {
			mu.Lock()
			rep.Reattaches++
			mu.Unlock()
		}
		// Resolve the drain queue before picking a restart interval: let
		// in-flight drains land, then walk every lineage's journal —
		// intervals that committed get their journal fast-forwarded,
		// intervals whose captured nodes survived with sealed local
		// stages are re-drained (and become restart candidates), the
		// rest are discarded with their debris.
		s.cluster.FlushDrains()
		// Every restart source below is read from stable storage. While an
		// outage has work parked, give the catch-up pass a bounded window
		// to reconcile it rather than resolve the restart against a store
		// that cannot be read.
		if werr := s.cluster.Drainer().AwaitCatchup(restartOutageWait); werr != nil {
			s.ins.Emit("core", "supervise.store-wait", "job %d: %v", current.JobID(), werr)
		}
		// Hold-direct restart (level engine only): when the failed
		// lineage holds a restorable interval newer than anything it
		// committed, relaunch straight from the sealed stages and stage
		// replicas, skipping the stable round trip on the MTTR path.
		// Any miss falls through to the whole-job path.
		var next *Job
		var src RestartSource
		if lsup != nil {
			next, src = s.holdRestart(current, appFactory)
		}
		if next == nil {
			var rerr error
			if next, src, rerr = s.lineageRestart(dirs, appFactory, &rep.DrainRecovery); rerr != nil {
				return rep, errors.Join(err, rerr)
			}
		}
		rep.Restarts++
		rep.Recovered = true
		s.ins.Counter("ompi_supervise_restarts_total").Inc()
		rep.Sources = append(rep.Sources, src)
		s.ins.Emit("core", "supervise.restart", "job %d failed (%v); restarted as job %d from %s interval %d (%s)",
			current.JobID(), err, next.JobID(), src.Dir, src.Interval, src.Copy)
		dirs = append(dirs, snapshot.GlobalDirName(int(next.JobID())))
		current = next
	}
}

// lineageRestart is the whole-job restart path: resolve every
// lineage's drain journal (fast-forward what committed, re-drain what
// survives in sealed local stages, discard the rest), then relaunch
// from the newest interval with an intact copy anywhere, repairing the
// primary from a replica copy first.
func (s *System) lineageRestart(dirs []string, appFactory func(rank int) ompi.App, drained *snapc.RecoverReport) (*Job, RestartSource, error) {
	for _, dir := range dirs {
		rr, err := s.cluster.RecoverDrains(dir)
		if err != nil {
			s.ins.Emit("core", "supervise.drain-recover-failed", "%s: %v", dir, err)
			continue
		}
		drained.FastForwarded += rr.FastForwarded
		drained.Redrained += rr.Redrained
		drained.Discarded += rr.Discarded
		drained.Superseded += rr.Superseded
		if rr.FastForwarded+rr.Redrained+rr.Discarded+rr.Superseded > 0 {
			s.ins.Emit("core", "supervise.drain-recovered",
				"%s: %d fast-forwarded, %d re-drained, %d discarded, %d superseded",
				dir, rr.FastForwarded, rr.Redrained, rr.Discarded, rr.Superseded)
		}
	}
	// Scan the lineage newest-incarnation-first.
	lastErr := fmt.Errorf("core: no snapshots were taken")
	for i := len(dirs) - 1; i >= 0; i-- {
		res := s.Resolver(dirs[i])
		interval, _, cp, err := res.LatestValid()
		if err != nil {
			lastErr = err
			continue
		}
		if !cp.Primary() {
			if err := res.Repair(interval, cp); err != nil {
				return nil, RestartSource{}, fmt.Errorf("core: repair primary from %s: %w", cp, err)
			}
		}
		next, err := s.Restart(res.Ref, interval, appFactory)
		if err != nil {
			return nil, RestartSource{}, fmt.Errorf("core: auto-restart: %w", err)
		}
		return next, RestartSource{Dir: res.Ref.Dir, Interval: interval, Copy: cp.String(), Repaired: !cp.Primary()}, nil
	}
	return nil, RestartSource{}, fmt.Errorf("core: no valid snapshot to restart from: %w", lastErr)
}

// restartOutageWait bounds how long a supervised restart waits for a
// stable-store outage to be reconciled before it resolves its restart
// interval anyway.
const restartOutageWait = 5 * time.Second
