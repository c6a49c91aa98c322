// Multilevel checkpoint verbs on the cluster (DESIGN.md §5g): the
// runtime face of the drain engine's L1/L2/L3 split, plus the
// per-job cadence-tuner registry the control plane reads.
//
// CheckpointJobLevel shares the capture half with CheckpointJobAsync
// (captureJob in job.go) and diverges only at the hand-off: a stable
// (L3) request goes to the drain queue as ever, a sub-stable one is
// sealed and held by the drainer. Promotion is lineage-scoped, so the
// wrappers here only translate a job ID into its global-dir lineage.
package runtime

import (
	"fmt"
	"path"

	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/orte/cadence"
	"repro/internal/orte/names"
	"repro/internal/orte/snapc"
)

// CheckpointJobLevel captures an interval and settles it at the given
// checkpoint level. LevelLocal (L1) seals node-local only; LevelReplica
// (L2) additionally pushes stage replicas to peer nodes; LevelStable
// (L3, or any level outside the sub-stable range) is the ordinary
// synchronous checkpoint — drained and committed to stable storage
// before returning. Returns the interval number captured.
func (c *Cluster) CheckpointJobLevel(id names.JobID, level int, opts snapc.Options) (int, error) {
	if level < snapshot.LevelLocal || level >= snapshot.LevelStable {
		p, err := c.CheckpointJobAsync(id, opts)
		if err != nil {
			return 0, err
		}
		_, err = p.Wait()
		return p.Interval, err
	}
	cpt, err := c.captureJob(id, opts)
	if err != nil {
		return 0, err
	}
	if err := c.Drainer().Seal(cpt, level); err != nil {
		return cpt.Interval, err
	}
	return cpt.Interval, nil
}

// PromoteJobReplicas lifts the job's newest L1 hold to L2 (stage
// replicas on peer nodes). Returns the promoted interval, or false
// when the job holds nothing promotable.
func (c *Cluster) PromoteJobReplicas(id names.JobID) (int, bool, error) {
	if err := c.headlessErr(); err != nil {
		return 0, false, err
	}
	iv, ok := c.Drainer().PromoteReplicas(snapshot.GlobalDirName(int(id)))
	return iv, ok, nil
}

// PromoteJobStable hands the job's newest held interval to the drain
// queue for a stable (L3) commit. Returns (nil, false, nil) when the
// job holds nothing.
func (c *Cluster) PromoteJobStable(id names.JobID) (*snapc.Pending, bool, error) {
	if err := c.headlessErr(); err != nil {
		return nil, false, err
	}
	return c.Drainer().PromoteStable(snapshot.GlobalDirName(int(id)))
}

// HeldIntervals reports the job's held (sub-stable) intervals and
// their levels.
func (c *Cluster) HeldIntervals(id names.JobID) map[int]int {
	return c.Drainer().Held(snapshot.GlobalDirName(int(id)))
}

// SetTunerState publishes a job's cadence-tuner snapshot so the
// control plane (ompi-ps --tuner) can read it. The supervision loop in
// core owns the tuner; the cluster only mirrors its latest plan.
func (c *Cluster) SetTunerState(id names.JobID, st cadence.State) {
	c.tunerMu.Lock()
	defer c.tunerMu.Unlock()
	if c.tuners == nil {
		c.tuners = make(map[names.JobID]cadence.State)
	}
	c.tuners[id] = st
}

// TunerState reports the last published cadence-tuner snapshot for a
// job, if its supervisor runs one.
func (c *Cluster) TunerState(id names.JobID) (cadence.State, bool) {
	c.tunerMu.Lock()
	defer c.tunerMu.Unlock()
	st, ok := c.tuners[id]
	return st, ok
}

// ClearTunerState drops a job's published tuner snapshot (supervision
// ended).
func (c *Cluster) ClearTunerState(id names.JobID) {
	c.tunerMu.Lock()
	defer c.tunerMu.Unlock()
	delete(c.tuners, id)
}

// RestorableHold reports the newest held interval of the job's lineage
// that a hold-direct restart could restore: every captured share
// survives on its origin node's sealed stage or a peer's stage
// replica. Read-only — asking costs nothing.
func (c *Cluster) RestorableHold(id names.JobID) (snapshot.JournalEntry, bool, error) {
	e, _, ok, err := snapc.NewestRestorableHold(c.snapcEnv, snapshot.GlobalDirName(int(id)), c.Alive)
	return e, ok, err
}

// RestartFromHold relaunches a failed job straight from its newest
// restorable held interval: each rank restores from the sealed local
// stage on its original node, or — when that node died — from the peer
// node holding its stage replica, and is placed where that surviving
// copy lives. Nothing crosses stable storage: this is the L1/L2
// restart path, and it is what makes sub-stable checkpoint levels
// durable enough to be worth holding. The drain queue must be idle
// (flush first) so an in-flight commit cannot race the stage reads.
func (c *Cluster) RestartFromHold(j *Job, appFactory func(rank int) ompi.App) (*Job, int, error) {
	if err := c.headlessErr(); err != nil {
		return nil, 0, err
	}
	id := j.JobID()
	gd := snapshot.GlobalDirName(int(id))
	e, plan, ok, err := snapc.NewestRestorableHold(c.snapcEnv, gd, c.Alive)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("runtime: job %d holds no restorable interval", id)
	}

	j.mu.Lock()
	origins := make(map[int]string, len(j.placement))
	for r, n := range j.placement {
		origins[r] = n
	}
	spec := j.spec
	j.mu.Unlock()
	spec.AppFactory = appFactory

	placement := make(map[int]string, spec.NP)
	restores := make([]*ompi.RestoreSpec, spec.NP)
	sources := make(map[int]string, spec.NP)
	crsNames := make([]string, spec.NP)
	for r := 0; r < spec.NP; r++ {
		origin := origins[r]
		src, ok := plan[origin]
		if !ok {
			return nil, 0, fmt.Errorf("runtime: hold restart: rank %d origin %q has no surviving stage", r, origin)
		}
		base, source := e.LocalBase, "restored:local-stage"
		if src != origin {
			base, source = snapshot.StageReplicaBase(int(id), e.Interval, origin), "restored:stage-replica"
		}
		fsys, err := c.nodeFS(src)
		if err != nil {
			return nil, 0, err
		}
		dir := path.Join(base, snapshot.LocalDirName(r))
		lmeta, err := snapshot.ReadLocal(snapshot.LocalRef{FS: fsys, Dir: dir})
		if err != nil {
			return nil, 0, fmt.Errorf("runtime: hold restart rank %d: %w", r, err)
		}
		if lmeta.Interval != e.Interval || lmeta.JobID != int(id) || lmeta.Vpid != r {
			return nil, 0, fmt.Errorf("runtime: hold restart rank %d: stage %q holds job %d rank %d interval %d",
				r, dir, lmeta.JobID, lmeta.Vpid, lmeta.Interval)
		}
		placement[r] = src // restart where the surviving copy lives
		restores[r] = &ompi.RestoreSpec{FS: fsys, Dir: dir, Files: lmeta.Files}
		crsNames[r] = lmeta.Component
		sources[r] = source
	}
	spec.CRSByRank = func(rank int) string { return crsNames[rank] }

	c.ins.Counter("ompi_restart_from_hold_total").Inc()
	c.ins.Emit("hnp", "job.restart-held", "from %s held interval %d (%s) np=%d",
		gd, e.Interval, e.LevelLabel(), spec.NP)
	next, err := c.launch(spec, placement, restores)
	if err != nil {
		return nil, 0, err
	}
	next.mu.Lock()
	for r, src := range sources {
		next.rankMeta[r].Source = src
		next.rankMeta[r].Interval = e.Interval
	}
	next.mu.Unlock()
	// The new incarnation owns protection from here; abandon the old
	// lineage's in-memory holds (the on-disk stages the restores read
	// are untouched — only the accounting is dropped).
	c.Drainer().DropHeld(gd)
	return next, e.Interval, nil
}
