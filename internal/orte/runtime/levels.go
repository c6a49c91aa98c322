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
	"errors"
	"sort"

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

// RestartFromHold relaunches a failed job straight from its newest held
// interval that every rank can restore from and that is newer than
// anything committed to stable storage. Each rank is placed where its
// surviving copy lives — its own node's sealed stage, else a peer's
// stage replica — and restores from it in place: nothing crosses stable
// storage (the L1/L2 restart path). Flush the drain queue first.
// Reports false, with nothing changed, when no hold qualifies.
func (c *Cluster) RestartFromHold(j *Job, appFactory func(rank int) ompi.App) (*Job, snapshot.JournalEntry, bool, error) {
	var none snapshot.JournalEntry
	if err := c.headlessErr(); err != nil {
		return nil, none, false, err
	}
	gd := snapshot.GlobalDirName(int(j.JobID()))
	und, err := c.Drainer().Journal(gd).Undrained()
	if err != nil {
		return nil, none, false, err
	}
	sort.Slice(und, func(a, b int) bool { return und[a].Interval > und[b].Interval })

	origins := j.Placement()
	spec := j.spec
	spec.AppFactory = appFactory

	res := c.Resolver(gd)
next:
	for _, e := range und {
		plans := make([]RestorePlan, spec.NP)
		for r := range plans {
			own, node := res.ProbeShare(e.JobID, e.Interval, e.LocalBase, origins[r])
			if own {
				node = origins[r]
			}
			if node == "" {
				continue next
			}
			plans[r] = RestorePlan{Rank: r, Origin: origins[r], Node: node}
		}
		if iv, _, _, verr := res.LatestValid(); verr == nil && iv >= e.Interval {
			return nil, none, false, nil // a stable commit dominates every older hold
		}
		c.ins.Emit("hnp", "job.restart-held", "from %s held interval %d (%s) np=%d",
			gd, e.Interval, e.LevelLabel(), spec.NP)
		next, err := c.relaunch(spec, res.HeldLadder(e), plans, e.JobID, e.Interval)
		if errors.Is(err, snapshot.ErrNoCopy) {
			continue // a sealed share that names another rank: try an older hold
		}
		if err != nil {
			return nil, none, false, err
		}
		// The new incarnation owns protection from here; abandon the old
		// lineage's in-memory holds (the on-disk stages the restores read
		// are untouched — only the accounting is dropped).
		c.Drainer().DropHeld(gd)
		c.ins.Counter("ompi_restart_from_hold_total").Inc()
		return next, e, true, nil
	}
	return nil, none, false, nil
}
