// Journal reconstruction from stage markers.
//
// Two failure shapes can lose drain-journal entries while the captured
// payload survives: an HNP crash inside the quiesce window (the orteds
// seal their LOCAL_COMMITTED stages autonomously, but the coordinator
// died before Enqueue could journal the interval — or with the record
// still unlanded in its journal handle), and a damaged journal whose
// replay cut the records (a journal from before the record log replays
// as one damaged line). In both cases the sealed node-local stages are the
// ground truth: each carries a LOCAL_COMMITTED marker and per-rank
// snapshot metadata, enough to rebuild the CAPTURED journal entry and
// hand the interval back to the normal Recover pass.
package snapc

import (
	"path"
	"sort"
	"strconv"

	"repro/internal/core/snapshot"
	"repro/internal/vfs"
)

// RebuildJournal scans the surviving nodes for sealed interval stages
// of job that the drain journal has no entry for, and re-records them
// as CAPTURED. Only complete orphans are resurrected: every rank of the
// job must be accounted for across the live stages (a node's own stage
// or a parked stage replica of a dead node), otherwise the orphan is
// skipped — an incomplete capture was never a checkpoint. Returns the
// number of entries rebuilt. Run it before Recover; the rebuilt entries
// flow through the normal fast-forward / re-drain / discard resolution.
func RebuildJournal(env *Env, globalDir string, job JobView, alive func(string) bool) (int, error) {
	j := snapshot.OpenJournal(snapshot.GlobalRef{FS: env.Stable, Dir: globalDir})
	entries, err := j.Load()
	if err != nil {
		return 0, err
	}
	known := make(map[int]bool, len(entries))
	maxKnown := -1
	for _, e := range entries {
		known[e.Interval] = true
		if e.Interval > maxKnown {
			maxKnown = e.Interval
		}
	}
	var survivors []string
	if env.Nodes != nil {
		for _, n := range env.Nodes() {
			if alive == nil || alive(n) {
				survivors = append(survivors, n)
			}
		}
	}
	// Candidate intervals: every sealed stage (or stage replica) of this
	// job on any survivor whose interval the journal does not know.
	candidates := make(map[int]bool)
	jobID := int(job.JobID())
	for _, node := range survivors {
		fsys, err := env.NodeFS(node)
		if err != nil {
			continue
		}
		for _, root := range []string{snapshot.LocalStageRoot(jobID), snapshot.StageReplicaRoot(jobID)} {
			infos, err := fsys.ReadDir(root)
			if err != nil {
				continue
			}
			for _, info := range infos {
				iv, err := strconv.Atoi(path.Base(info.Name))
				if err != nil || known[iv] {
					continue
				}
				if iv <= maxKnown {
					// The journal is monotone; an orphan older than the
					// newest recorded interval cannot be re-recorded.
					// It is stale debris, not a lost checkpoint.
					continue
				}
				candidates[iv] = true
			}
		}
	}
	ivs := make([]int, 0, len(candidates))
	for iv := range candidates {
		ivs = append(ivs, iv)
	}
	sort.Ints(ivs)

	rebuilt := 0
	for _, iv := range ivs {
		e, ok := rebuildEntry(env, job, iv, survivors)
		if !ok {
			env.Ins.Emit("snapc.drain", "rebuild.incomplete",
				"interval %d: sealed stages found but not every rank accounted for; skipping", iv)
			continue
		}
		if err := j.Record(e); err != nil {
			env.Ins.Emit("snapc.drain", "rebuild.record-failed", "interval %d: %v", iv, err)
			continue
		}
		rebuilt++
		env.Ins.Counter("ompi_snapc_journal_rebuilt_total").Inc()
		env.Ins.Emit("snapc.drain", "rebuild.recorded",
			"interval %d journal entry rebuilt from %d sealed stages", iv, len(e.Nodes))
	}
	return rebuilt, nil
}

// rebuildEntry reconstructs one interval's CAPTURED journal entry from
// the sealed stages on the survivors. A rank found under a stage
// replica is attributed to its origin node (the replica path encodes
// it), so the entry matches what Enqueue would have journaled and
// Recover's stagePlan re-resolves the replica.
func rebuildEntry(env *Env, job JobView, interval int, survivors []string) (snapshot.JournalEntry, bool) {
	base := snapshot.LocalStageBase(int(job.JobID()), interval)
	e := snapshot.JournalEntry{
		Interval: interval, State: snapshot.StateCaptured,
		JobID: int(job.JobID()), NumProcs: job.NumProcs(),
		AppName: job.AppName(), AppArgs: job.AppArgs(),
		MCAParams: job.Params().Map(), LocalBase: base,
	}
	seen := make(map[int]bool, job.NumProcs())
	nodes := make(map[string]bool)
	addStage := func(fsys vfs.FS, stageDir, origin string) {
		if !vfs.Exists(fsys, path.Join(stageDir, snapshot.LocalCommittedFile)) {
			return
		}
		infos, err := fsys.ReadDir(stageDir)
		if err != nil {
			return
		}
		for _, info := range infos {
			dir := path.Join(stageDir, path.Base(info.Name))
			meta, err := snapshot.ReadLocal(snapshot.LocalRef{FS: fsys, Dir: dir})
			if err != nil || meta.Interval != interval || meta.JobID != int(job.JobID()) || seen[meta.Vpid] {
				continue
			}
			seen[meta.Vpid] = true
			nodes[origin] = true
			// The entry records the origin-relative stage path, exactly
			// as Enqueue would have; stagePlan redirects to the replica
			// holder at recovery time if the origin is gone.
			e.Procs = append(e.Procs, snapshot.JournalProc{
				Vpid: meta.Vpid, Node: origin, Component: meta.Component,
				Dir: path.Join(base, snapshot.LocalDirName(meta.Vpid)),
			})
			if sz, err := vfs.TreeSize(fsys, dir); err == nil {
				e.StagedBytes += sz
			}
			if e.CapturedAt.IsZero() || meta.Taken.Before(e.CapturedAt) {
				e.CapturedAt = meta.Taken
			}
		}
	}
	for _, node := range survivors {
		fsys, err := env.NodeFS(node)
		if err != nil {
			continue
		}
		// The node's own sealed stage...
		addStage(fsys, base, node)
		// ...and any stage replicas it holds for other (possibly dead)
		// origin nodes.
		repRoot := path.Join(snapshot.StageReplicaRoot(int(job.JobID())), snapshot.IntervalDirName(interval))
		if infos, err := fsys.ReadDir(repRoot); err == nil {
			for _, info := range infos {
				origin := path.Base(info.Name)
				addStage(fsys, path.Join(repRoot, origin), origin)
			}
		}
	}
	if len(seen) != job.NumProcs() || len(seen) == 0 {
		return snapshot.JournalEntry{}, false
	}
	sort.Slice(e.Procs, func(a, b int) bool { return e.Procs[a].Vpid < e.Procs[b].Vpid })
	for n := range nodes {
		e.Nodes = append(e.Nodes, n)
	}
	sort.Strings(e.Nodes)
	return e, true
}
