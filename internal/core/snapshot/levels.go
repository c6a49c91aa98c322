// Multilevel checkpoint resolution (DESIGN.md §5g): the three
// durability tiers the store already keeps — sealed node-local stages,
// node-to-node stage replicas, committed stable intervals — promoted to
// explicit checkpoint levels with one survey/resolution path across
// all of them.
//
//	L1  node-local stages only: each capturing node holds its share of
//	    the interval under a LOCAL_COMMITTED marker. Cheapest to take
//	    (no gather), gone with the node.
//	L2  stage-replicated: each node's sealed share also lives on a peer
//	    node at the StageReplicaBase convention path, so the interval
//	    survives a single node loss without stable storage.
//	L3  stable-committed: the interval is gathered, committed and
//	    k-replicated on stable storage — the pre-existing pipeline.
//
// The path conventions live here (the lowest layer that restart, the
// drain engine, and the tools all see) so every consumer probes the
// same locations; snapc delegates its exported helpers to these.
package snapshot

import (
	"fmt"
	"path"
	"sort"
)

// Checkpoint levels, ordered by durability.
const (
	// LevelLocal (L1): sealed node-local stages only.
	LevelLocal = 1
	// LevelReplica (L2): stages plus per-node stage replicas on peers.
	LevelReplica = 2
	// LevelStable (L3): committed (and possibly replicated) on stable
	// storage.
	LevelStable = 3
)

// LocalStageRoot is the directory under which a node keeps its local
// snapshot stages of one job's intervals.
func LocalStageRoot(jobID int) string {
	return fmt.Sprintf("tmp/ckpt/job%d", jobID)
}

// LocalStageBase is where a node keeps its local snapshot stages for
// one checkpoint interval of one job. A complete share is sealed with a
// LocalCommittedFile marker directly under this directory.
func LocalStageBase(jobID, interval int) string {
	return path.Join(LocalStageRoot(jobID), IntervalDirName(interval))
}

// StageReplicaRoot is the directory under which a holder node keeps its
// copies of other nodes' stage shares of one job's intervals.
func StageReplicaRoot(jobID int) string {
	return fmt.Sprintf("tmp/ckpt_stage_replicas/job%d", jobID)
}

// StageReplicaBase is where a holder node keeps its copy of another
// node's stage share for one interval: the whole LocalStageBase tree
// (markers included) of origin's share. Discoverable by path alone, so
// recovery and the level survey can use it even when the journal never
// learned of the copy.
func StageReplicaBase(jobID, interval int, origin string) string {
	return path.Join(StageReplicaRoot(jobID), IntervalDirName(interval), origin)
}

// LevelInfo is one interval's presence across the checkpoint levels —
// the survey a level-aware retention decision or a stats table needs.
type LevelInfo struct {
	Interval int
	// Best is the highest level holding a usable copy: LevelStable when
	// an intact committed copy verifies, LevelReplica when every origin
	// share is resolvable and at least one stage replica exists,
	// LevelLocal when only the origin stages cover it, 0 when the
	// interval is not restorable from any rung.
	Best int
	// Label is the journal's durability label for the interval ("L1",
	// "L2", "parked", ...) or "L3" for stable-only intervals the
	// journal no longer tracks.
	Label string
	// L1Nodes are the origin nodes whose own sealed stage share is
	// present (LOCAL_COMMITTED marker intact).
	L1Nodes []string
	// L2Held maps origin → holder for the stage-replica shares found on
	// peer nodes.
	L2Held map[string]string
	// Stable reports an intact committed copy (primary or interval
	// replica) verified on the stable rung.
	Stable bool
	// Restorable reports that every origin node's share of the interval
	// is resolvable from some rung: its own stage, a stage replica, or
	// the stable copy.
	Restorable bool
}

// surveyEntry probes one undrained journal entry's stage rungs.
func (r *Resolver) surveyEntry(jobID int, e JournalEntry) LevelInfo {
	info := LevelInfo{
		Interval: e.Interval,
		Label:    e.LevelLabel(),
		L2Held:   make(map[string]string),
	}
	covered := 0
	for _, origin := range e.Nodes {
		own, holder := r.ProbeShare(jobID, e.Interval, e.LocalBase, origin)
		if own {
			info.L1Nodes = append(info.L1Nodes, origin)
		}
		if holder != "" {
			info.L2Held[origin] = holder
		}
		if own || holder != "" {
			covered++
		}
	}
	info.Restorable = len(e.Nodes) > 0 && covered == len(e.Nodes)
	if info.Restorable {
		if len(info.L2Held) > 0 {
			info.Best = LevelReplica
		} else {
			info.Best = LevelLocal
		}
	}
	return info
}

// SurveyLevels maps every known interval — the stable candidates plus
// the journal's undrained entries — to its presence across the levels,
// intervals ascending. Stable copies are fully verified (an intact
// primary or replica makes the interval LevelStable); undrained entries
// are probed on the nodes for sealed stages and stage replicas.
func (r *Resolver) SurveyLevels(jobID int, entries []JournalEntry) []LevelInfo {
	byInterval := make(map[int]*LevelInfo)
	for _, e := range entries {
		if e.State.Terminal() {
			continue
		}
		info := r.surveyEntry(jobID, e)
		byInterval[e.Interval] = &info
	}
	for _, iv := range r.Candidates() {
		if _, _, err := r.Resolve(iv); err != nil {
			continue
		}
		info := byInterval[iv]
		if info == nil {
			info = &LevelInfo{Interval: iv, Label: "L3"}
			byInterval[iv] = info
		}
		info.Stable = true
		info.Restorable = true
		info.Best = LevelStable
	}
	out := make([]LevelInfo, 0, len(byInterval))
	for _, info := range byInterval {
		out = append(out, *info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Interval < out[b].Interval })
	return out
}
