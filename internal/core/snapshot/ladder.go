// The restore-source ladder (DESIGN.md "Restore source ladder"): the
// one place that decides where a rank's share of an interval survives.
// Whole-job restart, hold-direct restart and in-job recovery all ask
// it; each caller keeps only its placement policy and labels.
//
// The rungs, first survivor wins:
//
//  1. the origin node's sealed stage, when the rank restarts there;
//  2. a live node's stage replica (held interval) or a live node's
//     interval replica that verifies (committed interval);
//  3. the committed copy the resolver verified: the stable primary, or
//     the intact alternate standing in for a damaged primary.
//
// Every rung reads the rank's LocalMeta and checks that it names the
// interval's job, the interval and the rank; a copy that does not is
// skipped and the walk goes on.
package snapshot

import (
	"fmt"
	"path"

	"repro/internal/vfs"
)

// SourceKind names the ladder rung a restore source came from.
type SourceKind int

const (
	// FromStage is the origin node's own sealed stage.
	FromStage SourceKind = iota + 1
	// FromStageReplica is a peer node's copy of the origin's sealed stage.
	FromStageReplica
	// FromReplica is a node's replica of the committed interval.
	FromReplica
	// FromStable is the verified committed copy.
	FromStable
)

// Source is one rank's surviving copy of an interval.
type Source struct {
	Kind SourceKind
	// Node holds the copy; "" is stable storage.
	Node string
	FS   vfs.FS
	Dir  string
	Meta LocalMeta
}

// ProbeShare is the per-node share probe: own reports origin's stage of
// the interval sealed in place under base, and holder names the first
// other node in r.Nodes holding a sealed stage replica of it ("" when
// none does). A node whose filesystem does not resolve (a dead node)
// holds nothing.
func (r *Resolver) ProbeShare(jobID, interval int, base, origin string) (own bool, holder string) {
	return r.sealed(origin, base), r.stageHolder(jobID, interval, origin)
}

// stageHolder names the first node other than origin in r.Nodes that
// holds a sealed replica of origin's stage of the interval, "" when
// none does.
func (r *Resolver) stageHolder(jobID, interval int, origin string) string {
	replica := StageReplicaBase(jobID, interval, origin)
	for _, h := range r.Nodes {
		if h != origin && r.sealed(h, replica) {
			return h
		}
	}
	return ""
}

// sealed reports whether node holds a stage sealed at base.
func (r *Resolver) sealed(node, base string) bool {
	fsys, err := r.nodeFS(node)
	return err == nil && vfs.Exists(fsys, path.Join(base, LocalCommittedFile))
}

// Ladder walks the restore-source rungs for every rank of one interval.
type Ladder struct {
	res      *Resolver
	jobID    int
	interval int
	base     string // the origin nodes' stage base
	held     bool   // sub-stable hold: stage replicas, no committed copy
	stable   Copy
	localDir map[int]string // rank -> local snapshot dir inside an interval copy
	replica  string         // live node holding a verified replica of the committed interval
}

// CommittedLadder walks a committed interval. meta is its metadata and
// cp the copy the stable rung reads: the primary, or the intact
// alternate Resolve returned.
func (r *Resolver) CommittedLadder(meta GlobalMeta, cp Copy) *Ladder {
	l := &Ladder{
		res: r, jobID: meta.JobID, interval: meta.Interval,
		base: LocalStageBase(meta.JobID, meta.Interval), stable: cp,
		localDir: make(map[int]string, len(meta.Procs)),
	}
	for _, pe := range meta.Procs {
		l.localDir[pe.Vpid] = pe.LocalDir
	}
	// One verified replica serves every rank, since it holds the whole
	// interval: survey the nodes once per interval, stopping at the
	// first that verifies. A restart onto fresh nodes finds none.
	for _, rc := range r.replicas(meta.Interval, intact) {
		if rc.err == nil {
			l.replica = rc.Node
		}
	}
	return l
}

// HeldLadder walks a held (sub-stable) interval from its journal entry:
// only the stage rungs exist.
func (r *Resolver) HeldLadder(e JournalEntry) *Ladder {
	return &Ladder{res: r, jobID: e.JobID, interval: e.Interval, base: e.LocalBase, held: true}
}

// Source returns the first surviving copy of rank's share, for a rank
// captured on origin that restarts on target.
func (l *Ladder) Source(rank int, origin, target string) (Source, error) {
	if origin == target && l.res.sealed(origin, l.base) {
		if src, err := l.read(FromStage, origin, path.Join(l.base, LocalDirName(rank)), rank); err == nil {
			return src, nil
		}
	}
	if l.held {
		if h := l.res.stageHolder(l.jobID, l.interval, origin); h != "" {
			dir := path.Join(StageReplicaBase(l.jobID, l.interval, origin), LocalDirName(rank))
			if src, err := l.read(FromStageReplica, h, dir, rank); err == nil {
				return src, nil
			}
		}
		return Source{}, fmt.Errorf("snapshot: held interval %d: rank %d has no surviving share of node %q",
			l.interval, rank, origin)
	}
	rel, ok := l.localDir[rank]
	if !ok {
		return Source{}, fmt.Errorf("snapshot: interval %d metadata has no entry for rank %d", l.interval, rank)
	}
	if l.replica != "" {
		if src, err := l.read(FromReplica, l.replica, path.Join(ReplicaDir(l.res.Ref.Dir, l.interval), rel), rank); err == nil {
			return src, nil
		}
	}
	src, err := l.check(Source{Kind: FromStable, Node: l.stable.Node, FS: l.stable.FS, Dir: path.Join(l.stable.Dir, rel)}, rank)
	if err != nil {
		return Source{}, fmt.Errorf("snapshot: rank %d has no restorable copy at interval %d: %w", rank, l.interval, err)
	}
	return src, nil
}

// read resolves rank's local snapshot at dir on node as a source of kind.
func (l *Ladder) read(kind SourceKind, node, dir string, rank int) (Source, error) {
	fsys, err := l.res.nodeFS(node)
	if err != nil {
		return Source{}, err
	}
	return l.check(Source{Kind: kind, Node: node, FS: fsys, Dir: dir}, rank)
}

// check reads src's metadata and verifies that src is rank's share of
// this interval of this job.
func (l *Ladder) check(src Source, rank int) (Source, error) {
	meta, err := ReadLocal(LocalRef{FS: src.FS, Dir: src.Dir})
	if err != nil {
		return Source{}, err
	}
	if meta.Interval != l.interval || meta.JobID != l.jobID || meta.Vpid != rank {
		return Source{}, fmt.Errorf("snapshot: %q holds job %d rank %d interval %d, want job %d rank %d interval %d",
			src.Dir, meta.JobID, meta.Vpid, meta.Interval, l.jobID, rank, l.interval)
	}
	src.Meta = meta
	return src, nil
}
