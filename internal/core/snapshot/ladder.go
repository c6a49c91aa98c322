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
// The walk (Walk) hands every candidate copy to the caller, who makes
// it readable on the rank's node and returns the rank's LocalMeta as
// read there; the ladder checks that it names the interval's job, the
// interval and the rank. A copy that does not is skipped and the walk
// goes on.
//
// A ShareLadder trusts no copy the resolver did not verify: it carries
// each rank's slice of the committed manifest (Source.Sums), and the
// caller checks the share's bytes where it reads them. A copy that
// fails the check is skipped like one that names the wrong share.
package snapshot

import (
	"errors"
	"fmt"
	"path"
	"strings"

	"repro/internal/vfs"
)

// ErrNoCopy reports that no intact copy survives: of one rank's share
// (every rung of the ladder failed), or of a committed interval
// (Resolver.Resolve, Resolver.Committed).
var ErrNoCopy = errors.New("snapshot: no intact copy survives")

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

var sourceKinds = [...]string{FromStage: "local", FromStageReplica: "stage-replica", FromReplica: "replica", FromStable: "stable"}

// String names the rung: "local", "stage-replica", "replica" or
// "stable".
func (k SourceKind) String() string { return sourceKinds[k] }

// Source is one rank's surviving copy of an interval.
type Source struct {
	Kind SourceKind
	// Node holds the copy; "" is stable storage.
	Node string
	FS   vfs.FS
	Dir  string
	Meta LocalMeta
	// Sums is the share's slice of the committed manifest, keyed by
	// path relative to Dir, when the ladder checks shares (ShareLadder);
	// nil otherwise.
	Sums map[string]string
}

// Label names the source as the rank table shows it: the rung, and for
// a replica the node holding it ("replica:n3").
func (s Source) Label() string {
	if s.Kind == FromReplica || s.Kind == FromStageReplica {
		return s.Kind.String() + ":" + s.Node
	}
	return s.Kind.String()
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
	// holders are the live nodes whose replica of the committed
	// interval the replica rung reads, in preference order.
	holders []string
	// sums holds each rank's share of the manifest (ShareLadder only).
	sums map[int]map[string]string
}

// CommittedLadder walks a committed interval. meta is its metadata and
// cp the copy the stable rung reads: the primary, or the intact
// alternate Resolve returned.
func (r *Resolver) CommittedLadder(meta GlobalMeta, cp Copy) *Ladder {
	l := r.committedLadder(meta, cp)
	// One verified replica serves every rank, since it holds the whole
	// interval: survey the nodes once per interval, stopping at the
	// first that verifies. A restart onto fresh nodes finds none.
	for _, rc := range r.replicas(meta.Interval, VerifyDir, intact) {
		if rc.err == nil {
			l.holders = []string{rc.Node}
		}
	}
	return l
}

// ShareLadder walks a committed interval whose copies nobody verified
// whole: cp is a copy whose metadata checks out (Committed), and every
// source carries its share's slice of meta's manifest, for the caller
// of Walk to check where it reads the share. The replica rung reads any
// live node's committed replica, the rank's target node first.
func (r *Resolver) ShareLadder(meta GlobalMeta, cp Copy) *Ladder {
	l := r.committedLadder(meta, cp)
	l.sums = make(map[int]map[string]string, len(meta.Procs))
	share := make(map[string]map[string]string, len(meta.Procs)) // local dir -> its sums
	for _, pe := range meta.Procs {
		l.sums[pe.Vpid] = make(map[string]string)
		share[pe.LocalDir] = l.sums[pe.Vpid]
	}
	for rel, sum := range meta.Checksums {
		if dir, file, ok := strings.Cut(rel, "/"); ok && share[dir] != nil {
			share[dir][file] = sum
		}
	}
	dir := ReplicaDir(r.Ref.Dir, meta.Interval)
	for _, node := range r.Nodes {
		if fsys, err := r.nodeFS(node); err == nil && vfs.Exists(fsys, path.Join(dir, CommittedFile)) {
			l.holders = append(l.holders, node)
		}
	}
	return l
}

// committedLadder is the part of a committed interval's ladder both
// flavours share.
func (r *Resolver) committedLadder(meta GlobalMeta, cp Copy) *Ladder {
	l := &Ladder{
		res: r, jobID: meta.JobID, interval: meta.Interval,
		base: LocalStageBase(meta.JobID, meta.Interval), stable: cp,
		localDir: make(map[int]string, len(meta.Procs)),
	}
	for _, pe := range meta.Procs {
		l.localDir[pe.Vpid] = pe.LocalDir
	}
	return l
}

// HeldLadder walks a held (sub-stable) interval from its journal entry:
// only the stage rungs exist.
func (r *Resolver) HeldLadder(e JournalEntry) *Ladder {
	return &Ladder{res: r, jobID: e.JobID, interval: e.Interval, base: e.LocalBase, held: true}
}

// Walk returns the first surviving copy of rank's share, for a rank
// captured on origin that restarts on target. It hands each candidate
// copy, in rung order, to use: use makes the copy readable on target
// (in place, or staged there), checks the share's bytes against
// src.Sums when it carries them, and returns the local metadata it
// read. A copy use rejects with ErrCorrupt, or whose metadata names
// another share, is skipped like a missing one; any other error from
// use ends the walk. When every rung fails the error wraps ErrNoCopy.
func (l *Ladder) Walk(rank int, origin, target string, use func(Source) (LocalMeta, error)) (Source, error) {
	var rungs []Source
	if origin == target && l.res.sealed(origin, l.base) {
		rungs = append(rungs, Source{Kind: FromStage, Node: origin, Dir: path.Join(l.base, LocalDirName(rank))})
	}
	rel, ok := l.localDir[rank]
	switch {
	case l.held:
		if h := l.res.stageHolder(l.jobID, l.interval, origin); h != "" {
			dir := path.Join(StageReplicaBase(l.jobID, l.interval, origin), LocalDirName(rank))
			rungs = append(rungs, Source{Kind: FromStageReplica, Node: h, Dir: dir})
		}
	case !ok:
		return Source{}, fmt.Errorf("snapshot: interval %d metadata has no entry for rank %d", l.interval, rank)
	default:
		for _, h := range l.replicaOrder(target) {
			rungs = append(rungs, Source{Kind: FromReplica, Node: h, Dir: path.Join(ReplicaDir(l.res.Ref.Dir, l.interval), rel)})
		}
		rungs = append(rungs, Source{Kind: FromStable, Node: l.stable.Node, FS: l.stable.FS, Dir: path.Join(l.stable.Dir, rel)})
	}

	var skipped error // why the last rung was passed over
	for _, src := range rungs {
		var err error
		if src.FS == nil {
			src.FS, err = l.res.nodeFS(src.Node)
		}
		if err == nil {
			src.Sums = l.sums[rank]
			if src.Meta, err = use(src); err != nil && !errors.Is(err, ErrCorrupt) {
				return Source{}, err
			}
		}
		if err == nil {
			if err = l.check(src.Meta, src.Dir, rank); err == nil {
				return src, nil
			}
		}
		skipped = err
	}
	if l.held {
		return Source{}, fmt.Errorf("%w: held interval %d: rank %d has no surviving share of node %q",
			ErrNoCopy, l.interval, rank, origin)
	}
	return Source{}, fmt.Errorf("%w: rank %d has no restorable copy at interval %d: %w", ErrNoCopy, rank, l.interval, skipped)
}

// replicaOrder lists the replica holders with target, when it holds
// one, first: a copy on the rank's own node is read in place.
func (l *Ladder) replicaOrder(target string) []string {
	for i, h := range l.holders {
		if h == target && i > 0 {
			out := append([]string{h}, l.holders[:i]...)
			return append(out, l.holders[i+1:]...)
		}
	}
	return l.holders
}

// check verifies that meta, read from the copy at dir, names rank's
// share of this interval of this job.
func (l *Ladder) check(meta LocalMeta, dir string, rank int) error {
	if meta.Interval != l.interval || meta.JobID != l.jobID || meta.Vpid != rank {
		return fmt.Errorf("%w: %q holds job %d rank %d interval %d, want job %d rank %d interval %d",
			ErrCorrupt, dir, meta.JobID, meta.Vpid, meta.Interval, l.jobID, rank, l.interval)
	}
	return nil
}
