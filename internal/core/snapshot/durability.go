// Snapshot durability: k-way replication of committed intervals,
// replica-aware restart resolution, and scrub/repair.
//
// The paper's snapshot-reference design (§4) funnels every global
// snapshot into one stable store, which leaves restartability with a
// single point of failure. The durability layer removes it: SNAPC
// pushes byte-identical copies of each committed interval onto
// node-local stores, restart falls back to any intact copy when the
// primary is missing or corrupt, and a scrub pass re-hashes every copy
// and heals the set back to k.
//
// Replicas are discoverable by convention, not by record: a replica of
// interval N of global snapshot dir G lives at ReplicaDir(G, N) on the
// holding node and is a full copy of the interval directory — payload,
// metadata and COMMITTED marker — so it validates standalone via
// VerifyDir even when the primary (and the ReplicaRecords inside its
// metadata) no longer exists.
package snapshot

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/vfs"
)

// replicaRoot is the directory on a node-local store under which that
// node keeps its replicas of global snapshot intervals.
const replicaRoot = "ckpt_replicas"

// ReplicaRoot returns the node-local directory holding a node's
// replicas of the given global snapshot.
func ReplicaRoot(globalDir string) string {
	return path.Join(replicaRoot, globalDir)
}

// ReplicaDir returns the node-local directory holding a node's replica
// of one interval of the given global snapshot.
func ReplicaDir(globalDir string, interval int) string {
	return path.Join(ReplicaRoot(globalDir), IntervalDirName(interval))
}

// ManifestHash condenses a checksum manifest into a single hex sha256.
// Two interval copies with equal manifest hashes hold byte-identical
// payloads; ReplicaRecord carries it so tools can compare copies
// without re-hashing every file.
func ManifestHash(sums map[string]string) string {
	rels := make([]string, 0, len(sums))
	for rel := range sums {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var b strings.Builder
	for _, rel := range rels {
		b.WriteString(rel)
		b.WriteByte('=')
		b.WriteString(sums[rel])
		b.WriteByte('\n')
	}
	return vfs.HashBytes([]byte(b.String()))
}

// ReplicaPreference orders candidate replica holders: nodes that do not
// host the interval's processes first (losing such a node costs either
// the ranks or the copy, never both), then — when the cluster is too
// small — the job's own nodes. Candidate order is preserved within each
// class, so placement is deterministic.
func ReplicaPreference(jobNodes, candidates []string) []string {
	onJob := make(map[string]bool, len(jobNodes))
	for _, n := range jobNodes {
		onJob[n] = true
	}
	out := make([]string, 0, len(candidates))
	for _, n := range candidates {
		if !onJob[n] {
			out = append(out, n)
		}
	}
	for _, n := range candidates {
		if onJob[n] {
			out = append(out, n)
		}
	}
	return out
}

// PlaceReplicas picks up to k distinct replica holders from candidates
// in ReplicaPreference order. Fewer than k candidates degrade
// gracefully to what the cluster has.
func PlaceReplicas(k int, jobNodes, candidates []string) []string {
	pref := ReplicaPreference(jobNodes, candidates)
	if len(pref) > k {
		pref = pref[:k]
	}
	return pref
}

// Copy locates one verified copy of a committed interval: the primary
// interval directory on stable storage (Node == "") or a replica on a
// node-local store.
type Copy struct {
	Node string // holder; "" means the primary on stable storage
	FS   vfs.FS
	Dir  string
}

// Primary reports whether the copy is the primary on stable storage.
func (c Copy) Primary() bool { return c.Node == "" }

func (c Copy) String() string {
	if c.Primary() {
		return "primary"
	}
	return "replica:" + c.Node
}

// Resolver finds restartable interval copies across the primary store
// and the surviving nodes' replica trees. With no Nodes (or a nil
// NodeFS) it degrades to primary-only resolution.
type Resolver struct {
	// Ref is the primary global snapshot on stable storage.
	Ref GlobalRef
	// Nodes are the replica holders to consult, in preference order
	// (typically the cluster's surviving nodes).
	Nodes []string
	// NodeFS resolves a node's local filesystem; an error (dead node)
	// skips that node.
	NodeFS func(node string) (vfs.FS, error)
	// Ins observes resolution, repair and scrub: snapshot.* trace
	// events, restart.resolve spans, scrub counters. Optional.
	Ins *trace.Instrumentation
}

// nodeFS resolves one replica holder, tolerating a nil NodeFS.
func (r *Resolver) nodeFS(node string) (vfs.FS, error) {
	if r.NodeFS == nil {
		return nil, fmt.Errorf("snapshot: no node filesystem resolver")
	}
	return r.NodeFS(node)
}

// Candidates lists every interval for which at least one copy —
// primary or replica — is present (committed, not necessarily intact),
// in ascending order. The primary store being dead or empty does not
// hide intervals that survive on replicas.
func (r *Resolver) Candidates() []int {
	seen := make(map[int]bool)
	if ivs, err := Intervals(r.Ref); err == nil {
		for _, iv := range ivs {
			seen[iv] = true
		}
	}
	for _, node := range r.Nodes {
		if fsys, err := r.nodeFS(node); err == nil {
			ivs, _ := committedIntervals(fsys, ReplicaRoot(r.Ref.Dir))
			for _, iv := range ivs {
				seen[iv] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for iv := range seen {
		out = append(out, iv)
	}
	sort.Ints(out)
	return out
}

// Resolve returns a fully-verified copy of the given interval: the
// primary when intact, otherwise the first intact replica on a
// reachable node. It fails only when no intact copy exists anywhere.
func (r *Resolver) Resolve(interval int) (GlobalMeta, Copy, error) {
	meta, perr := VerifyInterval(r.Ref, interval)
	if perr == nil {
		return meta, Copy{FS: r.Ref.FS, Dir: r.Ref.IntervalDir(interval)}, nil
	}
	lastErr := perr
	for _, rc := range r.replicas(interval, intact) {
		if rc.err != nil {
			r.Ins.Emit("snapshot", "replica.corrupt", "interval %d replica on %s failed verification: %v", interval, rc.Node, rc.err)
			lastErr = rc.err
			continue
		}
		r.Ins.Emit("snapshot", "replica.fallback", "interval %d: primary unusable (%v); using replica on %s", interval, perr, rc.Node)
		return rc.meta, rc.Copy, nil
	}
	return GlobalMeta{}, Copy{}, fmt.Errorf("snapshot: interval %d has no intact copy: %w", interval, lastErr)
}

// replica is one node's replica of an interval as verified: err is nil
// when the copy is intact.
type replica struct {
	Copy
	meta GlobalMeta
	err  error
}

// intact stops a replica survey at the first copy that verifies.
func intact(rc replica) bool { return rc.err == nil }

// replicas fully verifies the reachable nodes' replicas of interval, in
// r.Nodes order, stopping after the first for which stop (when non-nil)
// reports true.
func (r *Resolver) replicas(interval int, stop func(replica) bool) []replica {
	var out []replica
	dir := ReplicaDir(r.Ref.Dir, interval)
	for _, node := range r.Nodes {
		fsys, err := r.nodeFS(node)
		if err != nil || !vfs.Exists(fsys, dir) {
			continue // dead or unreachable node, or no replica
		}
		meta, err := VerifyDir(fsys, dir)
		if err == nil && meta.Interval != interval {
			err = fmt.Errorf("%w: replica %q on %s claims interval %d, want %d",
				ErrCorrupt, dir, node, meta.Interval, interval)
		}
		out = append(out, replica{Copy{Node: node, FS: fsys, Dir: dir}, meta, err})
		if stop != nil && stop(out[len(out)-1]) {
			break
		}
	}
	return out
}

// LatestValid returns the newest interval with at least one intact
// copy, with the copy that verified. This is the quorum-restart rule:
// restart succeeds as long as one intact copy of some committed
// interval exists anywhere.
func (r *Resolver) LatestValid() (int, GlobalMeta, Copy, error) {
	sp := r.Ins.Span("restart.resolve", trace.WithSource("snapshot"))
	cands := r.Candidates()
	var lastErr error
	for i := len(cands) - 1; i >= 0; i-- {
		meta, cp, err := r.Resolve(cands[i])
		if err == nil {
			sp.End(nil)
			return cands[i], meta, cp, nil
		}
		lastErr = err
	}
	sp.End(lastErr)
	if lastErr != nil {
		return 0, GlobalMeta{}, Copy{}, fmt.Errorf("snapshot: %q has no valid interval copy: %w", r.Ref.Dir, lastErr)
	}
	return 0, GlobalMeta{}, Copy{}, fmt.Errorf("snapshot: %q contains no committed checkpoint intervals", r.Ref.Dir)
}

// Repair rebuilds the primary interval directory from an intact copy:
// stage a full copy on stable storage, replace whatever the primary
// holds, and re-verify. Restart repairs before relaunch so the relaunch
// path always reads the primary. A no-op when from is the primary.
func (r *Resolver) Repair(interval int, from Copy) error {
	if from.Primary() {
		return nil
	}
	stage := r.Ref.StageDir(interval)
	if vfs.Exists(r.Ref.FS, stage) {
		if err := r.Ref.FS.Remove(stage); err != nil {
			return fmt.Errorf("snapshot: repair interval %d: clear stage: %w", interval, err)
		}
	}
	if _, err := vfs.CopyTree(from.FS, from.Dir, r.Ref.FS, stage); err != nil {
		return fmt.Errorf("snapshot: repair interval %d from %s: %w", interval, from, err)
	}
	dir := r.Ref.IntervalDir(interval)
	if vfs.Exists(r.Ref.FS, dir) {
		if err := r.Ref.FS.Remove(dir); err != nil {
			return fmt.Errorf("snapshot: repair interval %d: clear damaged primary: %w", interval, err)
		}
	}
	if err := r.Ref.FS.Rename(stage, dir); err != nil {
		return fmt.Errorf("snapshot: repair interval %d: %w", interval, err)
	}
	if _, err := VerifyInterval(r.Ref, interval); err != nil {
		return fmt.Errorf("snapshot: repaired interval %d failed verification: %w", interval, err)
	}
	r.Ins.Emit("snapshot", "replica.repair", "interval %d primary rebuilt from %s", interval, from)
	return nil
}

// CopyHealth is one copy's state in the scrub ledger.
type CopyHealth struct {
	Copy     string `json:"copy"` // "primary" or "replica:<node>"
	OK       bool   `json:"ok"`
	Err      string `json:"err,omitempty"`
	Repaired bool   `json:"repaired,omitempty"` // healed during this scrub
}

// IntervalHealth is the scrub ledger entry for one interval: the state
// of every copy found (or created), and the intact count against the
// desired replication factor.
type IntervalHealth struct {
	Interval int          `json:"interval"`
	Copies   []CopyHealth `json:"copies"`
	Intact   int          `json:"intact"`  // intact copies after repair
	Desired  int          `json:"desired"` // primary + k replicas
	Actions  []string     `json:"actions,omitempty"`
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Intervals    []IntervalHealth `json:"intervals"`
	Repaired     int              `json:"repaired"`     // primaries rebuilt from replicas
	Rereplicated int              `json:"rereplicated"` // replica copies created or restored
	Unhealthy    int              `json:"unhealthy"`    // intervals still below desired after scrub
}

// Scrub re-hashes every copy of every interval against its manifest,
// rebuilds a damaged primary from any intact replica, and re-replicates
// intervals that have fallen below k intact replicas (node death,
// bitrot, operator deletion). It is best-effort by design: what cannot
// be healed is reported, not fatal.
func (r *Resolver) Scrub(k int) ScrubReport {
	var rep ScrubReport
	for _, iv := range r.Candidates() {
		h := r.scrubInterval(iv, k, &rep)
		if h.Intact < h.Desired {
			rep.Unhealthy++
		}
		rep.Intervals = append(rep.Intervals, h)
		r.Ins.Emit("snapshot", "scrub.interval", "interval %d: %d/%d copies intact", iv, h.Intact, h.Desired)
	}
	return rep
}

// scrubInterval heals one interval and returns its ledger entry.
func (r *Resolver) scrubInterval(iv, k int, rep *ScrubReport) IntervalHealth {
	h := IntervalHealth{Interval: iv, Desired: 1 + k}
	meta, perr := VerifyInterval(r.Ref, iv)
	primary := CopyHealth{Copy: "primary", OK: perr == nil}
	if perr != nil {
		primary.Err = perr.Error()
		r.Ins.Emit("snapshot", "scrub.corrupt", "interval %d primary: %v", iv, perr)
	}

	// Survey the replicas before any healing, so the ledger records what
	// the scrub actually found.
	found := r.replicas(iv, nil)
	for _, rc := range found {
		if rc.err != nil {
			r.Ins.Emit("snapshot", "scrub.corrupt", "interval %d replica on %s: %v", iv, rc.Node, rc.err)
		}
	}

	// Heal the primary first: every re-replication below copies from it.
	if perr != nil {
		for _, rc := range found {
			if rc.err != nil {
				continue
			}
			if err := r.Repair(iv, rc.Copy); err != nil {
				r.Ins.Emit("snapshot", "scrub.repair-failed", "interval %d: %v", iv, err)
				continue
			}
			meta, perr = rc.meta, nil
			primary.OK, primary.Repaired = true, true
			rep.Repaired++
			r.Ins.Counter("ompi_scrub_repairs_total").Inc()
			h.Actions = append(h.Actions, "primary rebuilt from "+rc.String())
			break
		}
	}
	h.Copies = append(h.Copies, primary)

	intactNodes := make(map[string]bool)
	health := make(map[string]*CopyHealth, len(found))
	for _, rc := range found {
		ch := CopyHealth{Copy: rc.String(), OK: rc.err == nil}
		if rc.err != nil {
			ch.Err = rc.err.Error()
		} else {
			intactNodes[rc.Node] = true
		}
		h.Copies = append(h.Copies, ch)
		health[rc.Node] = &h.Copies[len(h.Copies)-1]
	}

	// Re-replicate from the (now intact) primary: restore damaged
	// replicas in place, then create new ones on preferred nodes until
	// k intact replicas exist.
	if perr == nil && k > 0 {
		src := Copy{FS: r.Ref.FS, Dir: r.Ref.IntervalDir(iv)}
		for _, node := range ReplicaPreference(meta.Nodes, r.Nodes) {
			if len(intactNodes) >= k {
				break
			}
			if intactNodes[node] {
				continue
			}
			fsys, err := r.nodeFS(node)
			if err != nil {
				continue
			}
			if err := r.replicateTo(src, fsys, iv); err != nil {
				r.Ins.Emit("snapshot", "scrub.rereplicate-failed", "interval %d -> %s: %v", iv, node, err)
				continue
			}
			intactNodes[node] = true
			rep.Rereplicated++
			r.Ins.Counter("ompi_scrub_rereplicated_total").Inc()
			h.Actions = append(h.Actions, "re-replicated to "+node)
			r.Ins.Emit("snapshot", "scrub.rereplicate", "interval %d re-replicated to %s", iv, node)
			if ch, ok := health[node]; ok {
				ch.OK, ch.Repaired = true, true
				ch.Err = ""
			} else {
				h.Copies = append(h.Copies, CopyHealth{Copy: "replica:" + node, OK: true, Repaired: true})
			}
		}
	}

	if primary.OK {
		h.Intact++
	}
	h.Intact += len(intactNodes)
	return h
}

// replicateTo writes a verified full copy of the primary interval onto
// one node's replica tree, replacing whatever was there.
func (r *Resolver) replicateTo(src Copy, dst vfs.FS, iv int) error {
	dir := ReplicaDir(r.Ref.Dir, iv)
	if vfs.Exists(dst, dir) {
		if err := dst.Remove(dir); err != nil {
			return err
		}
	}
	if _, err := vfs.CopyTree(src.FS, src.Dir, dst, dir); err != nil {
		return err
	}
	_, err := VerifyDir(dst, dir)
	return err
}

// PruneReport lists what a replica-aware prune did.
type PruneReport struct {
	Removed []string // human-readable removal records
	Kept    []int    // restartable intervals kept
	// DamagedKept counts unrestorable intervals deliberately left in
	// place: when nothing anywhere passes verification, prune keeps the
	// damaged data for manual inspection instead of deleting the only
	// traces.
	DamagedKept int
}

// Prune reclaims space without ever reducing restartability:
//
//   - uncommitted debris on the primary is always removed;
//   - intervals with no intact copy anywhere are left for inspection
//     when nothing restartable exists at all, and removed otherwise;
//   - the newest keep restartable intervals are kept, older ones are
//     removed (primary and replicas);
//   - kept intervals have excess replicas reclaimed first — damaged
//     replicas, then intact ones beyond k — but the last intact copy of
//     an interval is never dropped, even when the primary is corrupt.
//
// k < 0 leaves replica counts of kept intervals alone.
func (r *Resolver) Prune(keep, k int) (PruneReport, error) {
	var rep PruneReport
	if debris, err := Uncommitted(r.Ref); err == nil {
		for _, name := range debris {
			if err := r.Ref.FS.Remove(path.Join(r.Ref.Dir, name)); err != nil {
				return rep, fmt.Errorf("snapshot: prune %s: %w", name, err)
			}
			rep.Removed = append(rep.Removed, "uncommitted "+name)
		}
	}

	type state struct {
		primaryOK      bool
		primaryPresent bool
		intact         []string // nodes with intact replicas, preference order
		damaged        []string
	}
	cands := r.Candidates()
	states := make(map[int]*state, len(cands))
	var restartable []int
	for _, iv := range cands {
		st := &state{}
		st.primaryPresent = vfs.Exists(r.Ref.FS, r.Ref.IntervalDir(iv))
		if _, err := VerifyInterval(r.Ref, iv); err == nil {
			st.primaryOK = true
		}
		for _, rc := range r.replicas(iv, nil) {
			if rc.err == nil {
				st.intact = append(st.intact, rc.Node)
			} else {
				st.damaged = append(st.damaged, rc.Node)
			}
		}
		states[iv] = st
		if st.primaryOK || len(st.intact) > 0 {
			restartable = append(restartable, iv)
		}
	}
	if len(restartable) == 0 {
		// Nothing anywhere passes verification: keep the damaged data for
		// manual inspection rather than deleting the last traces.
		rep.DamagedKept = len(cands)
		return rep, nil
	}
	kept := restartable
	if keep >= 0 && len(kept) > keep {
		kept = kept[len(kept)-keep:]
	}
	keptSet := make(map[int]bool, len(kept))
	for _, iv := range kept {
		keptSet[iv] = true
	}
	rep.Kept = kept

	removeReplica := func(iv int, node string) error {
		fsys, err := r.nodeFS(node)
		if err != nil {
			return nil // unreachable node: nothing to reclaim
		}
		if err := fsys.Remove(ReplicaDir(r.Ref.Dir, iv)); err != nil {
			return fmt.Errorf("snapshot: prune replica of %d on %s: %w", iv, node, err)
		}
		rep.Removed = append(rep.Removed, fmt.Sprintf("interval %d replica on %s", iv, node))
		return nil
	}

	for _, iv := range cands {
		st := states[iv]
		if !keptSet[iv] {
			// Not worth keeping (superseded or unrestorable): drop every
			// copy, primary and replicas alike.
			if st.primaryPresent {
				if err := r.Ref.FS.Remove(r.Ref.IntervalDir(iv)); err != nil {
					return rep, fmt.Errorf("snapshot: prune interval %d: %w", iv, err)
				}
				rep.Removed = append(rep.Removed, fmt.Sprintf("interval %d", iv))
			}
			for _, node := range append(append([]string{}, st.intact...), st.damaged...) {
				if err := removeReplica(iv, node); err != nil {
					return rep, err
				}
			}
			continue
		}
		// Kept interval: reclaim excess replicas first. Damaged replicas
		// carry no restart value; intact ones beyond k are excess — but
		// when the primary is corrupt the intact replicas ARE the
		// snapshot, so always leave at least one.
		for _, node := range st.damaged {
			if err := removeReplica(iv, node); err != nil {
				return rep, err
			}
		}
		if k >= 0 {
			min := 0
			if !st.primaryOK {
				min = 1
			}
			for len(st.intact) > k && len(st.intact) > min {
				node := st.intact[len(st.intact)-1]
				st.intact = st.intact[:len(st.intact)-1]
				if err := removeReplica(iv, node); err != nil {
					return rep, err
				}
			}
		}
	}
	return rep, nil
}
