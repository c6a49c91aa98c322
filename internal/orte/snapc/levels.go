// The sealed-interval set (DESIGN.md §5e, §5g): every interval the
// drain engine keeps sealed node-local under LOCAL_COMMITTED markers but
// not yet stable, in one per-lineage, interval-ascending set.
//
// An interval is in the set for one of two reasons. A cadence seal
// (Seal) holds it at L1 (the sealed stages only) or L2 (plus a stage
// replica of each origin's share on a peer node) and nothing touches
// stable storage; the cadence tuner promotes it with PromoteReplicas and
// PromoteStable. An outage seal parks an interval whose drain came due
// while the stable store was out; the catch-up pass re-drains the
// outage seals oldest-first once the store returns. The level says
// where the copies live, the reason says why the interval waits.
//
// Everything else is shared: one stage-replica push (only when the
// interval has none yet), one journal mark, one stage-replica sweep,
// and one retention rule, releaseBelow: a stable commit of interval N
// supersedes every sealed interval of the lineage older than N, whatever
// its reason, and never a newer one, so the best restart point at each
// level only moves forward.
//
// On disk a sealed interval is a crash-interrupted drain (CAPTURED entry
// + LOCAL_COMMITTED markers + optional stage replicas), so Recover
// doubles as the multilevel restart path, re-draining the newest one
// into a stable commit; the fast path is runtime.RestartFromHold, which
// relaunches straight from the stages and replicas through the snapshot
// restore-source ladder without any stable-store ingress.
package snapc

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/orte/filem"
	"repro/internal/vfs"
)

// sealReason records why a sealed interval is short of stable storage.
type sealReason int

const (
	// sealCadence: held at L1/L2 by the checkpoint cadence (Seal).
	sealCadence sealReason = iota
	// sealOutage: parked because the stable store was out when its drain
	// came due; the catch-up pass re-drains it.
	sealOutage
)

// sealedInterval is one captured interval sealed node-local and not yet
// stable: journaled CAPTURED, LOCAL_COMMITTED stages on its nodes.
type sealedInterval struct {
	cpt *Captured
	// level is where the copies live: LevelLocal (origin stages only) or
	// LevelReplica (plus a stage replica per origin on a peer node).
	level int
	// replicas maps an origin node to the holder of its stage replica.
	replicas map[string]string
	reason   sealReason
	// marked reports the journal entry carries the reason's mark (the
	// level, or the Parked flag). A store outage usually defeats the
	// write; the catch-up pass retries it until it lands.
	marked bool
}

// Seal journals a captured interval (CAPTURED, with its level) and
// holds it at a sub-stable checkpoint level instead of queueing it for
// drain: LevelLocal keeps only the sealed node-local stages, and
// LevelReplica additionally pushes each origin's stage to a peer node.
// A held interval is released by the next stable commit that supersedes
// it, promoted by PromoteReplicas/PromoteStable, or rebuilt by the
// recovery pass after a crash.
func (d *Drainer) Seal(cpt *Captured, level int) error {
	if level < snapshot.LevelLocal || level >= snapshot.LevelStable {
		return fmt.Errorf("snapc: interval %d: cannot seal at level %d (want L1 or L2)", cpt.Interval, level)
	}
	entry := journalEntry(cpt)
	entry.Level = level
	if err := d.record(cpt.GlobalDir, entry); err != nil {
		return err
	}
	d.mu.Lock()
	crashed, closed := d.crashed, d.closed
	d.mu.Unlock()
	switch {
	case crashed:
		return fmt.Errorf("%w; interval %d not held", ErrHNPDown, cpt.Interval)
	case closed:
		return fmt.Errorf("snapc: drainer closed; interval %d not held", cpt.Interval)
	}
	d.seal(&sealedInterval{cpt: cpt, level: level, marked: true}, sealCadence)
	ins := d.env.Ins
	ins.Counter(fmt.Sprintf("ompi_ckpt_level%d_captured_total", level)).Inc()
	// The application-blocked share of a held interval is capture only —
	// no drain backpressure ever applies.
	ins.ObserveSeconds("ompi_snapc_blocked_seconds", time.Duration(cpt.BlockedNS))
	return nil
}

// seal adds an interval to the sealed set for reason. Stage replicas
// (snapc_stage_replicas > 0) are pushed only when the interval has none
// yet and the reason calls for them: an L2 hold, or any outage park, so
// a parked interval survives a single node loss while the store is out.
func (d *Drainer) seal(si *sealedInterval, reason sealReason) {
	cpt := si.cpt
	if len(si.replicas) == 0 && d.stageReplicas > 0 && (reason == sealOutage || si.level >= snapshot.LevelReplica) {
		si.replicas = d.pushStageReplicas(cpt)
	}
	d.mu.Lock()
	si.level = max(si.level, snapshot.LevelLocal)
	if len(si.replicas) > 0 {
		si.level = max(si.level, snapshot.LevelReplica)
	}
	si.reason = reason
	d.mu.Unlock()
	if reason == sealOutage {
		d.mark(si)
	}
	d.mu.Lock()
	_, parked := d.insertSealedLocked(si)
	d.mu.Unlock()
	ins := d.env.Ins
	switch reason {
	case sealCadence:
		ins.Emit("snapc.drain", "drain.held",
			"interval %d sealed at L%d (held node-local, not drained)", cpt.Interval, si.level)
	case sealOutage:
		ins.Counter("ompi_snapc_intervals_parked_total").Inc()
		ins.Emit("snapc.drain", "drain.parked",
			"interval %d parked node-local (store outage), %d parked total", cpt.Interval, parked)
		d.ensureCatchup()
	}
}

// insertSealedLocked adds si to its lineage's list in interval order
// and republishes the gauges (with d.mu held), returning the counts.
func (d *Drainer) insertSealedLocked(si *sealedInterval) (held, parked int) {
	ss := d.sealed[si.cpt.GlobalDir]
	i := sort.Search(len(ss), func(k int) bool { return ss[k].cpt.Interval > si.cpt.Interval })
	d.sealed[si.cpt.GlobalDir] = slices.Insert(ss, i, si)
	return d.publishSealedLocked()
}

// removeSealedLocked takes si out of the sealed set, if it is still
// there, and republishes the gauges (with d.mu held).
func (d *Drainer) removeSealedLocked(si *sealedInterval) {
	dir := si.cpt.GlobalDir
	if i := slices.Index(d.sealed[dir], si); i >= 0 {
		d.sealed[dir] = slices.Delete(d.sealed[dir], i, i+1)
		d.publishSealedLocked()
	}
}

// sealedCountsLocked counts the sealed intervals of every lineage by
// reason (with d.mu held).
func (d *Drainer) sealedCountsLocked() (held, parked int) {
	for _, ss := range d.sealed {
		for _, si := range ss {
			if si.reason == sealOutage {
				parked++
			} else {
				held++
			}
		}
	}
	return held, parked
}

// publishSealedLocked publishes the held and parked gauges from the
// sealed set (with d.mu held) and returns the counts.
func (d *Drainer) publishSealedLocked() (held, parked int) {
	held, parked = d.sealedCountsLocked()
	d.env.Ins.Gauge("ompi_snapc_drain_held").Set(float64(held))
	d.env.Ins.Gauge("ompi_snapc_drain_parked").Set(float64(parked))
	return held, parked
}

// newestCadenceLocked returns the lineage's newest cadence seal that
// keep accepts (with d.mu held), or nil.
func (d *Drainer) newestCadenceLocked(globalDir string, keep func(*sealedInterval) bool) *sealedInterval {
	ss := d.sealed[globalDir]
	for i := len(ss) - 1; i >= 0; i-- {
		if ss[i].reason == sealCadence && keep(ss[i]) {
			return ss[i]
		}
	}
	return nil
}

// mark writes the sealed interval's reason into its journal record: the
// Parked flag for an outage seal — so the stats table never renders a
// parked interval as a cadence-held L1 one (they share the CAPTURED
// state and the stage markers) — or the level for a cadence seal. The
// record may still sit in the outage backlog: amend that copy so the
// eventual Record carries the mark; otherwise amend the journal.
// si.marked reports whether the mark landed.
func (d *Drainer) mark(si *sealedInterval) {
	dir, iv := si.cpt.GlobalDir, si.cpt.Interval
	d.mu.Lock()
	outage, level := si.reason == sealOutage, si.level
	for i := range d.backlog[dir] {
		if e := &d.backlog[dir][i]; e.Interval == iv {
			if outage {
				e.Parked = true
			} else {
				e.Level = level
			}
			si.marked = true
			d.mu.Unlock()
			return
		}
	}
	d.mu.Unlock()
	var err error
	if outage {
		_, err = d.Journal(dir).SetParked(iv, true)
	} else {
		_, err = d.Journal(dir).SetLevel(iv, level)
	}
	if err != nil && !faultsim.IsOutage(err) {
		d.env.Ins.Emit("snapc.drain", "drain.journal-error", "marking interval %d: %v", iv, err)
	}
	d.mu.Lock()
	si.marked = err == nil
	d.mu.Unlock()
}

// pushStageReplicas copies each origin node's share of a sealed
// interval to one other node (node→node FILEM, no stable storage
// involved). Returns origin → holder for the copies that landed.
func (d *Drainer) pushStageReplicas(cpt *Captured) map[string]string {
	env := d.env
	if env.Nodes == nil {
		return nil
	}
	candidates := env.Nodes()
	if len(candidates) < 2 {
		return nil
	}
	origins := make([]string, 0, len(cpt.ByNode))
	for node := range cpt.ByNode {
		origins = append(origins, node)
	}
	sort.Strings(origins)
	jobID := int(cpt.Job.JobID())
	src := snapshot.LocalStageBase(jobID, cpt.Interval)
	holders := make(map[string]string)
	for idx, node := range origins {
		holder := ""
		for off := 1; off <= len(candidates); off++ {
			if c := candidates[(idx+off)%len(candidates)]; c != node {
				holder = c
				break
			}
		}
		if holder == "" {
			continue
		}
		dst := snapshot.StageReplicaBase(jobID, cpt.Interval, node)
		req := filem.Request{SrcNode: node, SrcPath: src, DstNode: holder, DstPath: dst}
		if _, err := env.Filem.Move(env.FilemEnv, []filem.Request{req}); err != nil {
			env.Ins.Emit("snapc.drain", "drain.stage-replica-failed",
				"interval %d stage %s -> %s: %v", cpt.Interval, node, holder, err)
			continue
		}
		holders[node] = holder
		env.Ins.Counter("ompi_snapc_stage_replicas_total").Inc()
	}
	if len(holders) > 0 {
		env.Ins.Emit("snapc.drain", "drain.stage-replicated",
			"interval %d: %d sealed stages replicated node-to-node", cpt.Interval, len(holders))
	}
	return holders
}

// sweepStageReplicas removes an interval's stage replicas from their
// holders; replicas maps each origin node to the node holding its copy
// (an origin mapped to itself holds no replica and is skipped).
func sweepStageReplicas(env *Env, jobID, interval int, replicas map[string]string) {
	for origin, holder := range replicas {
		if holder == origin {
			continue
		}
		base := snapshot.StageReplicaBase(jobID, interval, origin)
		if fsys, err := env.NodeFS(holder); err == nil && vfs.Exists(fsys, base) {
			_ = env.Filem.Remove(env.FilemEnv, holder, []string{base})
		}
	}
}

// PromoteReplicas lifts the lineage's newest L1 hold to L2: each origin
// node's sealed stage is copied to a peer, so the interval survives a
// single node loss without stable storage. Returns the promoted
// interval, or false when nothing is promotable (no L1 hold, or no
// replica landed).
func (d *Drainer) PromoteReplicas(globalDir string) (int, bool) {
	d.mu.Lock()
	target := d.newestCadenceLocked(globalDir, func(si *sealedInterval) bool { return si.level < snapshot.LevelReplica })
	d.mu.Unlock()
	if target == nil {
		return 0, false
	}
	holders := d.pushStageReplicas(target.cpt)
	if len(holders) == 0 {
		return 0, false
	}
	d.mu.Lock()
	target.level = snapshot.LevelReplica
	target.replicas = holders
	d.mu.Unlock()
	d.mark(target)
	d.env.Ins.Counter("ompi_ckpt_level2_promoted_total").Inc()
	d.env.Ins.Emit("snapc.drain", "drain.promoted",
		"interval %d promoted L1 -> L2 (%d stage replicas)", target.cpt.Interval, len(holders))
	return target.cpt.Interval, true
}

// PromoteStable hands the lineage's newest hold to the drain queue for
// a stable (L3) commit, on the same ticket contract as Enqueue. The
// older holds are NOT queued — the commit supersedes them and
// releaseBelow discards them, preserving the per-lineage rule that
// commits land in capture order (only the newest hold ever drains). The
// interval keeps its stage replicas through the queue: a successful
// drain sweeps them, an outage parks it without pushing them again.
// Returns (nil, false, nil) when the lineage holds nothing.
func (d *Drainer) PromoteStable(globalDir string) (*Pending, bool, error) {
	d.mu.Lock()
	target := d.newestCadenceLocked(globalDir, func(*sealedInterval) bool { return true })
	if target == nil {
		d.mu.Unlock()
		return nil, false, nil
	}
	d.removeSealedLocked(target)
	d.mu.Unlock()
	p, err := d.enqueue(target)
	if err != nil {
		// Admission failed (closed or crashed): put the hold back — the
		// interval is still journaled and sealed node-local.
		d.mu.Lock()
		d.insertSealedLocked(target)
		d.mu.Unlock()
		return nil, true, err
	}
	return p, true, nil
}

// releaseBelow is the one retention rule of the sealed set: a stable
// commit of interval below supersedes every sealed interval of the
// lineage older than it — cadence hold or outage park alike — because a
// higher level now has a strictly newer verified copy. Each is
// discarded: its journal entry (or its still-buffered CAPTURED record)
// and its stages and stage replicas. The newest seal, and anything
// captured after the commit, stays.
func (d *Drainer) releaseBelow(globalDir string, below int) {
	d.mu.Lock()
	ss := d.sealed[globalDir]
	n := sort.Search(len(ss), func(k int) bool { return ss[k].cpt.Interval >= below })
	drop := slices.Clone(ss[:n])
	d.sealed[globalDir] = ss[n:]
	d.publishSealedLocked()
	d.mu.Unlock()
	if n == 0 {
		return
	}
	ref := snapshot.GlobalRef{FS: d.env.Stable, Dir: globalDir}
	j := d.Journal(globalDir)
	cause := fmt.Sprintf("superseded by stable commit of interval %d", below)
	for _, si := range drop {
		iv := si.cpt.Interval
		// The CAPTURED record may still sit in the outage backlog — drop
		// it there so the flush never resurrects a superseded interval.
		d.mu.Lock()
		bl := d.backlog[globalDir]
		if i := slices.IndexFunc(bl, func(e snapshot.JournalEntry) bool { return e.Interval == iv }); i >= 0 {
			d.setBacklogLocked(globalDir, slices.Delete(bl, i, i+1))
		}
		d.mu.Unlock()
		if e, ok, err := j.Entry(iv); err == nil && ok && !e.State.Terminal() {
			discardEntry(d.env, ref, j, e, nil, cause)
		} else {
			// Never journaled durably (backlogged through an outage):
			// sweep the stages from the rebuilt entry alone.
			sweepEntry(d.env, ref, journalEntry(si.cpt), nil)
		}
		d.env.Ins.Counter("ompi_ckpt_superseded_total").Inc()
		d.env.Ins.Emit("snapc.drain", "drain.superseded", "sealed interval %d %s", iv, cause)
	}
}

// DropHeld abandons the in-memory sealed intervals of one lineage —
// cadence holds and outage parks alike — without touching the journal
// or the stages, returning how many were dropped. The recovery pass
// calls this before Recover so recovery owns the CAPTURED entries — it
// re-drains or discards them from the on-disk state alone, exactly as
// after a crash.
func (d *Drainer) DropHeld(globalDir string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.sealed[globalDir])
	if n > 0 {
		delete(d.sealed, globalDir)
		d.publishSealedLocked()
	}
	return n
}

// Held reports the lineage's sealed intervals and their levels — the
// cadence holds and the outage parks, every interval whose sealed stage
// is still its only checkpoint.
func (d *Drainer) Held(globalDir string) map[int]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]int, len(d.sealed[globalDir]))
	for _, si := range d.sealed[globalDir] {
		out[si.cpt.Interval] = si.level
	}
	return out
}
