// Job-side plumbing for in-job rank recovery and live migration. The
// runtime owns the mechanics — freezing the job when the HNP declares a
// node dead, parking survivors, respawning lost ranks on replacement
// nodes, swapping fabrics — while the policy (source selection, retry,
// quorum, re-knit verification) lives in the orte/recovery coordinator,
// attached via the RecoveryHandler interface. Keeping the interface here
// lets the coordinator depend on runtime without an import cycle.
package runtime

import (
	"fmt"
	"path"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/ompi/btl"
	"repro/internal/orte/ledger"
	"repro/internal/orte/names"
	"repro/internal/orte/snapc"
	"sync"
)

// RankState labels one rank slot's lifecycle for observability. It is
// derived, never stored: from the slot's current process phase, the
// active recovery session and the slot's source (rankStateLocked).
type RankState string

// Rank states surfaced through RankTable and the control plane.
const (
	RankRunning    RankState = "running"
	RankFailed     RankState = "failed"
	RankRecovering RankState = "recovering"
	RankMigrated   RankState = "migrated"
	RankDone       RankState = "done"
)

// RankInfo is the per-rank view ompi-ps renders: where the rank runs,
// what state it is in, the last checkpoint interval it participated in
// (-1 before the first), and where its current incarnation's state came
// from ("fresh", "restored:…" after a whole-job restart, "recovered:…"
// after in-job recovery, "migrated:…" after a planned move).
type RankInfo struct {
	Rank     int
	Node     string
	State    RankState
	Interval int
	Source   string
}

// RecoveryHandler is the policy half of in-job recovery. HandleFailure
// runs on its own goroutine after the runtime has frozen the job (lost
// incarnations detached, fabric closed, survivors parked); it must end the
// session via CompleteRecovery or AbortRecovery. HandleMigration runs a
// planned single-rank move and returns the session outcome.
type RecoveryHandler interface {
	HandleFailure(j *Job, node string, lost []int, detectedAt time.Time)
	HandleMigration(j *Job, rank int, target string) error
}

// SetRecoveryHandler attaches (or detaches, with nil) the recovery
// policy. Without a handler, node loss aborts the whole job — the
// pre-recovery behavior Supervise's whole-job restart path expects.
func (j *Job) SetRecoveryHandler(h RecoveryHandler) {
	j.mu.Lock()
	j.handler = h
	j.mu.Unlock()
}

// HasRecoveryHandler reports whether a recovery policy is attached.
func (j *Job) HasRecoveryHandler() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.handler != nil
}

// RecoverySession is one frozen-job recovery in flight: which ranks were
// lost, on which node, and the rendezvous channels parking the
// survivors. Created by the runtime at failure detection (or
// BeginMigration) and driven by the RecoveryHandler.
type RecoverySession struct {
	node     string // dead node; "" for a planned migration
	planned  bool
	detected time.Time
	lost     []int                     // ascending
	orders   []chan *ompi.RecoverOrder // one per rank, buffered 1

	abortOnce sync.Once
	abortErr  error
	aborted   chan struct{}
}

func newRecoverySession(np int, node string, planned bool, lost []int) *RecoverySession {
	s := &RecoverySession{node: node, planned: planned, detected: time.Now(), lost: lost,
		orders: make([]chan *ompi.RecoverOrder, np), aborted: make(chan struct{})}
	for r := range s.orders {
		s.orders[r] = make(chan *ompi.RecoverOrder, 1)
	}
	return s
}

// Node returns the dead node ("" for a planned migration).
func (s *RecoverySession) Node() string { return s.node }

// Planned reports whether this session is a migration, not a failure.
func (s *RecoverySession) Planned() bool { return s.planned }

// DetectedAt is when the runtime froze the job.
func (s *RecoverySession) DetectedAt() time.Time { return s.detected }

// Lost returns the lost ranks in ascending order.
func (s *RecoverySession) Lost() []int { return slices.Clone(s.lost) }

// Aborted is closed when the session has been aborted.
func (s *RecoverySession) Aborted() <-chan struct{} { return s.aborted }

// AbortErr returns the abort cause once Aborted is closed.
func (s *RecoverySession) AbortErr() error {
	select {
	case <-s.aborted:
		return s.abortErr
	default:
		return nil
	}
}

// Deliver hands a parked survivor its recovery order.
func (s *RecoverySession) Deliver(rank int, ord *ompi.RecoverOrder) {
	select {
	case s.orders[rank] <- ord:
	default: // slot already holds an order; the session is broken anyway
	}
}

func (s *RecoverySession) abort(err error) {
	s.abortOnce.Do(func() {
		s.abortErr = err
		close(s.aborted)
	})
}

// Recovery returns the active recovery session, nil outside one.
func (j *Job) Recovery() *RecoverySession {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recov
}

// Recovery-path deadlines. The transport symptom can precede the HNP's
// death declaration (the fabric closes at freeze, but a TCP-backed
// fabric may fail earlier), so a failed rank gives detection
// recoveryDetectWait to start a session; a parked survivor gives the
// coordinator recoveryOrderTimeout to deliver its order.
const (
	recoveryDetectWait   = 2 * time.Second
	recoveryOrderTimeout = 30 * time.Second
)

// awaitRecovery is the Config.Recover hook: incarnation me of rank r,
// whose step loop died of a communication failure, lands here. A lost
// incarnation (detached from its slot at the freeze) gets the typed
// RankFailedError and dies; survivors park until the coordinator
// delivers a RecoverOrder, the session aborts, or the order deadline
// passes. Without a handler the cause is returned immediately — the
// legacy whole-job abort.
func (j *Job) awaitRecovery(r int, me *ompi.Proc, cause error) (*ompi.RecoverOrder, error) {
	detect := time.NewTimer(recoveryDetectWait)
	defer detect.Stop()
	for {
		j.mu.Lock()
		s, h, frozen := j.recov, j.handler, j.frozen
		current := j.slots[r].proc == me
		j.mu.Unlock()
		switch {
		case !current && s != nil: // lost: die of the typed failure
			return nil, &ompi.RankFailedError{Ranks: s.Lost(), Node: s.node, Planned: s.planned, Cause: cause}
		case !current || h == nil:
			return nil, cause
		case s != nil: // a survivor: park for the order
			timeout := time.NewTimer(recoveryOrderTimeout)
			defer timeout.Stop()
			select {
			case ord := <-s.orders[r]:
				return ord, nil
			case <-s.aborted:
				return nil, fmt.Errorf("runtime: rank %d: recovery aborted: %w", r, s.abortErr)
			case <-timeout.C:
				return nil, fmt.Errorf("runtime: rank %d: no recovery order within %v: %w", r, recoveryOrderTimeout, cause)
			}
		}
		select {
		case <-frozen:
		case <-detect.C:
			return nil, cause
		}
	}
}

// onNodeDeath reacts to a node-down declaration for this job. Returns
// true when a recovery handler took ownership (a session was started, or
// an active one was aborted — either way the caller must not run the
// legacy whole-job abort).
func (j *Job) onNodeDeath(node string) bool {
	j.mu.Lock()
	h := j.handler
	if h == nil {
		j.mu.Unlock()
		return false
	}
	if j.recov != nil {
		// A second node died while a session is recovering the first
		// loss. The session's staging targets and survivor set are now
		// suspect: converge via the fallback ladder instead of trying
		// to patch a moving target.
		j.mu.Unlock()
		j.AbortRecovery(fmt.Errorf("runtime: node %q lost during recovery", node))
		return true
	}
	var lost []int
	for r, sl := range j.slots {
		if sl.node == node {
			lost = append(lost, r)
		}
	}
	if len(lost) == 0 {
		j.mu.Unlock()
		return false
	}
	s, fab := j.freezeLocked(node, false, lost)
	j.mu.Unlock()
	// Closing the fabric surfaces the failure to every survivor as a
	// communication error at its next operation — the detectable symptom
	// Config.Recover keys off.
	fab.Close()
	j.cluster.ins.Emit("runtime", "recovery.detect",
		"job %d lost node %q (ranks %v); starting in-job recovery", j.id, node, lost)
	j.cluster.ledgerAppend(ledger.TypeRecoveryBegin, int(j.id), ledger.RecoveryEvent{Node: node})
	go h.HandleFailure(j, node, lost, s.detected)
	return true
}

// BeginMigration freezes the job for a planned single-rank move: the
// same machinery as failure recovery, invoked without a failure. The
// migrating rank's slot is respawned by the session; survivors roll back
// to the just-captured frontier (a near no-op with intact local stages).
func (j *Job) BeginMigration(rank int) (*RecoverySession, error) {
	j.mu.Lock()
	if j.recov != nil {
		j.mu.Unlock()
		return nil, fmt.Errorf("runtime: job %d already has a recovery session", j.id)
	}
	if rank < 0 || rank >= j.spec.NP {
		j.mu.Unlock()
		return nil, fmt.Errorf("runtime: job %d has no rank %d", j.id, rank)
	}
	s, fab := j.freezeLocked("", true, []int{rank})
	j.mu.Unlock()
	fab.Close()
	j.cluster.ins.Emit("runtime", "migration.begin", "job %d rank %d", j.id, rank)
	return s, nil
}

// freezeLocked starts a recovery session (j.mu held): the lost ranks'
// incarnations are detached from their slots, so whatever they do from
// now on no longer speaks for the rank, and ranks waiting for a session
// to begin are woken. The caller closes the returned fabric.
func (j *Job) freezeLocked(node string, planned bool, lost []int) (*RecoverySession, btl.JobFabric) {
	s := newRecoverySession(j.spec.NP, node, planned, lost)
	j.recov = s
	for _, r := range lost {
		j.slots[r].proc = nil
	}
	close(j.frozen)
	j.frozen = make(chan struct{})
	return s, j.fabric
}

// RebuildFabric allocates a fresh job fabric from the same BTL component
// the job launched with. The coordinator attaches survivor ports itself
// and hands them out in recovery orders; respawned ranks attach in
// NewProc.
func (j *Job) RebuildFabric() (btl.JobFabric, error) {
	return j.btlComp.NewFabric(j.spec.NP)
}

// RespawnRank replaces a lost rank's slot: a fresh process on the
// replacement node, attached to the rebuilt fabric, restoring from the
// session's chosen source, reporting through gate before stepping. The
// new process becomes the slot's incarnation; the one it replaces no
// longer speaks for the rank.
func (j *Job) RespawnRank(rank int, node string, fab btl.JobFabric, restore *ompi.RestoreSpec, gate func([]byte, error) error) error {
	proc, err := j.newRankProc(rank, node, fab, gate)
	if err != nil {
		return err
	}
	app := j.spec.AppFactory(rank)
	j.mu.Lock()
	sl := &j.slots[rank]
	sl.proc, sl.app, sl.node = proc, app, node
	j.mu.Unlock()
	j.wg.Add(1)
	go j.runRank(rank, proc, app, restore)
	j.cluster.ledgerAppend(ledger.TypePlacement, int(j.id), ledger.Placement{Rank: rank, Node: node})
	return nil
}

// CompleteRecovery installs the rebuilt fabric and closes the session:
// rank sources updated, interval stamped. Called by the coordinator
// after every rank verified, immediately before it releases the parked
// reports.
func (j *Job) CompleteRecovery(fab btl.JobFabric, interval int, sources map[int]string) {
	j.mu.Lock()
	j.recov = nil
	j.fabric = fab
	// Fence off every checkpoint interval allocated before this point:
	// a directive from one of them (delivered late by a starved local
	// coordinator, or parked in a survivor's mailbox during the session)
	// would force the released ranks to a step frontier whose global
	// coordinator is gone, stalling peers into the directive-wait
	// timeout and killing the rebuilt job. Intervals are never reused
	// and none allocated so far can still pass the checkpointable
	// precheck, so the fence cannot swallow a legitimate order.
	j.fenceStaleDirectivesLocked()
	for r := range j.slots {
		if src, ok := sources[r]; ok {
			j.slots[r].source = src
		}
		j.slots[r].interval = interval
	}
	j.mu.Unlock()
	j.cluster.ins.Emit("runtime", "recovery.complete",
		"job %d rebuilt at interval %d", j.id, interval)
	j.cluster.ledgerAppend(ledger.TypeRecoveryComplete, int(j.id), ledger.RecoveryEvent{})
}

// AbortRecovery ends the active session with an error: parked survivors
// fail, the job dies, and whoever supervises it falls back to whole-job
// restart. Safe to call without an active session.
func (j *Job) AbortRecovery(err error) {
	j.mu.Lock()
	s := j.recov
	j.recov = nil
	j.mu.Unlock()
	if s == nil {
		return
	}
	s.abort(err)
	j.cluster.ins.Emit("runtime", "recovery.abort", "job %d: %v", j.id, err)
	j.cluster.ledgerAppend(ledger.TypeRecoveryAbort, int(j.id), ledger.RecoveryEvent{Reason: err.Error()})
}

// RankTable returns a snapshot of the per-rank view.
func (j *Job) RankTable() []RankInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RankInfo, len(j.slots))
	for r, sl := range j.slots {
		out[r] = RankInfo{Rank: r, Node: sl.node, State: j.rankStateLocked(r), Interval: sl.interval, Source: sl.source}
	}
	return out
}

// MigratedSource prefixes the source of a rank whose incarnation a
// planned move placed; the rank shows as migrated until a later
// recovery or restart gives it another source.
const MigratedSource = "migrated:"

// rankStateLocked derives rank r's RankState (j.mu held). A finished
// incarnation is done or failed by its exit error (a moved one stays
// migrated); during a session a failure's lost ranks are failed and
// every other live rank is recovering.
func (j *Job) rankStateLocked(r int) RankState {
	sl, s := &j.slots[r], j.recov
	lost := s != nil && slices.Contains(s.lost, r)
	var st ompi.Status // a detached slot reads as launching
	if sl.proc != nil {
		st = sl.proc.Status()
	}
	exited := st.Phase == ompi.PhaseExited
	switch {
	case exited && st.Err != nil, lost && !s.planned, sl.proc == nil && s == nil:
		return RankFailed
	case s != nil && !exited:
		return RankRecovering
	case strings.HasPrefix(sl.source, MigratedSource):
		return RankMigrated
	case exited:
		return RankDone
	}
	return RankRunning
}

// noteCheckpoint stamps a completed capture's interval on every rank. A
// global capture only succeeds when all ranks participate, so there is
// no per-rank condition — even a checkpoint-and-terminate capture (whose
// ranks may already have exited by the time the stamp lands) covered
// everyone.
func (j *Job) noteCheckpoint(interval int) {
	j.mu.Lock()
	for r := range j.slots {
		j.slots[r].interval = interval
	}
	j.mu.Unlock()
}

// Placement returns a copy of the rank -> node map.
func (j *Job) Placement() map[int]string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]string, len(j.slots))
	for r, sl := range j.slots {
		out[r] = sl.node
	}
	return out
}

// GlobalDir is the job's global snapshot directory on stable storage —
// the lineage the recovery coordinator resolves restore sources from.
func (j *Job) GlobalDir() string { return snapshot.GlobalDirName(int(j.id)) }

// MigrateRank moves one rank of a running job to another live node: a
// fresh KeepLocal checkpoint pins the frontier node-local (survivors
// roll back for free), then the job's recovery handler runs the same
// freeze/respawn/re-knit session a failure would, minus the failure.
func (c *Cluster) MigrateRank(id names.JobID, rank int, node string) error {
	if err := c.headlessErr(); err != nil {
		return err
	}
	j, err := c.Job(id)
	if err != nil {
		return err
	}
	if j.Done() {
		return fmt.Errorf("runtime: job %d already finished", id)
	}
	if rank < 0 || rank >= j.spec.NP {
		return fmt.Errorf("runtime: job %d has no rank %d", id, rank)
	}
	if !c.Alive(node) {
		return fmt.Errorf("runtime: migration target %q is not a live node", node)
	}
	j.mu.Lock()
	h := j.handler
	active := j.recov != nil
	cur := j.slots[rank].node
	j.mu.Unlock()
	if h == nil {
		return fmt.Errorf("runtime: job %d has no recovery handler (enable an in-job recovery policy)", id)
	}
	if active {
		return fmt.Errorf("runtime: job %d has a recovery session in progress", id)
	}
	if cur == node {
		return nil // already there
	}
	if _, err := c.CheckpointJob(id, snapc.Options{KeepLocal: true}); err != nil {
		return fmt.Errorf("runtime: migrate rank %d: pre-move checkpoint: %w", rank, err)
	}
	return h.HandleMigration(j, rank, node)
}

// PruneLocalStages removes a job's node-local checkpoint stages older
// than keepFrom on every live node. Supervising with KeepLocal retention
// accumulates one sealed stage per interval; only the newest committed
// one is a useful in-job recovery source.
//
// Sub-stable intervals are exempt no matter their age: for an L1/L2
// hold (or an interval parked through a store outage) the sealed stage
// IS the checkpoint until a stable commit absorbs it, so a held or
// otherwise undrained interval is never pruned — the level-aware
// retention rule of DESIGN.md §5g.
func (c *Cluster) PruneLocalStages(id names.JobID, keepFrom int) {
	base, gd := snapshot.LocalStageRoot(int(id)), snapshot.GlobalDirName(int(id))
	pinned := c.Drainer().Held(gd)
	if und, err := c.Drainer().Journal(gd).Undrained(); err == nil {
		for _, e := range und {
			pinned[e.Interval] = e.Level
		}
	}
	for _, node := range c.AliveNodes() {
		fs, err := c.nodeFS(node)
		if err != nil {
			continue
		}
		entries, err := fs.ReadDir(base)
		if err != nil {
			continue
		}
		for _, e := range entries {
			iv, err := strconv.Atoi(e.Name)
			if err != nil || iv >= keepFrom {
				continue
			}
			if _, held := pinned[iv]; held {
				continue
			}
			_ = fs.Remove(path.Join(base, e.Name))
		}
	}
}
