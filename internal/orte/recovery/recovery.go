// Package recovery is the policy half of in-job rank recovery and live
// migration: the coordinator the runtime hands a frozen job to when the
// HNP's failure detector declares a node dead (or an operator requests a
// planned move). It picks replacement nodes, restores only the lost
// ranks from the best available source — intact node-local stage, then
// replica on a surviving node, then the primary on stable storage —
// respawns them through the job's launch stack, and re-knits the job:
// every rank rolls back to the same committed interval, reports its
// restored CRCP channel bookmarks, and resumes only after the pairwise
// sent/received counts verify. Recovery is itself crash-safe: failures
// attributable to the chosen replacement node retry with an alternate,
// and anything unrecoverable (quorum loss, a second node death
// mid-session, verification failure) aborts the session so the
// supervisor falls back to the paper's whole-job restart.
package recovery

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/orte/filem"
	"repro/internal/orte/runtime"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Stats summarizes a coordinator's lifetime activity; Supervise folds it
// into its report.
type Stats struct {
	// Sessions counts recovery sessions started (failures + migrations).
	Sessions int
	// RecoveredRanks counts lost ranks successfully respawned in-job.
	RecoveredRanks int
	// Retries counts session attempts abandoned for an alternate
	// replacement node.
	Retries int
	// Fallbacks counts sessions that aborted into whole-job restart.
	Fallbacks int
	// Migrations counts completed planned single-rank moves.
	Migrations int
	// RestoredBytes is the payload staged over FILEM across all
	// sessions (in-place local restores contribute zero).
	RestoredBytes int64
}

// Coordinator drives in-job recovery sessions for jobs on one cluster.
// Attach it with Job.SetRecoveryHandler; it is safe for concurrent use
// across jobs (sessions for distinct jobs are independent).
type Coordinator struct {
	cluster *runtime.Cluster
	ins     *trace.Instrumentation

	mu    sync.Mutex
	stats Stats
}

// New builds a coordinator for the cluster.
func New(c *runtime.Cluster) *Coordinator {
	return &Coordinator{cluster: c, ins: c.Ins()}
}

// Stats returns a snapshot of the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.stats
}

// stageError marks a failure attributable to a replacement node, the
// retryable class: the next attempt excludes the node and picks another.
type stageError struct {
	node string
	err  error
}

func (e *stageError) Error() string { return fmt.Sprintf("replacement node %q: %v", e.node, e.err) }
func (e *stageError) Unwrap() error { return e.err }

// rankPlan is one rank's recovery assignment: where it runs, what it
// restores from, and how the restore is labeled in the per-rank view.
type rankPlan struct {
	rank    int
	node    string
	restore *ompi.RestoreSpec
	source  string // "local", "replica:<node>", "stable"
	inPlace bool   // restore directly from the sealed local stage
	bytes   int64  // payload staged over FILEM (0 for in-place)
}

// HandleFailure implements runtime.RecoveryHandler: the runtime has
// frozen the job (survivors parked, lost epochs bumped, fabric closed)
// and this goroutine owns the session until CompleteRecovery or
// AbortRecovery.
func (co *Coordinator) HandleFailure(j *runtime.Job, node string, lost []int, detectedAt time.Time) {
	s := j.Recovery()
	if s == nil {
		// A second node death aborted the session before this goroutine
		// started: the runtime already tore it down and the parked ranks
		// are failing out. Record the session and the fallback so the
		// report explains why the whole-job ladder ran.
		co.mu.Lock()
		co.stats.Sessions++
		co.mu.Unlock()
		co.ins.Counter("ompi_recovery_sessions_total").Inc()
		co.fallback(j, fmt.Errorf("recovery: session for node %q aborted before coordination began", node))
		return
	}
	co.mu.Lock()
	co.stats.Sessions++
	co.mu.Unlock()
	co.ins.Counter("ompi_recovery_sessions_total").Inc()
	co.ins.Counter("ompi_recovery_detect_ns_total").Add(time.Since(detectedAt).Nanoseconds())

	// Fault point: the HNP dies just as recovery coordination begins.
	// The frozen session is left stranded — survivors parked, no orders
	// coming — until Reattach aborts it into the whole-job fallback.
	if ierr := co.cluster.Faults().Fire("hnp.crash:recovery"); ierr != nil {
		co.ins.Emit("recovery", "hnp.crash", "injected mid-recovery: %v", ierr)
		_ = co.cluster.CrashHNP(fmt.Errorf("recovery session for node %q: %w", node, ierr))
		return
	}

	sp := co.ins.Span("recovery.session", trace.WithSource("recovery"))
	err := co.runAttempts(j, s, map[string]bool{node: true}, nil)
	sp.End(err)
	if err != nil {
		co.fallback(j, err)
		return
	}
	co.mu.Lock()
	co.stats.RecoveredRanks += len(lost)
	co.mu.Unlock()
	co.ins.Counter("ompi_recovery_recovered_ranks_total").Add(int64(len(lost)))
}

// HandleMigration implements runtime.RecoveryHandler: a planned move of
// one rank to target. The caller (Cluster.MigrateRank) has already
// captured a KeepLocal checkpoint, so survivors roll back in place from
// their sealed local stages — a near no-op — while the migrating rank's
// state travels to the target node.
func (co *Coordinator) HandleMigration(j *runtime.Job, rank int, target string) error {
	s, err := j.BeginMigration(rank)
	if err != nil {
		return err
	}
	co.mu.Lock()
	co.stats.Sessions++
	co.mu.Unlock()
	co.ins.Counter("ompi_recovery_sessions_total").Inc()

	sp := co.ins.Span("recovery.migrate", trace.WithSource("recovery"), trace.WithRank(rank))
	err = co.runAttempts(j, s, nil, map[int]string{rank: target})
	sp.End(err)
	if err != nil {
		co.fallback(j, err)
		return fmt.Errorf("recovery: migrate rank %d to %q: %w", rank, target, err)
	}
	co.mu.Lock()
	co.stats.Migrations++
	co.mu.Unlock()
	co.ins.Counter("ompi_recovery_migrations_total").Inc()
	return nil
}

// fallback aborts the session so the parked ranks die and the job's
// supervisor (if any) runs a whole-job restart.
func (co *Coordinator) fallback(j *runtime.Job, cause error) {
	co.mu.Lock()
	co.stats.Fallbacks++
	co.mu.Unlock()
	co.ins.Counter("ompi_recovery_fallbacks_total").Inc()
	j.AbortRecovery(fmt.Errorf("recovery: falling back to whole-job restart: %w", cause))
}

// runAttempts drives the retry ladder: a failure attributable to the
// chosen replacement node (staging to it, respawning on it) excludes the
// node and tries again; anything else — quorum loss, no valid interval,
// verification failure, external abort — is final.
func (co *Coordinator) runAttempts(j *runtime.Job, s *runtime.RecoverySession, exclude map[string]bool, forced map[int]string) error {
	if exclude == nil {
		exclude = make(map[string]bool)
	}
	attempts := j.Params().Int("recovery_max_attempts", 2)
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			co.mu.Lock()
			co.stats.Retries++
			co.mu.Unlock()
			co.ins.Counter("ompi_recovery_retries_total").Inc()
			co.ins.Emit("recovery", "recovery.retry",
				"job %d attempt %d/%d (excluding %d nodes)", j.JobID(), attempt+1, attempts, len(exclude))
		}
		err = co.runSession(j, s, attempt, exclude, forced)
		if err == nil {
			return nil
		}
		var se *stageError
		if !errors.As(err, &se) {
			return err
		}
		if forced != nil {
			return err // a forced migration target has no alternate
		}
		exclude[se.node] = true
	}
	return err
}

// runSession executes one recovery attempt end to end: settle the
// drain queue, resolve the recovery frontier, stage per-rank restore
// sources, respawn lost ranks on a rebuilt fabric, deliver recovery
// orders, and verify the re-knit before releasing anyone.
func (co *Coordinator) runSession(j *runtime.Job, s *runtime.RecoverySession, attempt int, exclude map[string]bool, forced map[int]string) error {
	c := co.cluster
	np := j.NumProcs()
	lost := s.Lost()
	lostSet := make(map[int]bool, len(lost))
	for _, r := range lost {
		lostSet[r] = true
	}

	// ---- resolve: find the frontier and plan every rank's source -------
	resolveSp := co.ins.Span("recovery.resolve", trace.WithSource("recovery"))
	start := time.Now()

	// Quorum rule: recovering in-job only makes sense while a clear
	// majority of ranks survive; below that, whole-job restart from
	// stable storage is the honest answer.
	quorumPct := j.Params().Int("recovery_quorum_pct", 50)
	if !s.Planned() && (np-len(lost))*100 <= quorumPct*np {
		err := fmt.Errorf("recovery: only %d/%d ranks survive (quorum %d%%)", np-len(lost), np, quorumPct)
		resolveSp.End(err)
		return err
	}

	// Settle the journal first: an interval caught mid-drain by the
	// failure either finishes committing from intact local stages or is
	// discarded — the resolver must only ever see a consistent lineage.
	c.FlushDrains()
	if _, err := c.RecoverDrains(j.GlobalDir()); err != nil {
		co.ins.Emit("recovery", "recovery.drain-recover-error", "job %d: %v", j.JobID(), err)
	}

	ref := snapshot.GlobalRef{FS: c.Stable(), Dir: j.GlobalDir()}
	resolver := &snapshot.Resolver{Ref: ref, Nodes: c.AliveNodes(), NodeFS: c.NodeFS, Ins: co.ins}
	interval, meta, cp, err := resolver.LatestValid()
	if err != nil {
		resolveSp.End(err)
		return fmt.Errorf("recovery: no recovery frontier: %w", err)
	}

	placement := j.Placement()
	plans, err := co.buildPlans(j, meta, interval, cp, placement, lostSet, forced, exclude)
	if err == nil {
		err = co.stagePlans(j, s, attempt, interval, plans)
	}
	co.ins.Counter("ompi_recovery_resolve_ns_total").Add(time.Since(start).Nanoseconds())
	resolveSp.End(err)
	if err != nil {
		return err
	}

	rv := newRendezvous(np)

	// ---- respawn: rebuild the fabric, relaunch lost ranks --------------
	respawnSp := co.ins.Span("recovery.respawn", trace.WithSource("recovery"), trace.WithInterval(interval))
	start = time.Now()
	fab, ports, err := co.respawn(j, s, rv, plans, lostSet)
	co.ins.Counter("ompi_recovery_respawn_ns_total").Add(time.Since(start).Nanoseconds())
	respawnSp.End(err)
	if err != nil {
		if fab != nil {
			fab.Close()
		}
		return err
	}

	// ---- reknit: deliver orders, collect reports, verify, release ------
	reknitSp := co.ins.Span("recovery.reknit", trace.WithSource("recovery"), trace.WithInterval(interval))
	start = time.Now()
	err = co.reknit(j, s, rv, plans, lostSet, interval, fab, ports)
	co.ins.Counter("ompi_recovery_reknit_ns_total").Add(time.Since(start).Nanoseconds())
	reknitSp.End(err)
	if err != nil {
		fab.Close()
		return err
	}
	return nil
}

// buildPlans assigns every rank a node and a restore source at the
// recovery frontier, walking the ladder: sealed local stage in place,
// else a replica on a surviving node, else the primary on stable
// storage (or, when the primary itself failed verification, the intact
// copy the resolver found).
func (co *Coordinator) buildPlans(j *runtime.Job, meta snapshot.GlobalMeta, interval int, cp snapshot.Copy, placement map[int]string, lostSet map[int]bool, forced map[int]string, exclude map[string]bool) ([]rankPlan, error) {
	np := j.NumProcs()
	procs := make(map[int]snapshot.ProcEntry, len(meta.Procs))
	for _, pe := range meta.Procs {
		procs[pe.Vpid] = pe
	}
	// Current per-node rank counts, so replacements spread across free slots.
	load := make(map[string]int)
	for r := 0; r < np; r++ {
		if !lostSet[r] {
			load[placement[r]]++
		}
	}

	plans := make([]rankPlan, 0, np)
	for r := 0; r < np; r++ {
		pe, ok := procs[r]
		if !ok {
			return nil, fmt.Errorf("recovery: interval %d metadata has no entry for rank %d", interval, r)
		}
		node := placement[r]
		if lostSet[r] {
			if forced != nil && forced[r] != "" {
				node = forced[r]
			} else {
				var err error
				node, err = co.pickReplacement(load, exclude)
				if err != nil {
					return nil, err
				}
			}
			load[node]++
		}
		plan, err := co.planSource(j, meta, interval, cp, pe, r, node)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

// pickReplacement chooses the alive, non-excluded node with the most
// free slots (least loaded when everything is full).
func (co *Coordinator) pickReplacement(load map[string]int, exclude map[string]bool) (string, error) {
	alive := make(map[string]bool)
	for _, n := range co.cluster.AliveNodes() {
		alive[n] = true
	}
	best, bestFree := "", -1<<30
	for _, sp := range co.cluster.NodeSpecs() {
		if !alive[sp.Name] || exclude[sp.Name] {
			continue
		}
		free := sp.Slots - load[sp.Name]
		if free > bestFree {
			best, bestFree = sp.Name, free
		}
	}
	if best == "" {
		return "", fmt.Errorf("recovery: no live replacement node available")
	}
	return best, nil
}

// planSource walks the source ladder for one rank. The returned plan's
// RestoreSpec points at the source location; stagePlans rewrites it to
// the staged copy for the two FILEM rungs.
func (co *Coordinator) planSource(j *runtime.Job, meta snapshot.GlobalMeta, interval int, cp snapshot.Copy, pe snapshot.ProcEntry, rank int, node string) (rankPlan, error) {
	c := co.cluster
	// Rung 1: the rank lands on the node that captured its state at this
	// interval, and the sealed local stage is still there — restore in
	// place, zero bytes moved. (True for every survivor of a KeepLocal
	// frontier; never for a lost rank, whose capture node is dead.)
	if node == pe.Node && c.Alive(node) {
		if fs, err := c.NodeFS(node); err == nil {
			base := snapshot.LocalStageBase(meta.JobID, interval)
			if vfs.Exists(fs, path.Join(base, snapshot.LocalCommittedFile)) {
				dir := path.Join(base, snapshot.LocalDirName(rank))
				if lm, err := snapshot.ReadLocal(snapshot.LocalRef{FS: fs, Dir: dir}); err == nil &&
					lm.Interval == interval && lm.JobID == meta.JobID && lm.Vpid == rank {
					return rankPlan{rank: rank, node: node, inPlace: true, source: "local",
						restore: &ompi.RestoreSpec{FS: fs, Dir: dir, Files: lm.Files}}, nil
				}
			}
		}
	}
	// Rung 2: a surviving node holds an intact replica of the interval;
	// the rank's local snapshot is staged node-to-node from it.
	replRoot := snapshot.ReplicaDir(j.GlobalDir(), interval)
	for _, holder := range c.AliveNodes() {
		fs, err := c.NodeFS(holder)
		if err != nil {
			continue
		}
		dir := path.Join(replRoot, pe.LocalDir)
		lm, err := snapshot.ReadLocal(snapshot.LocalRef{FS: fs, Dir: dir})
		if err != nil || lm.Interval != interval || lm.JobID != meta.JobID || lm.Vpid != rank {
			continue
		}
		return rankPlan{rank: rank, node: node, source: "replica:" + holder,
			restore: &ompi.RestoreSpec{Dir: dir, Files: lm.Files}}, nil
	}
	// Rung 3: the primary on stable storage — or, when the primary is the
	// copy that failed verification, the intact copy the resolver found.
	var lref snapshot.LocalRef
	if cp.Primary() {
		lref = snapshot.LocalRefIn(snapshot.GlobalRef{FS: c.Stable(), Dir: j.GlobalDir()}, interval, pe)
	} else {
		lref = snapshot.LocalRef{FS: cp.FS, Dir: path.Join(cp.Dir, pe.LocalDir)}
	}
	lm, err := snapshot.ReadLocal(lref)
	if err != nil {
		return rankPlan{}, fmt.Errorf("recovery: rank %d has no restorable copy at interval %d: %w", rank, interval, err)
	}
	return rankPlan{rank: rank, node: node, source: "stable",
		restore: &ompi.RestoreSpec{Dir: lref.Dir, Files: lm.Files}}, nil
}

// stagePlans executes the FILEM transfers the plans require: replica
// and stable sources are staged onto the target node's scratch space,
// and each plan's RestoreSpec is rewritten to point at the staged copy.
// In-place plans move nothing.
func (co *Coordinator) stagePlans(j *runtime.Job, s *runtime.RecoverySession, attempt, interval int, plans []rankPlan) error {
	c := co.cluster
	fcomp, fenv := c.Filem()
	for i := range plans {
		p := &plans[i]
		if p.inPlace {
			co.ins.Counter("ompi_recovery_source_local_total").Inc()
			continue
		}
		select {
		case <-s.Aborted():
			return s.AbortErr()
		default:
		}
		srcNode := filem.StableNode
		srcCounter := "ompi_recovery_source_stable_total"
		if holder, ok := replicaHolder(p.source); ok {
			srcNode = holder
			srcCounter = "ompi_recovery_source_replica_total"
		}
		dst := fmt.Sprintf("tmp/recover/job%d/iv%d-a%d/%s",
			j.JobID(), interval, attempt, snapshot.LocalDirName(p.rank))
		st, err := fcomp.Move(fenv, []filem.Request{{
			SrcNode: srcNode, SrcPath: p.restore.Dir,
			DstNode: p.node, DstPath: dst,
		}})
		if err != nil {
			return &stageError{node: p.node, err: fmt.Errorf("stage rank %d from %s: %w", p.rank, p.source, err)}
		}
		fs, err := c.NodeFS(p.node)
		if err != nil {
			return &stageError{node: p.node, err: err}
		}
		p.restore.FS = fs
		p.restore.Dir = dst
		p.bytes = st.Bytes
		co.ins.Counter("ompi_recovery_restored_bytes_total").Add(st.Bytes)
		co.ins.Counter(srcCounter).Inc()
		co.mu.Lock()
		co.stats.RestoredBytes += st.Bytes
		co.mu.Unlock()
	}
	return nil
}

// replicaHolder extracts the holder node from a "replica:<node>" source.
func replicaHolder(source string) (string, bool) {
	const pfx = "replica:"
	if len(source) > len(pfx) && source[:len(pfx)] == pfx {
		return source[len(pfx):], true
	}
	return "", false
}

// report is one rank's arrival at the re-knit rendezvous.
type report struct {
	rank      int
	bookmarks []byte
	err       error
}

// rendezvous carries one attempt's re-knit channels: ranks deliver
// their restored bookmark state on ready and park on their release
// channel for the session verdict.
type rendezvous struct {
	ready    chan report
	releases []chan error
}

func newRendezvous(np int) *rendezvous {
	rv := &rendezvous{ready: make(chan report, np), releases: make([]chan error, np)}
	for r := range rv.releases {
		rv.releases[r] = make(chan error, 1)
	}
	return rv
}

// gateFn builds the rendezvous closure a rank reports through: deliver
// the restored bookmarks, park until the coordinator's verdict.
func (co *Coordinator) gateFn(s *runtime.RecoverySession, rv *rendezvous, rank int) func([]byte, error) error {
	return func(bm []byte, rerr error) error {
		select {
		case rv.ready <- report{rank: rank, bookmarks: bm, err: rerr}:
		case <-s.Aborted():
			return s.AbortErr()
		}
		select {
		case err := <-rv.releases[rank]:
			return err
		case <-s.Aborted():
			return s.AbortErr()
		}
	}
}

// respawn rebuilds the job fabric, pre-attaches the surviving ranks
// (their ports travel in the recovery orders), and relaunches each lost
// rank on its replacement node, gated on the session rendezvous.
func (co *Coordinator) respawn(j *runtime.Job, s *runtime.RecoverySession, rv *rendezvous, plans []rankPlan, lostSet map[int]bool) (btl.JobFabric, map[int]btl.Port, error) {
	fab, err := j.RebuildFabric()
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: rebuild fabric: %w", err)
	}
	ports := make(map[int]btl.Port)
	for _, p := range plans {
		if lostSet[p.rank] {
			continue
		}
		port, err := fab.Attach(p.rank)
		if err != nil {
			return fab, nil, fmt.Errorf("recovery: attach survivor %d: %w", p.rank, err)
		}
		ports[p.rank] = port
	}
	for _, p := range plans {
		if !lostSet[p.rank] {
			continue
		}
		if err := j.RespawnRank(p.rank, p.node, fab, p.restore, co.gateFn(s, rv, p.rank)); err != nil {
			return fab, nil, &stageError{node: p.node, err: fmt.Errorf("respawn rank %d: %w", p.rank, err)}
		}
		co.ins.Emit("recovery", "recovery.respawn",
			"job %d rank %d on %q from %s", j.JobID(), p.rank, p.node, p.source)
	}
	return fab, ports, nil
}

// reknit delivers recovery orders to the parked survivors, waits for
// all np ranks (survivors and respawns) to report their restored
// bookmark state, verifies the pairwise channel counts, completes the
// session, and releases everyone.
func (co *Coordinator) reknit(j *runtime.Job, s *runtime.RecoverySession, rv *rendezvous, plans []rankPlan, lostSet map[int]bool, interval int, fab btl.JobFabric, ports map[int]btl.Port) error {
	np := j.NumProcs()
	failed := &ompi.RankFailedError{Ranks: s.Lost(), Node: s.Node(), Planned: s.Planned()}
	for _, p := range plans {
		if lostSet[p.rank] {
			continue
		}
		s.Deliver(p.rank, &ompi.RecoverOrder{
			Interval: interval,
			Port:     ports[p.rank],
			Restore:  p.restore,
			Failed:   failed,
			Report:   co.gateFn(s, rv, p.rank),
		})
	}

	timeout := j.Params().Duration("recovery_ready_timeout", 15*time.Second)
	deadline := time.After(timeout)
	reports := make(map[int]report, np)
	for len(reports) < np {
		select {
		case rep := <-rv.ready:
			reports[rep.rank] = rep
		case <-s.Aborted():
			return s.AbortErr()
		case <-deadline:
			err := fmt.Errorf("recovery: only %d/%d ranks reported within %v", len(reports), np, timeout)
			co.releaseAll(rv, err)
			return err
		}
	}

	if err := co.verify(reports); err != nil {
		co.releaseAll(rv, err)
		return err
	}

	sources := make(map[int]string, np)
	for _, p := range plans {
		label := "recovered:" + p.source
		if s.Planned() && lostSet[p.rank] {
			label = "migrated:" + p.source
		}
		sources[p.rank] = label
	}
	// Complete before releasing: when the first released rank resumes
	// stepping, the job's fabric, placement and rank states must already
	// describe the rebuilt world.
	j.CompleteRecovery(fab, interval, sources)
	co.releaseAll(rv, nil)
	return nil
}

// releaseAll delivers the session verdict to every parked rank.
func (co *Coordinator) releaseAll(rv *rendezvous, err error) {
	for _, ch := range rv.releases {
		select {
		case ch <- err:
		default:
		}
	}
}

// verify checks that every rank restored cleanly and that the restored
// CRCP bookmark state is pairwise consistent: what rank i's protocol
// believes it sent to j must equal what j believes it received from i.
// Protocols that keep no channel state (crcp=none) report nil bookmarks
// and are exempt — the frontier is fully quiesced by construction.
func (co *Coordinator) verify(reports map[int]report) error {
	for r, rep := range reports {
		if rep.err != nil {
			return fmt.Errorf("recovery: rank %d restore failed: %w", r, rep.err)
		}
	}
	sent := make(map[int]map[int]uint64, len(reports))
	recvd := make(map[int]map[int]uint64, len(reports))
	for r, rep := range reports {
		s, rcv, err := crcp.DecodeBookmarks(rep.bookmarks)
		if len(rep.bookmarks) == 0 || err != nil {
			continue
		}
		sent[r], recvd[r] = s, rcv
	}
	for i, si := range sent {
		for jr, n := range si {
			rj, ok := recvd[jr]
			if !ok {
				continue
			}
			if rj[i] != n {
				return fmt.Errorf("recovery: bookmark mismatch: rank %d sent %d to rank %d, which received %d",
					i, n, jr, rj[i])
			}
		}
	}
	return nil
}
