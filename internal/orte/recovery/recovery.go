// Package recovery is the policy half of in-job rank recovery and live
// migration: the coordinator the runtime hands a frozen job to when the
// HNP's failure detector declares a node dead (or an operator requests a
// planned move). It picks replacement nodes, restores every rank from
// the first copy the snapshot restore-source ladder finds — intact
// node-local stage, then replica on a surviving node, then the verified
// stable copy — respawns the lost ranks through the job's launch
// stack, and re-knits the job:
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
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/orte/filem"
	"repro/internal/orte/runtime"
	"repro/internal/trace"
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
	// sessions, for the frontier each attempt restored from (in-place
	// local restores contribute zero).
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

// note adds n to one of the coordinator's Stats and to its metric.
func note[T int | int64](co *Coordinator, field *T, metric string, n T) {
	co.mu.Lock()
	*field += n
	co.mu.Unlock()
	co.ins.Counter(metric).Add(int64(n))
}

// stageError marks a failure attributable to a replacement node, the
// retryable class: the next attempt excludes the node and picks another.
type stageError struct {
	node string
	err  error
}

func (e *stageError) Error() string { return fmt.Sprintf("replacement node %q: %v", e.node, e.err) }
func (e *stageError) Unwrap() error { return e.err }

// HandleFailure implements runtime.RecoveryHandler: the runtime has
// frozen the job (lost incarnations detached, fabric closed) and this
// goroutine owns the session until CompleteRecovery or AbortRecovery.
func (co *Coordinator) HandleFailure(j *runtime.Job, node string, lost []int, detectedAt time.Time) {
	note(co, &co.stats.Sessions, "ompi_recovery_sessions_total", 1)
	s := j.Recovery()
	if s == nil {
		// A second node death aborted the session before this goroutine
		// started: the runtime already tore it down and the parked ranks
		// are failing out. Record the fallback so the report explains
		// why the whole-job ladder ran.
		co.fallback(j, fmt.Errorf("recovery: session for node %q aborted before coordination began", node))
		return
	}
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
	note(co, &co.stats.RecoveredRanks, "ompi_recovery_recovered_ranks_total", len(lost))
}

// HandleMigration implements runtime.RecoveryHandler: a planned move of
// one rank to target. The caller (Cluster.MigrateRank) has already
// committed a checkpoint whose stages the job keeps, so survivors roll
// back in place from their own stages — one hash of each share on its
// node — while the migrating rank's state travels to the target node.
func (co *Coordinator) HandleMigration(j *runtime.Job, rank int, target string) error {
	s, err := j.BeginMigration(rank)
	if err != nil {
		return err
	}
	note(co, &co.stats.Sessions, "ompi_recovery_sessions_total", 1)

	sp := co.ins.Span("recovery.migrate", trace.WithSource("recovery"), trace.WithRank(rank))
	err = co.runAttempts(j, s, nil, map[int]string{rank: target})
	sp.End(err)
	if err != nil {
		co.fallback(j, err)
		return fmt.Errorf("recovery: migrate rank %d to %q: %w", rank, target, err)
	}
	note(co, &co.stats.Migrations, "ompi_recovery_migrations_total", 1)
	return nil
}

// fallback aborts the session so the parked ranks die and the job's
// supervisor (if any) runs a whole-job restart.
func (co *Coordinator) fallback(j *runtime.Job, cause error) {
	note(co, &co.stats.Fallbacks, "ompi_recovery_fallbacks_total", 1)
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
			note(co, &co.stats.Retries, "ompi_recovery_retries_total", 1)
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
func (co *Coordinator) runSession(j *runtime.Job, s *runtime.RecoverySession, attempt int, exclude map[string]bool, forced map[int]string) (err error) {
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

	// The frontier is the newest interval whose metadata checks out and
	// from which every rank restores: the staging below checks each
	// share where it reads it, and when some rank has no intact copy
	// left the walk moves on to the next older interval.
	resolver := c.Resolver(j.GlobalDir())
	var plans []runtime.RestorePlan
	// An abandoned attempt drops whatever it staged; a rank that
	// restored has dropped its own copy already.
	defer func() {
		if err != nil {
			runtime.ReleaseRestores(plans)
		}
	}()
	interval, _, _, err := resolver.LatestRestorable(func(meta snapshot.GlobalMeta, cp snapshot.Copy) error {
		var err error
		if plans, err = co.buildPlans(j, meta, j.Placement(), lostSet, forced, exclude); err != nil {
			return err
		}
		root := c.StageRoot(fmt.Sprintf("recover/job%d-iv%d-a%d", j.JobID(), meta.Interval, attempt))
		errs := c.StageRestores(resolver.ShareLadder(meta, cp), root, plans, s.Aborted())
		if errs != nil && s.AbortErr() != nil {
			return s.AbortErr()
		}
		return nodeFaults(plans, errs)
	})
	co.ins.Counter("ompi_recovery_resolve_ns_total").Add(time.Since(start).Nanoseconds())
	resolveSp.End(err)
	if err != nil {
		var se *stageError
		if !errors.As(err, &se) {
			err = fmt.Errorf("recovery: no recovery frontier: %w", err)
		}
		return err
	}
	for _, p := range plans {
		co.ins.Counter("ompi_recovery_source_" + p.Src.Kind.String() + "_total").Inc()
		note(co, &co.stats.RestoredBytes, "ompi_recovery_restored_bytes_total", p.Bytes)
	}

	rv := newRendezvous(np)

	// ---- respawn: rebuild the fabric, relaunch lost ranks --------------
	respawnSp := co.ins.Span("recovery.respawn", trace.WithSource("recovery"), trace.WithInterval(interval))
	start = time.Now()
	fab, ports, err := co.respawn(j, s, rv, plans, lostSet)
	co.ins.Counter("ompi_recovery_respawn_ns_total").Add(time.Since(start).Nanoseconds())
	respawnSp.End(err)
	defer func() {
		if err != nil && fab != nil {
			fab.Close()
		}
	}()
	if err != nil {
		return err
	}

	// ---- reknit: deliver orders, collect reports, verify, release ------
	reknitSp := co.ins.Span("recovery.reknit", trace.WithSource("recovery"), trace.WithInterval(interval))
	start = time.Now()
	err = co.reknit(j, s, rv, plans, lostSet, interval, fab, ports)
	co.ins.Counter("ompi_recovery_reknit_ns_total").Add(time.Since(start).Nanoseconds())
	reknitSp.End(err)
	return err
}

// buildPlans assigns every rank a node at the recovery frontier:
// survivors stay in place, lost ranks go to replacement nodes.
func (co *Coordinator) buildPlans(j *runtime.Job, meta snapshot.GlobalMeta, placement map[int]string, lostSet map[int]bool, forced map[int]string, exclude map[string]bool) ([]runtime.RestorePlan, error) {
	np := j.NumProcs()
	origin := make(map[int]string, len(meta.Procs))
	for _, pe := range meta.Procs {
		origin[pe.Vpid] = pe.Node
	}
	// Current per-node rank counts, so replacements spread across free slots.
	load := make(map[string]int)
	for r := 0; r < np; r++ {
		if !lostSet[r] {
			load[placement[r]]++
		}
	}

	plans := make([]runtime.RestorePlan, 0, np)
	for r := 0; r < np; r++ {
		if _, ok := origin[r]; !ok {
			return nil, fmt.Errorf("recovery: interval %d metadata has no entry for rank %d", meta.Interval, r)
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
		plans = append(plans, runtime.RestorePlan{Rank: r, Origin: origin[r], Node: node})
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

// nodeFaults classifies a staging attempt's per-rank failures (nil
// when every rank staged). A failure to reach or write the rank's node
// is the node's: it wraps a stageError, and the next attempt excludes
// the node. A damaged or unreadable source is not.
func nodeFaults(plans []runtime.RestorePlan, errs []error) error {
	for i, err := range errs {
		if err != nil && !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrNoCopy) && !errors.Is(err, filem.ErrSourceRead) {
			errs[i] = &stageError{node: plans[i].Node, err: err}
		}
	}
	return errors.Join(errs...)
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
func (co *Coordinator) respawn(j *runtime.Job, s *runtime.RecoverySession, rv *rendezvous, plans []runtime.RestorePlan, lostSet map[int]bool) (btl.JobFabric, map[int]btl.Port, error) {
	fab, err := j.RebuildFabric()
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: rebuild fabric: %w", err)
	}
	ports := make(map[int]btl.Port)
	for _, p := range plans {
		if lostSet[p.Rank] {
			continue
		}
		port, err := fab.Attach(p.Rank)
		if err != nil {
			return fab, nil, fmt.Errorf("recovery: attach survivor %d: %w", p.Rank, err)
		}
		ports[p.Rank] = port
	}
	for _, p := range plans {
		if !lostSet[p.Rank] {
			continue
		}
		if err := j.RespawnRank(p.Rank, p.Node, fab, p.Restore, co.gateFn(s, rv, p.Rank)); err != nil {
			return fab, nil, &stageError{node: p.Node, err: fmt.Errorf("respawn rank %d: %w", p.Rank, err)}
		}
		co.ins.Emit("recovery", "recovery.respawn",
			"job %d rank %d on %q from %s", j.JobID(), p.Rank, p.Node, p.Src.Label())
	}
	return fab, ports, nil
}

// reknit delivers recovery orders to the parked survivors, waits for
// all np ranks (survivors and respawns) to report their restored
// bookmark state, verifies the pairwise channel counts, completes the
// session, and releases everyone.
func (co *Coordinator) reknit(j *runtime.Job, s *runtime.RecoverySession, rv *rendezvous, plans []runtime.RestorePlan, lostSet map[int]bool, interval int, fab btl.JobFabric, ports map[int]btl.Port) error {
	np := j.NumProcs()
	for _, p := range plans {
		if lostSet[p.Rank] {
			continue
		}
		s.Deliver(p.Rank, &ompi.RecoverOrder{
			Interval: interval,
			Port:     ports[p.Rank],
			Restore:  p.Restore,
			Report:   co.gateFn(s, rv, p.Rank),
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
		label := "recovered:" + p.Src.Label()
		if s.Planned() && lostSet[p.Rank] {
			label = runtime.MigratedSource + p.Src.Label()
		}
		sources[p.Rank] = label
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
