package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/errdef"
	"repro/internal/trace"
	"repro/internal/vfs"
)

const (
	// stepDelay is the stencil's sleep-modelled compute per step.
	stepDelay = 2 * time.Millisecond
	// numRounds is how many fresh jobs a run measures in turn; each
	// gets an equal slice of every phase.
	numRounds = 10
	// A run boots the cluster at least minSetups and at most maxSetups
	// times to time set-up (the rounds' boots included), stopping once
	// setupBudget is spent.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
	// oracleSamples is how many seeded cells per rank the oracle checks
	// besides each rank's boundary cells.
	oracleSamples = 4
	// retryDeadline bounds every retried operation: a refused checkpoint
	// or a recovery that does not resume stepping within it is a failure.
	retryDeadline = 5 * time.Second
	retryPause    = 2 * time.Millisecond
)

// workload is one job shape and the share of a run each phase gets.
type workload struct {
	name  string
	np    int
	nodes int
	slots int
	cells int
	// storeMiBps caps stable-store write bandwidth; 0 leaves the
	// in-memory store unthrottled.
	storeMiBps int64
	// Shares of the measured seconds: the ping-pong probe, the
	// back-to-back checkpoint loop, and kill/recover/restart cycles.
	probe, ckpt, resil float64
}

// session is one pass over a workload: the jobs it ran, the samples
// they produced and the store they checkpointed to.
type session struct {
	w    workload
	rng  *rand.Rand
	ins  *trace.Instrumentation // nil: untraced
	base *vfs.Mem               // the store's backing memory, for housekeeping
	st   *storeProbe
	t    *tracker
	sys  *core.System
	job  *core.Job
	// abandoned marks a job that was killed rather than terminated:
	// shutdown must not ask it for another checkpoint.
	abandoned bool

	attempted, failed int
	refusals, stalls  int
	rearmStalls       int
	oracleErr         error
	oracleChecks      int
	probeErr          error

	setup        []time.Duration
	rounds       []metrics // each round's end-to-end metrics, bar set-up
	rtt8, rtt64k []time.Duration

	// The checkpoint loop.
	ckpt, blocked, unattributed []time.Duration
	phases                      []snapshot.PhaseBreakdown
	ckptAttempts                int
	ckptSteps                   int64
	ckptWall                    time.Duration
	ckptAlloc                   uint64
	ckptModelled                time.Duration
	ckptStore                   [numClasses]storeCounts
	ckptCounters                map[string]int64 // program counters, traced sessions only

	// Kill/recover/restart cycles.
	mttr, rearm          []time.Duration
	restart, restartCall []time.Duration
	restartReadBytes     int64
	restartRestored      int64
	recovery             map[string]int64 // program counters, traced sessions only
}

func newSession(w workload, seed int64, ins *trace.Instrumentation) *session {
	return &session{
		w: w, rng: rand.New(rand.NewSource(seed)), ins: ins, t: newTracker(w.np, stepDelay),
		ckptCounters: map[string]int64{}, recovery: map[string]int64{},
	}
}

// run boots the cluster repeatedly to time set-up, then measures
// rounds fresh jobs, each for its share of d: the probe, the checkpoint
// loop, kill/recover/restart cycles, and a final terminate-checkpoint
// restarted on a fresh cluster for the oracle.
func (s *session) run(d time.Duration) error {
	start := time.Now()
	for i := 0; i < maxSetups-numRounds && (i < minSetups-numRounds || time.Since(start) < setupBudget); i++ {
		if err := s.boot(); err != nil {
			return err
		}
		s.shutdown()
	}
	slice := func(f float64) time.Duration { return time.Duration(f * float64(d) / numRounds) }
	for r := 0; r < numRounds; r++ {
		from := s.mark()
		if err := s.boot(); err != nil {
			return err
		}
		// Each phase starts from a collected heap, so the previous
		// phase's garbage does not decide when its first collections run.
		runtime.GC()
		if err := s.probePhase(slice(s.w.probe)); err != nil {
			return err
		}
		runtime.GC()
		s.ckptPhase(slice(s.w.ckpt))
		runtime.GC()
		if err := s.resilPhase(slice(s.w.resil)); err != nil {
			return err
		}
		if err := s.restartFresh(); err != nil {
			return err
		}
		s.shutdown()
		s.rounds = append(s.rounds, s.roundMetrics(from))
	}
	return nil
}

// mark is how far every sample series had grown at one instant.
type mark struct {
	rtt8, rtt64k, ckpt, mttr, restart int
	ckptSteps                         int64
	ckptWall                          time.Duration
}

func (s *session) mark() mark {
	return mark{len(s.rtt8), len(s.rtt64k), len(s.ckpt), len(s.mttr), len(s.restart), s.ckptSteps, s.ckptWall}
}

// newStore builds a fresh stable store: memory, optionally throttled,
// under the counting probe.
func (s *session) newStore() {
	s.base = vfs.NewMem()
	var fs vfs.FS = s.base
	if s.w.storeMiBps > 0 {
		fs = vfs.NewThrottle(s.base, s.w.storeMiBps<<20)
	}
	s.st = &storeProbe{FS: fs}
}

func (s *session) span(name string) *trace.SpanHandle {
	return s.ins.Span(name, trace.WithSource("crbench"))
}

// newSystem boots a cluster over the current store.
func (s *session) newSystem() error {
	sp := s.span("NewSystem")
	sys, err := core.NewSystem(core.Options{Nodes: s.w.nodes, SlotsPerNode: s.w.slots, Stable: s.st, Ins: s.ins})
	sp.End(err)
	if err != nil {
		return err
	}
	s.sys = sys
	return nil
}

// boot starts a cluster and the job on a fresh store and takes the first
// committed checkpoint: one set-up sample.
func (s *session) boot() error {
	start := time.Now()
	s.newStore()
	if err := s.newSystem(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	args := []string{"-steps", "0", "-cells", strconv.Itoa(s.w.cells), "-delay", stepDelay.String()}
	s.t.iter.Store(0)
	sp := s.span("Launch")
	job, err := s.sys.Launch(core.JobSpec{Name: "stencil", Args: args, NP: s.w.np, AppFactory: s.t.factory(s.w.cells)})
	sp.End(err)
	if err != nil {
		s.sys.Close()
		return fmt.Errorf("set-up: %w", err)
	}
	s.job, s.abandoned = job, false
	job.EnableRecovery()
	if _, err := s.committed(false); err != nil {
		s.shutdown()
		return fmt.Errorf("set-up: %w", err)
	}
	s.setup = append(s.setup, time.Since(start))
	return nil
}

// committed takes one committed checkpoint: a single operation that
// retries refusals (a rank that is not yet, or not again,
// checkpointable) until retryDeadline. Refusals are counted on their
// own; a refusal that outlasts the deadline is a stall, and the
// operation fails.
func (s *session) committed(terminate bool) (core.CheckpointResult, error) {
	s.attempted++
	deadline := time.Now().Add(retryDeadline)
	for {
		res, _, _, err := s.request(terminate)
		if err == nil {
			return res, nil
		}
		refused := errors.Is(err, errdef.ErrNotCheckpointable)
		if !refused || time.Now().After(deadline) {
			s.failed++
			if refused {
				s.stalls++
				s.logf("checkpoint refused for %v: %v", retryDeadline, err)
			}
			return res, err
		}
		time.Sleep(retryPause)
	}
}

// request asks for one checkpoint and waits for it to commit, returning
// how long the request blocked and the whole latency. The caller counts
// the attempt.
func (s *session) request(terminate bool) (core.CheckpointResult, time.Duration, time.Duration, error) {
	start := time.Now()
	sp := s.span("CheckpointAsync")
	p, err := s.job.CheckpointAsync(terminate)
	sp.End(err)
	blocked := time.Since(start)
	if err != nil {
		if errors.Is(err, errdef.ErrNotCheckpointable) {
			s.refusals++
		} else {
			s.logf("checkpoint request failed after %v: %v", blocked, err)
		}
		return core.CheckpointResult{}, blocked, 0, err
	}
	sp = s.span("Wait")
	res, err := p.Wait()
	sp.End(err)
	total := time.Since(start)
	if err != nil {
		s.logf("checkpoint failed after %v: %v", total, err)
		return res, blocked, total, err
	}
	s.prune(res.Interval)
	return res, blocked, total, nil
}

// prune deletes intervals older than the one before newest, the way an
// operator's retention policy would, so a long run keeps a bounded
// store. It works on the backing memory, so the probe and the throttle
// see only the program's own traffic.
func (s *session) prune(newest int) {
	dir := s.job.Lineage()
	entries, err := s.base.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		iv, err := strconv.Atoi(e.Name)
		if err == nil && e.IsDir && iv < newest-1 {
			_ = s.base.Remove(path.Join(dir, snapshot.IntervalDirName(iv))) // already gone is fine
		}
	}
}

// shutdown terminates the job with a checkpoint when it can, otherwise
// abandons it, and closes the cluster.
func (s *session) shutdown() {
	if s.job != nil && !s.abandoned && !s.job.Done() {
		if _, err := s.committed(true); err != nil {
			s.abandon()
		} else {
			_ = s.job.Wait() // a terminate-checkpoint ends the job cleanly
		}
	}
	s.sys.Close()
	s.job = nil
}

// abandon kills a job that cannot be checkpointed or terminated
// cleanly and waits for it to end: recovery is detached, so losing its
// nodes aborts it.
func (s *session) abandon() {
	s.abandoned = true
	s.job.SetRecoveryHandler(nil)
	for _, n := range s.job.Nodes() {
		_ = s.sys.Cluster().KillNode(n) // the job's nodes are known to this cluster
	}
	ended := make(chan struct{})
	go func() {
		_ = s.job.Wait() // the abort is the point; its error is already counted
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(retryDeadline):
		s.logf("abandoned job did not end within %v; leaving it", retryDeadline)
	}
}

// restartFresh tears the cluster down and restarts the job from the
// same stable store on a fresh cluster, checking the restored state
// against the oracle.
func (s *session) restartFresh() error {
	lineage := s.job.Lineage()
	s.shutdown()
	if err := s.newSystem(); err != nil {
		return err
	}
	s.attempted++
	ref, err := s.sys.OpenGlobalSnapshot(lineage)
	if err != nil {
		s.failed++
		return err
	}
	before := s.st.counts()
	restored := s.ins.Counter("ompi_restart_restored_bytes_total")
	restoredBefore := restored.Value()
	resumed := s.t.expectResume(true)
	start := time.Now()
	sp := s.span("RestartLatest")
	job, err := s.sys.RestartLatest(ref, s.t.factory(s.w.cells))
	sp.End(err)
	call := time.Since(start)
	if err != nil {
		s.failed++
		return err
	}
	s.job, s.abandoned = job, false
	job.EnableRecovery()
	select {
	case <-resumed:
	case <-time.After(retryDeadline):
		s.failed++
		s.stalls++
		return fmt.Errorf("restart: ranks did not resume within %v", retryDeadline)
	}
	s.restart = append(s.restart, time.Since(start))
	s.restartCall = append(s.restartCall, call)
	for _, c := range sub(s.st.counts(), before) {
		s.restartReadBytes += c.ReadBytes
	}
	s.restartRestored += restored.Value() - restoredBefore
	s.oracleChecks++
	if err := checkStencil(s.t.restoredStates(), s.w.np, s.w.cells, oracleSamples, s.rng); err != nil && s.oracleErr == nil {
		s.oracleErr = err
	}
	return nil
}

// probePhase runs the ping-pong probe inside the job for d: batches of
// 1024 eager 8 B round trips and of 256 rendezvous 64 KiB round trips,
// alternating, with seeded payload bytes. A batch spans milliseconds,
// several collector cycles for 64 KiB, so its mean includes the
// collector's share instead of hitting or missing a cycle.
func (s *session) probePhase(d time.Duration) error {
	sizes := []probeSize{{payload: make([]byte, 8), batch: 1024}, {payload: make([]byte, 64<<10), batch: 256}}
	for _, sz := range sizes {
		s.rng.Read(sz.payload)
	}
	pr := newProbeRun(sizes, time.Now().Add(d))
	s.attempted++
	s.t.arm(pr)
	select {
	case <-pr.done:
		s.t.probeAt.Store(-1)
	case <-time.After(d + retryDeadline):
		s.failed++
		return fmt.Errorf("probe did not finish")
	}
	s.rtt8 = append(s.rtt8, pr.sizes[0].rtt...)
	s.rtt64k = append(s.rtt64k, pr.sizes[1].rtt...)
	if pr.err != nil {
		s.failed++
		s.probeErr = pr.err
	}
	return nil
}

// ckptPhase takes back-to-back checkpoints for d: each request waits
// for the previous one to commit.
func (s *session) ckptPhase(d time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	store0 := s.st.counts()
	clock := s.sys.Cluster().Clock()
	sim0 := clock.Elapsed()
	counters0 := s.counters(ckptCounterNames)
	attempts0 := s.attempted
	steps0 := s.t.steps.Load()
	start := time.Now()
	for end := start.Add(d); time.Now().Before(end); {
		s.attempted++
		res, blocked, total, err := s.request(false)
		if err != nil {
			s.failed++
			time.Sleep(retryPause)
			continue
		}
		s.ckpt = append(s.ckpt, total)
		s.blocked = append(s.blocked, blocked)
		if ph := res.Meta.Phases; ph != nil {
			s.phases = append(s.phases, *ph)
			phased := time.Duration(ph.QuiesceWallNS + ph.CaptureWallNS + ph.GatherNS + ph.CommitNS)
			s.unattributed = append(s.unattributed, total-phased)
		}
	}
	s.ckptWall += time.Since(start)
	s.ckptSteps += s.t.steps.Load() - steps0
	runtime.ReadMemStats(&m1)
	s.ckptAlloc += m1.TotalAlloc - m0.TotalAlloc
	s.ckptModelled += clock.Elapsed() - sim0
	s.ckptAttempts += s.attempted - attempts0
	for c, d := range sub(s.st.counts(), store0) {
		s.ckptStore[c] = add(s.ckptStore[c], d)
	}
	for k, v := range s.counters(ckptCounterNames) {
		s.ckptCounters[k] += v - counters0[k]
	}
}

var ckptCounterNames = []string{
	"ompi_filem_retries_total",
	"ompi_snapc_intervals_aborted_total",
}

// resilPhase runs kill/recover cycles for d. Each cycle takes a
// committed checkpoint, waits a seeded offset, kills the node of a
// seeded victim rank and times the in-job recovery until every rank has
// stepped again. It then watches the recovered job re-arm (every rank
// checkpointable again), abandons it, and restarts the job from the
// store on a fresh cluster, which the oracle checks. A recovered job is
// never asked for another checkpoint: README.md says why.
func (s *session) resilPhase(d time.Duration) error {
	rec0 := s.counters(recoveryCounterNames)
	defer func() {
		for k, v := range s.counters(recoveryCounterNames) {
			s.recovery[k] += v - rec0[k]
		}
	}()
	for end := time.Now().Add(d); time.Now().Before(end); {
		if _, err := s.committed(false); err != nil {
			// A job that cannot take a checkpoint cannot be killed
			// safely either: abandon it and start over from the store.
			s.abandon()
			if err := s.restartFresh(); err != nil {
				return err
			}
			continue
		}
		time.Sleep(time.Duration(1+s.rng.Intn(8)) * time.Millisecond)
		victim := s.rng.Intn(s.w.np)
		node := s.job.NodeOf(victim)
		s.attempted++
		resumed := s.t.expectResume(false)
		start := time.Now()
		sp := s.span("KillNode")
		err := s.sys.Cluster().KillNode(node)
		sp.End(err)
		if err != nil {
			s.failed++
			return err
		}
		select {
		case <-resumed:
			s.mttr = append(s.mttr, time.Since(start))
			s.watchRearm()
		case <-time.After(retryDeadline):
			s.failed++
			s.stalls++
			s.logf("recovery from losing %s did not resume stepping within %v", node, retryDeadline)
		}
		s.abandon()
		if err := s.restartFresh(); err != nil {
			return err
		}
	}
	return nil
}

// watchRearm times how long a recovered job takes until every rank
// reports itself checkpointable again, polling the runtime's view. It
// asks the job for nothing; a job that has not re-armed within
// retryDeadline counts as a re-arm stall.
func (s *session) watchRearm() {
	start := time.Now()
	for deadline := start.Add(retryDeadline); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		armed := true
		for r := 0; r < s.w.np && armed; r++ {
			armed = s.job.Checkpointable(r)
		}
		if armed {
			s.rearm = append(s.rearm, time.Since(start))
			return
		}
	}
	s.rearmStalls++
	s.logf("recovered job not checkpointable again within %v", retryDeadline)
}

var recoveryCounterNames = []string{
	"ompi_recovery_sessions_total",
	"ompi_recovery_detect_ns_total",
	"ompi_recovery_resolve_ns_total",
	"ompi_recovery_respawn_ns_total",
	"ompi_recovery_reknit_ns_total",
	"ompi_recovery_restored_bytes_total",
	"ompi_recovery_fallbacks_total",
}

// logf reports a failed operation on standard error.
func (s *session) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crbench: %s: "+format+"\n", append([]any{s.w.name}, args...)...)
}

// counters reads program counters from the session's instrumentation,
// which every cluster of a traced session shares; all zero when the
// session is untraced.
func (s *session) counters(names []string) map[string]int64 {
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = s.ins.Counter(n).Value()
	}
	return out
}
