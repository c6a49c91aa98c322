package recovery_test

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/orte/recovery"
	"repro/internal/orte/runtime"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
)

// slowApp wraps an application with a per-step delay so tests can
// checkpoint and kill nodes while the job is reliably mid-flight.
type slowApp struct {
	inner ompi.App
	delay time.Duration
}

func (a *slowApp) Setup(p *ompi.Proc) error { return a.inner.Setup(p) }
func (a *slowApp) Step(p *ompi.Proc) (bool, error) {
	time.Sleep(a.delay)
	return a.inner.Step(p)
}

// slowStencil builds a stencil factory with a per-step delay.
func slowStencil(t *testing.T, steps int, delay time.Duration) func(rank int) ompi.App {
	t.Helper()
	inner, err := apps.Lookup("stencil", []string{"-steps", itoa(steps), "-cells", "8"})
	if err != nil {
		t.Fatalf("stencil factory: %v", err)
	}
	return func(rank int) ompi.App { return &slowApp{inner: inner(rank), delay: delay} }
}

func itoa(n int) string { return strconv.Itoa(n) }

// newSystem boots a test cluster.
func newSystem(t *testing.T, nodes, slots int, params *mca.Params, faults *faultsim.Injector) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Nodes: nodes, SlotsPerNode: slots,
		Params: params, Ins: trace.New(), Faults: faults,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// oracleState runs the same application fault-free and returns each
// rank's final stencil state, the reference recovered runs must match.
func oracleState(t *testing.T, np, steps int) []apps.StencilApp {
	t.Helper()
	sys := newSystem(t, np+1, 2, nil, nil)
	factory := slowStencil(t, steps, 0)
	j, err := sys.Launch(core.JobSpec{Name: "oracle", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("oracle launch: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	out := make([]apps.StencilApp, np)
	for r := 0; r < np; r++ {
		out[r] = *j.App(r).(*slowApp).inner.(*apps.StencilApp)
	}
	return out
}

// requireStencilEqual compares a finished job's per-rank stencil state
// to the oracle's.
func requireStencilEqual(t *testing.T, j *core.Job, want []apps.StencilApp) {
	t.Helper()
	for r := range want {
		got := j.App(r).(*slowApp).inner.(*apps.StencilApp)
		if got.State.Iter != want[r].State.Iter {
			t.Fatalf("rank %d: iter %d, oracle %d", r, got.State.Iter, want[r].State.Iter)
		}
		for i, v := range want[r].State.Cell {
			if got.State.Cell[i] != v {
				t.Fatalf("rank %d cell %d: %g, oracle %g", r, i, got.State.Cell[i], v)
			}
		}
	}
}

func TestInJobRecoveryAfterNodeLoss(t *testing.T) {
	const np, steps = 4, 1200
	want := oracleState(t, np, steps)

	sys := newSystem(t, np+1, 1, nil, nil)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	survivorApps := make(map[int]ompi.App)
	for r := 0; r < np; r++ {
		survivorApps[r] = j.App(r)
	}

	// Pin a recovery frontier (the job keeps its stages, since it has a
	// recovery handler), then lose the node hosting rank 2 while the
	// job is mid-flight.
	if _, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	victim := j.NodeOf(2)
	if err := sys.Cluster().KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not survive node loss: %v", err)
	}

	st := co.Stats()
	if st.Sessions != 1 || st.RecoveredRanks != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 session, 1 recovered rank, 0 fallbacks", st)
	}
	if st.RestoredBytes <= 0 {
		t.Fatalf("recovery restored %d bytes; lost rank must stage its image", st.RestoredBytes)
	}

	// Survivors kept their process slots: the same application instances
	// finished the run (nobody was restarted whole).
	for r := 0; r < np; r++ {
		if r == 2 {
			if j.App(r) == survivorApps[r] {
				t.Fatalf("rank 2 was lost but kept its old app instance")
			}
			continue
		}
		if j.App(r) != survivorApps[r] {
			t.Fatalf("survivor rank %d was restarted (app instance replaced)", r)
		}
	}

	// The per-rank view records the rebuild: survivors rolled back in
	// place from their sealed local stages, the lost rank restored from
	// stable storage onto a replacement node.
	for _, ri := range j.RankTable() {
		switch ri.Rank {
		case 2:
			if ri.Node == victim {
				t.Fatalf("rank 2 still placed on dead node %q", victim)
			}
			if !strings.HasPrefix(ri.Source, "recovered:") || ri.Source == "recovered:local" {
				t.Fatalf("rank 2 source = %q, want a staged recovered source", ri.Source)
			}
		default:
			if ri.Source != "recovered:local" {
				t.Fatalf("survivor rank %d source = %q, want recovered:local", ri.Rank, ri.Source)
			}
		}
		if ri.State != runtime.RankDone {
			t.Fatalf("rank %d state = %q after completion", ri.Rank, ri.State)
		}
	}

	// Recovered run converges to the fault-free oracle's exact state.
	requireStencilEqual(t, j, want)

	// In-place survivor restores must not have been counted as staged
	// sources.
	ins := sys.Ins()
	if n := ins.Counter("ompi_recovery_source_local_total").Value(); n != int64(np-1) {
		t.Fatalf("local-source restores = %d, want %d", n, np-1)
	}
}

// observedHandler is the recovery coordinator with the rank table
// captured at the start of each failure session (the job is frozen
// then) and a signal once the session has ended.
type observedHandler struct {
	*recovery.Coordinator
	frozen chan []runtime.RankInfo
	ended  chan struct{}
}

func newObservedHandler(co *recovery.Coordinator) *observedHandler {
	return &observedHandler{Coordinator: co, frozen: make(chan []runtime.RankInfo, 1), ended: make(chan struct{}, 1)}
}

func (h *observedHandler) HandleFailure(j *runtime.Job, node string, lost []int, at time.Time) {
	h.frozen <- j.RankTable()
	h.Coordinator.HandleFailure(j, node, lost, at)
	h.ended <- struct{}{}
}

// await receives from ch or fails the test after a bound.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// awaitCheckpointable waits on the ranks' lifecycle transitions, not on
// a clock, until the runtime reports every rank of j checkpointable.
func awaitCheckpointable(t *testing.T, j *core.Job) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for r := 0; r < j.NumProcs(); r++ {
		for !j.Checkpointable(r) {
			p := j.Proc(r)
			if p == nil {
				t.Fatalf("rank %d has no incarnation", r)
			}
			st, next := p.Watch()
			switch st.Phase {
			case ompi.PhaseStepping:
				continue
			case ompi.PhaseExited:
				t.Fatalf("rank %d exited (%v) instead of re-arming", r, st.Err)
			}
			select {
			case <-next:
			case <-deadline:
				t.Fatalf("rank %d still %v, not checkpointable", r, st.Phase)
			}
		}
	}
}

// TestRecoveredJobCheckpoints: after an in-job recovery every rank
// re-arms, a checkpoint of the recovered job commits, and a restart
// from that checkpoint converges to the fault-free oracle.
func TestRecoveredJobCheckpoints(t *testing.T) {
	const np, steps = 4, 6000
	want := oracleState(t, np, steps)

	sys := newSystem(t, np+1, 1, nil, nil)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, steps, 100*time.Microsecond)})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	h := newObservedHandler(sys.Recovery())
	j.SetRecoveryHandler(h)
	if _, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	const victim = 2
	if err := sys.Cluster().KillNode(j.NodeOf(victim)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	for _, ri := range await(t, h.frozen, "the recovery session") {
		wantState := runtime.RankRecovering
		if ri.Rank == victim {
			wantState = runtime.RankFailed
		}
		if ri.State != wantState {
			t.Errorf("during the session rank %d is %q, want %q", ri.Rank, ri.State, wantState)
		}
	}
	await(t, h.ended, "the end of the recovery session")
	if st := sys.Recovery().Stats(); st.RecoveredRanks != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want one recovered rank and no fallback", st)
	}

	awaitCheckpointable(t, j)
	for _, ri := range j.RankTable() {
		if ri.State != runtime.RankRunning {
			t.Errorf("after re-arming rank %d is %q, want running", ri.Rank, ri.State)
		}
	}
	res, err := j.Checkpoint(true)
	if err != nil {
		t.Fatalf("checkpoint of the recovered job: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("recovered job after its terminate checkpoint: %v", err)
	}
	j2, err := sys.Restart(res.Ref, res.Interval, slowStencil(t, steps, 0))
	if err != nil {
		t.Fatalf("restart from the recovered job's checkpoint: %v", err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatalf("restarted job: %v", err)
	}
	requireStencilEqual(t, j2, want)
}

// lateFailApp is a rank's first incarnation that parks in a step until
// released, then fails with an application error: the lost incarnation
// of a rank exiting only after its respawn took over the slot.
type lateFailApp struct {
	ompi.App
	hold    *atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (a *lateFailApp) Step(p *ompi.Proc) (bool, error) {
	if !a.hold.Load() {
		return a.App.Step(p)
	}
	close(a.parked)
	<-a.release
	return false, errors.New("lost incarnation fails late")
}

// TestStaleIncarnationCannotClearCheckpointable: the lost incarnation
// of a rank exits with an error after the rank was respawned. The exit
// speaks for nobody: the respawned rank stays checkpointable and
// running, and the job finishes cleanly.
func TestStaleIncarnationCannotClearCheckpointable(t *testing.T) {
	const np, rank = 3, 1
	stencil := slowStencil(t, 0, 100*time.Microsecond)
	stale := &lateFailApp{hold: new(atomic.Bool), parked: make(chan struct{}), release: make(chan struct{})}
	var built atomic.Int32
	factory := func(r int) ompi.App {
		app := stencil(r)
		if r == rank && built.Add(1) == 1 {
			stale.App = app
			return stale
		}
		return app
	}
	sys := newSystem(t, np+1, 1, nil, nil)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	h := newObservedHandler(sys.Recovery())
	j.SetRecoveryHandler(h)
	if _, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	lost := j.Proc(rank)
	stale.hold.Store(true)
	await(t, stale.parked, "the first incarnation to park")
	if err := sys.Cluster().KillNode(j.NodeOf(rank)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	await(t, h.frozen, "the recovery session")
	await(t, h.ended, "the end of the recovery session")
	awaitCheckpointable(t, j)
	if j.Proc(rank) == lost {
		t.Fatal("the slot still holds the lost incarnation")
	}

	close(stale.release)
	for st, next := lost.Watch(); st.Phase != ompi.PhaseExited; st, next = lost.Watch() {
		await(t, next, "the lost incarnation's exit")
	}
	if err := lost.Status().Err; err == nil {
		t.Fatal("the lost incarnation exited cleanly; want its late error")
	}
	if !j.Checkpointable(rank) {
		t.Error("the lost incarnation's exit made the respawned rank not checkpointable")
	}
	row := j.RankTable()[rank]
	if row.State != runtime.RankRunning || !strings.HasPrefix(row.Source, "recovered:") {
		t.Errorf("rank %d row = %+v, want running from a recovered source", rank, row)
	}
	if _, err := j.Checkpoint(true); err != nil {
		t.Fatalf("terminate checkpoint: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("Wait = %v; the lost incarnation's error leaked into the job", err)
	}
	if got := j.RankTable()[rank].State; got != runtime.RankDone {
		t.Errorf("rank %d state = %q after the job finished, want done", rank, got)
	}
}

func TestMigrationMovesRankWithoutRestart(t *testing.T) {
	const np, steps = 3, 1200
	want := oracleState(t, np, steps)

	sys := newSystem(t, np+1, 1, nil, nil)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	target := "node3" // the spare
	if j.NodeOf(1) == target {
		t.Fatalf("rank 1 already on spare node")
	}
	if err := sys.Migrate(j.JobID(), 1, target); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := j.NodeOf(1); got != target {
		t.Fatalf("rank 1 on %q after migration, want %q", got, target)
	}
	// Migrating a rank to where it already runs is a no-op.
	if err := sys.Migrate(j.JobID(), 1, target); err != nil {
		t.Fatalf("idempotent migrate: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job failed after migration: %v", err)
	}
	st := sys.Recovery().Stats()
	if st.Migrations != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 migration, 0 fallbacks", st)
	}
	var row runtime.RankInfo
	for _, ri := range j.RankTable() {
		if ri.Rank == 1 {
			row = ri
		}
	}
	if row.State != runtime.RankMigrated {
		t.Fatalf("rank 1 state = %q, want migrated", row.State)
	}
	if !strings.HasPrefix(row.Source, "migrated:") {
		t.Fatalf("rank 1 source = %q, want migrated:*", row.Source)
	}
	requireStencilEqual(t, j, want)

	// Migrating a finished job must fail cleanly.
	if err := sys.Migrate(j.JobID(), 0, target); err == nil {
		t.Fatalf("migrating a finished job succeeded")
	}
}

func TestRecoveryRetriesAlternateReplacementNode(t *testing.T) {
	const np, steps = 3, 1500
	// Every staging transfer onto the first-choice replacement fails —
	// enough times to exhaust FILEM's own retry budget — so the
	// coordinator must exclude that node and converge on the other spare.
	inj := faultsim.New(3,
		faultsim.Rule{Point: "filem.transfer:#stable>node3", Times: 8, Prob: 1},
	)
	sys := newSystem(t, np+2, 1, nil, inj)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	if _, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := sys.Cluster().KillNode(j.NodeOf(0)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not converge after staging failure: %v", err)
	}
	st := co.Stats()
	if st.Retries == 0 {
		t.Fatalf("stats = %+v, want at least one retry", st)
	}
	if st.Fallbacks != 0 || st.RecoveredRanks != 1 {
		t.Fatalf("stats = %+v, want retry-then-converge without fallback", st)
	}
}

func TestQuorumLossFallsBackToWholeJobRestart(t *testing.T) {
	const np, steps = 4, 1200
	want := oracleState(t, np, steps)

	// Two ranks per node: losing one node loses half the job — at or
	// below the 50% survivor quorum, so in-job recovery must refuse and
	// Supervise must restart the whole job from the last checkpoint.
	sys := newSystem(t, 3, 2, nil, nil)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	done := make(chan struct{})
	var rep core.SuperviseReport
	var serr error
	go func() {
		defer close(done)
		rep, serr = sys.Supervise(j, factory, core.SuperviseOptions{
			CheckpointEvery: 20 * time.Millisecond,
			Recovery:        core.Recovery{Policy: core.RecoverInJob, AutoRestart: 1},
		})
	}()
	// Let at least one checkpoint commit, then take out a node hosting
	// two ranks.
	waitForCounter(t, sys.Ins(), "ompi_snapc_intervals_committed_total", 1, 5*time.Second)
	if err := sys.Cluster().KillNode(j.NodeOf(0)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	<-done
	if serr != nil {
		t.Fatalf("Supervise: %v", serr)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1 (whole-job fallback)", rep.Restarts)
	}
	if rep.InJobRecovery.Fallbacks != 1 {
		t.Fatalf("InJobRecovery = %+v, want exactly one fallback", rep.InJobRecovery)
	}
	if rep.InJobRecovery.RecoveredRanks != 0 {
		t.Fatalf("InJobRecovery = %+v, want no in-job recoveries", rep.InJobRecovery)
	}
	cur, err := sys.Job(sys.JobIDs()[len(sys.JobIDs())-1])
	if err != nil {
		t.Fatalf("restarted job: %v", err)
	}
	requireStencilEqual(t, cur, want)
}

func TestSecondNodeLossDuringRecoveryFallsBack(t *testing.T) {
	const np, steps = 4, 1500
	sys := newSystem(t, 5, 2, nil, nil)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	done := make(chan struct{})
	var rep core.SuperviseReport
	var serr error
	go func() {
		defer close(done)
		rep, serr = sys.Supervise(j, factory, core.SuperviseOptions{
			CheckpointEvery: 20 * time.Millisecond,
			Recovery:        core.Recovery{Policy: core.RecoverInJob, AutoRestart: 1},
		})
	}()
	waitForCounter(t, sys.Ins(), "ompi_snapc_intervals_committed_total", 1, 5*time.Second)
	// Two nodes die in the same sweep: the first freeze starts a
	// session, the second death aborts it — the only safe answer is the
	// whole-job ladder.
	if err := sys.Cluster().KillNode(j.NodeOf(0)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := sys.Cluster().KillNode(j.NodeOf(1)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	<-done
	if serr != nil {
		t.Fatalf("Supervise: %v", serr)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	if rep.InJobRecovery.Fallbacks < 1 {
		t.Fatalf("InJobRecovery = %+v, want a fallback", rep.InJobRecovery)
	}
}

// TestInJobRecoveryRestoresFewerBytes is the headline economics claim
// at 16 ranks: recovering one lost rank in-job stages only that rank's
// image, while a whole-job restart re-stages every rank from stable
// storage — at least 4x (here ~16x) more restored bytes.
func TestInJobRecoveryRestoresFewerBytes(t *testing.T) {
	const np, steps = 16, 600

	// Whole-job baseline: checkpoint, lose a node, supervisor restarts
	// everything from stable storage.
	whole := newSystem(t, 9, 2, nil, nil)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	jw, err := whole.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	done := make(chan struct{})
	var rep core.SuperviseReport
	var serr error
	go func() {
		defer close(done)
		rep, serr = whole.Supervise(jw, factory, core.SuperviseOptions{
			CheckpointEvery: 20 * time.Millisecond,
			Recovery:        core.Recovery{AutoRestart: 1},
		})
	}()
	waitForCounter(t, whole.Ins(), "ompi_snapc_intervals_committed_total", 1, 5*time.Second)
	if err := whole.Cluster().KillNode(jw.NodeOf(0)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	<-done
	if serr != nil || rep.Restarts != 1 {
		t.Fatalf("whole-job baseline: err=%v report=%+v", serr, rep)
	}
	restartBytes := whole.Ins().Counter("ompi_restart_restored_bytes_total").Value()
	if restartBytes <= 0 {
		t.Fatalf("whole-job restart restored %d bytes", restartBytes)
	}

	// In-job run: same workload, same loss, one rank staged.
	injob := newSystem(t, np+1, 1, nil, nil)
	ji, err := injob.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := injob.Recovery()
	ji.SetRecoveryHandler(co)
	if _, err := injob.Cluster().CheckpointJob(ji.JobID(), snapc.Options{KeepLocal: true}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := injob.Cluster().KillNode(ji.NodeOf(0)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := ji.Wait(); err != nil {
		t.Fatalf("in-job run: %v", err)
	}
	if st := co.Stats(); st.RecoveredRanks != 1 || st.Fallbacks != 0 {
		t.Fatalf("in-job stats = %+v", st)
	}
	recovBytes := injob.Ins().Counter("ompi_recovery_restored_bytes_total").Value()
	if recovBytes <= 0 {
		t.Fatalf("in-job recovery restored %d bytes", recovBytes)
	}
	if restartBytes < 4*recovBytes {
		t.Fatalf("whole-job restored %d bytes, in-job %d: want >= 4x savings", restartBytes, recovBytes)
	}
	t.Logf("restored bytes: whole-job %d, in-job %d (%.1fx)", restartBytes, recovBytes,
		float64(restartBytes)/float64(recovBytes))
}

// TestNodeLossDuringQuiesceWindow kills a node while a checkpoint's
// quiesce phase is in flight. The capture aborts (parked survivors are
// not checkpointable), the in-job session recovers from the previous
// committed interval, and the run still converges to the fault-free
// oracle.
func TestNodeLossDuringQuiesceWindow(t *testing.T) {
	const np, steps = 4, 400
	want := oracleState(t, np, steps)

	sys := newSystem(t, np+1, 1, nil, nil)
	factory := slowStencil(t, steps, 2*time.Millisecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	if _, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	victim := j.NodeOf(1)

	// Run the second checkpoint from a helper goroutine and kill the
	// victim the moment its capture request goes out — inside the
	// quiesce window, long before the slow ranks reach the boundary.
	ckErr := make(chan error, 1)
	go func() {
		_, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{})
		ckErr <- err
	}()
	waitForEvent(t, sys.Ins(), "ckpt.request", 2, 5*time.Second)
	if err := sys.Cluster().KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	// The interrupted checkpoint may fail (capture torn by the freeze) or
	// squeak through if every rank quiesced first; both must converge.
	if err := <-ckErr; err != nil {
		t.Logf("checkpoint during kill failed as expected: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not survive quiesce-window node loss: %v", err)
	}
	st := co.Stats()
	if st.Sessions != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want one clean in-job session", st)
	}
	requireStencilEqual(t, j, want)
}

// TestNodeLossBetweenLocalCommitAndDrain kills a node in the window
// after every rank sealed its local stage (the async capture returned)
// but before the background drain committed the interval to stable
// storage. Recovery must resolve the torn drain and restore from
// whichever frontier survived.
func TestNodeLossBetweenLocalCommitAndDrain(t *testing.T) {
	const np, steps = 4, 400
	want := oracleState(t, np, steps)

	sys := newSystem(t, np+1, 1, nil, nil)
	factory := slowStencil(t, steps, 2*time.Millisecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	// Interval 0: fully committed, the guaranteed-good frontier.
	if _, err := sys.Cluster().CheckpointJob(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Interval 1: capture returns with LOCAL_COMMITTED everywhere and the
	// drain queued; the node dies while that drain races.
	if _, err := sys.Cluster().CheckpointJobAsync(j.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("async checkpoint: %v", err)
	}
	if err := sys.Cluster().KillNode(j.NodeOf(2)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not survive mid-drain node loss: %v", err)
	}
	st := co.Stats()
	if st.Sessions != 1 || st.Fallbacks != 0 || st.RecoveredRanks != 1 {
		t.Fatalf("stats = %+v, want one clean in-job session", st)
	}
	requireStencilEqual(t, j, want)
}

// waitForEvent polls the trace log until kind has been emitted at least
// want times.
func waitForEvent(t *testing.T, ins *trace.Instrumentation, kind string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n := 0
		for _, ev := range ins.Log.Events() {
			if ev.Kind == kind {
				n++
			}
		}
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("event %q seen %d times, want %d", kind, n, want)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// waitForCounter polls an instrumentation counter until it reaches at
// least want.
func waitForCounter(t *testing.T, ins *trace.Instrumentation, name string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for ins.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d (at %d)", name, want, ins.Counter(name).Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStagedRestoreCopiesAreRemoved: every copy FILEM stages for a
// restore is dropped once its rank has restored from it, and an
// abandoned recovery attempt drops what it staged. Survivors restore in
// place from the stages their nodes kept; the first attempt fails
// staging the lost rank onto its first-choice replacement; the retry
// converges (the fault fires exactly FILEM's four tries). A whole-job
// restart then preloads every rank again.
// Afterwards no node holds a staged restore tree.
func TestStagedRestoreCopiesAreRemoved(t *testing.T) {
	const np, steps = 3, 1500
	inj := faultsim.New(3,
		faultsim.Rule{Point: "filem.transfer:#stable>node3", Times: 4, Prob: 1},
	)
	sys := newSystem(t, np+2, 1, nil, inj)
	factory := slowStencil(t, steps, 100*time.Microsecond)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	res, err := j.Checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := sys.Cluster().KillNode(j.NodeOf(np - 1)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not survive node loss: %v", err)
	}
	if st := co.Stats(); st.Retries == 0 || st.RecoveredRanks != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want one retried, recovered session", st)
	}

	j2, err := sys.Restart(res.Ref, res.Interval, factory)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatalf("restarted job: %v", err)
	}
	if got := sys.Ins().Counter("ompi_restart_restored_bytes_total").Value(); got <= 0 {
		t.Fatalf("whole-job restart staged %d bytes, want a preload", got)
	}
	assertNoStagedCopies(t, sys)
}

// TestPartlyStagedRestartCleansUp: a whole-job restart that fails part
// way through staging drops what it staged. One rank per node; every
// transfer from stable storage onto node3 fails more often than FILEM
// retries, so the ranks on the other nodes stage and node3's cannot.
func TestPartlyStagedRestartCleansUp(t *testing.T) {
	const np = 4
	inj := faultsim.New(3)
	sys := newSystem(t, np, 1, nil, inj)
	factory := slowStencil(t, 200, 0)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := j.Checkpoint(true)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job: %v", err)
	}
	inj.AddRule(faultsim.Rule{Point: "filem.transfer:#stable>node3", Times: 100, Prob: 1})
	staged := sys.Ins().Counter("ompi_filem_bytes_gathered_total")
	before := staged.Value()
	if _, err := sys.Restart(res.Ref, res.Interval, factory); err == nil {
		t.Fatal("Restart succeeded with node3 unreachable from stable storage")
	}
	if inj.Fired("filem.transfer:#stable>node3") == 0 {
		t.Fatal("the transfer fault never fired")
	}
	if staged.Value() == before {
		t.Fatal("no rank staged before the failure")
	}
	assertNoStagedCopies(t, sys)
}

// assertNoStagedCopies fails when any live node still holds a staging
// root under tmp/restart or tmp/recover.
func assertNoStagedCopies(t *testing.T, sys *core.System) {
	t.Helper()
	for _, node := range sys.Cluster().AliveNodes() {
		fsys, err := sys.Cluster().NodeFS(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"tmp/restart", "tmp/recover"} {
			ents, _ := fsys.ReadDir(dir)
			for _, e := range ents {
				t.Errorf("node %s still holds staged restore tree %s/%s", node, dir, e.Name)
			}
		}
	}
}

// TestConcurrentRestartsOntoOneNode: two jobs restart at the same time
// onto the same node, each preloading every rank from stable storage.
// A rank drops only its own staged copy and its own restart's staging
// root, so neither restart removes a copy the other has yet to read.
func TestConcurrentRestartsOntoOneNode(t *testing.T) {
	const np, steps, rounds = 2, 2000, 3
	sys := newSystem(t, 1, 2*np, nil, nil)
	factory := slowStencil(t, steps, 50*time.Microsecond)
	var refs [2]core.CheckpointResult
	for i := range refs {
		j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: factory})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if refs[i], err = j.Checkpoint(true); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if err := j.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(refs))
		for i := range refs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j, err := sys.Restart(refs[i].Ref, refs[i].Interval, factory)
				if err == nil {
					refs[i], err = j.Checkpoint(true)
				}
				if err == nil {
					err = j.Wait()
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: restarted job %d: %v", round, i, err)
			}
		}
	}
	if got := sys.Ins().Counter("ompi_restart_restored_bytes_total").Value(); got <= 0 {
		t.Fatalf("restarts staged %d bytes, want preloads", got)
	}
	assertNoStagedCopies(t, sys)
}
