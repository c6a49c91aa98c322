package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/ompi/coll"
	"repro/internal/orte/plm"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

func fourNodeCluster(t *testing.T, params *mca.Params) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes: []plm.NodeSpec{
			{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2},
			{Name: "n2", Slots: 2}, {Name: "n3", Slots: 2},
		},
		Params: params,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// stencilApp is a 1-D heat-equation-style stencil: each rank owns a
// block, exchanges halos with neighbours every step, and tracks a
// residual via Allreduce every few steps. It terminates after `steps`
// iterations, or runs until checkpointed when steps == 0 (ended by a
// terminate directive), or runs `extra` steps after a (re)start.
type stencilApp struct {
	steps int
	extra int

	started   bool
	startIter int
	state     struct {
		Iter int
		Cell []float64
	}
}

func newStencilFactory(steps, extra int) (func(rank int) ompi.App, *[]*stencilApp) {
	apps := &[]*stencilApp{}
	return func(rank int) ompi.App {
		a := &stencilApp{steps: steps, extra: extra}
		*apps = append(*apps, a)
		return a
	}, apps
}

func (a *stencilApp) Setup(p *ompi.Proc) error {
	if a.state.Cell == nil {
		a.state.Cell = make([]float64, 8)
		for i := range a.state.Cell {
			a.state.Cell[i] = float64(p.Rank()*8 + i)
		}
	}
	return p.RegisterState("stencil", &a.state)
}

func (a *stencilApp) Step(p *ompi.Proc) (bool, error) {
	if !a.started {
		a.started = true
		a.startIter = a.state.Iter
	}
	n := p.Size()
	rank := p.Rank()
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	// Halo exchange: send the edge cells both ways.
	if _, err := p.Isend(right, 1, coll.Float64sToBytes(a.state.Cell[len(a.state.Cell)-1:])); err != nil {
		return false, err
	}
	if _, err := p.Isend(left, 2, coll.Float64sToBytes(a.state.Cell[:1])); err != nil {
		return false, err
	}
	fromLeft, _, err := p.Recv(left, 1)
	if err != nil {
		return false, err
	}
	fromRight, _, err := p.Recv(right, 2)
	if err != nil {
		return false, err
	}
	l, err := coll.BytesToFloat64s(fromLeft)
	if err != nil {
		return false, err
	}
	r, err := coll.BytesToFloat64s(fromRight)
	if err != nil {
		return false, err
	}
	// Jacobi-ish smoothing with halos.
	next := make([]float64, len(a.state.Cell))
	for i := range next {
		lv := l[0]
		if i > 0 {
			lv = a.state.Cell[i-1]
		}
		rv := r[0]
		if i < len(next)-1 {
			rv = a.state.Cell[i+1]
		}
		next[i] = (lv + a.state.Cell[i] + rv) / 3
	}
	a.state.Cell = next
	a.state.Iter++
	// Periodic residual reduction keeps collectives in the mix.
	if a.state.Iter%4 == 0 {
		if _, err := p.Allreduce(coll.Float64sToBytes([]float64{a.state.Cell[0]}), coll.SumFloat64); err != nil {
			return false, err
		}
	}
	switch {
	case a.steps > 0 && a.state.Iter >= a.steps:
		return true, nil
	case a.extra > 0 && a.state.Iter >= a.startIter+a.extra:
		return true, nil
	}
	return false, nil
}

func TestLaunchAndWait(t *testing.T) {
	c := fourNodeCluster(t, nil)
	factory, apps := newStencilFactory(10, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 8, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !job.Done() {
		t.Error("Done = false after Wait")
	}
	for i, a := range *apps {
		if a.state.Iter != 10 {
			t.Errorf("app %d iter = %d", i, a.state.Iter)
		}
	}
	// Round-robin placement spread ranks across all four nodes.
	if got := len(job.Nodes()); got != 4 {
		t.Errorf("job spans %d nodes, want 4", got)
	}
}

func TestLaunchValidation(t *testing.T) {
	c := fourNodeCluster(t, nil)
	if _, err := c.Launch(JobSpec{NP: 0, AppFactory: func(int) ompi.App { return nil }}); err == nil {
		t.Error("Launch accepted NP=0")
	}
	if _, err := c.Launch(JobSpec{NP: 2}); err == nil {
		t.Error("Launch accepted nil factory")
	}
	if _, err := c.Launch(JobSpec{NP: 100, AppFactory: func(int) ompi.App { return nil }}); err == nil {
		t.Error("Launch oversubscribed the cluster")
	}
}

func TestCheckpointContinueWholePipeline(t *testing.T) {
	c := fourNodeCluster(t, nil)
	factory, apps := newStencilFactory(0, 0) // unbounded; we'll watch Checkpoints()
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 6, Args: []string{"-grid", "8"}, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{})
	if err != nil {
		t.Fatalf("CheckpointJob: %v", err)
	}
	// The run continues; terminate it with a second checkpoint.
	res2, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("second CheckpointJob: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Interval != 0 || res2.Interval != 1 {
		t.Errorf("intervals = %d, %d", res.Interval, res2.Interval)
	}
	// Global snapshot has both intervals, each fully populated.
	ref := res.Ref
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("intervals on stable storage = %v", ivs)
	}
	for _, iv := range ivs {
		meta, err := snapshot.ReadGlobal(ref, iv)
		if err != nil {
			t.Fatalf("ReadGlobal(%d): %v", iv, err)
		}
		if meta.NumProcs != 6 || meta.AppName != "stencil" {
			t.Errorf("meta = %+v", meta)
		}
		if len(meta.AppArgs) != 2 || meta.AppArgs[0] != "-grid" {
			t.Errorf("AppArgs = %v", meta.AppArgs)
		}
		for _, pe := range meta.Procs {
			lref := snapshot.LocalRefIn(ref, iv, pe)
			if _, err := snapshot.ReadLocal(lref); err != nil {
				t.Errorf("interval %d rank %d: %v", iv, pe.Vpid, err)
			}
		}
	}
	_ = apps
}

func TestCheckpointTerminateRestartSameCluster(t *testing.T) {
	c := fourNodeCluster(t, nil)
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("CheckpointJob: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	factory2, apps2 := newStencilFactory(0, 7)
	job2, err := c.Restart(res.Ref, res.Interval, factory2)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatalf("restarted Wait: %v", err)
	}
	// Every restarted rank resumed from the checkpointed iteration and
	// ran 7 more steps; iterations agree across ranks (uniform cut).
	base := (*apps2)[0].startIter
	for i, a := range *apps2 {
		if a.startIter != base {
			t.Errorf("app %d resumed at %d, others at %d", i, a.startIter, base)
		}
		if a.state.Iter != base+7 {
			t.Errorf("app %d iter = %d, want %d", i, a.state.Iter, base+7)
		}
		if len(a.state.Cell) != 8 {
			t.Errorf("app %d lost its cells", i)
		}
	}
}

// TestRestartMatchesFaultFreeRun is the correctness core: a run that is
// checkpointed, killed and restarted must produce exactly the state of
// an uninterrupted run of the same length.
func TestRestartMatchesFaultFreeRun(t *testing.T) {
	const np = 4
	// Fault-free reference run to a fixed step count.
	ref := fourNodeCluster(t, nil)
	refFactory, refApps := newStencilFactory(0, 0)
	refJob, err := ref.Launch(JobSpec{Name: "stencil", NP: np, AppFactory: refFactory})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run on a separate cluster.
	c := fourNodeCluster(t, nil)
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	factory2, apps2 := newStencilFactory(0, 9)
	job2, err := c.Restart(res.Ref, res.Interval, factory2)
	if err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	finalIter := (*apps2)[0].state.Iter

	// Run the reference to the same total step count.
	_, err = ref.CheckpointJob(refJob.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := refJob.Wait(); err != nil {
		t.Fatal(err)
	}
	// Now re-run the reference from scratch with a fixed step target.
	ref2 := fourNodeCluster(t, nil)
	ref2Factory, ref2Apps := newStencilFactory(finalIter, 0)
	ref2Job, err := ref2.Launch(JobSpec{Name: "stencil", NP: np, AppFactory: ref2Factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref2Job.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = refApps
	for r := 0; r < np; r++ {
		got := (*apps2)[r].state.Cell
		want := (*ref2Apps)[r].state.Cell
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d cell %d = %v, want %v (restart diverged)", r, i, got[i], want[i])
			}
		}
	}
}

func TestRestartOntoDifferentTopology(t *testing.T) {
	// Checkpoint on a 4-node cluster, restart on a 2-node cluster with
	// a different placement policy: the paper's migration scenario.
	c1 := fourNodeCluster(t, nil)
	factory, _ := newStencilFactory(0, 0)
	job, err := c1.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c1.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	params := mca.NewParams()
	params.Set("plm", "slurmsim")
	c2, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "m0", Slots: 2}, {Name: "m1", Slots: 2}},
		Params: params,
		Stable: res.Ref.FS, // shared stable storage between clusters
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	factory2, apps2 := newStencilFactory(0, 5)
	job2, err := c2.Restart(res.Ref, res.Interval, factory2)
	if err != nil {
		t.Fatalf("Restart on new topology: %v", err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, a := range *apps2 {
		if a.state.Iter != a.startIter+5 {
			t.Errorf("app %d did not resume correctly: iter %d start %d", i, a.state.Iter, a.startIter)
		}
	}
	// The restarted job runs on the new cluster's nodes.
	for r := 0; r < 4; r++ {
		node := job2.NodeOf(r)
		if node != "m0" && node != "m1" {
			t.Errorf("rank %d on %q, want m0/m1", r, node)
		}
	}
}

func TestCheckpointAfterFinalizeFailsCleanly(t *testing.T) {
	c := fourNodeCluster(t, nil)
	factory, _ := newStencilFactory(3, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	_, err = c.CheckpointJob(job.JobID(), snapc.Options{})
	if !errors.Is(err, snapc.ErrNotCheckpointable) {
		t.Errorf("err = %v, want ErrNotCheckpointable", err)
	}
}

func TestSynchronousCheckpointThroughRuntime(t *testing.T) {
	c := fourNodeCluster(t, nil)
	type st struct{ Iter int }
	states := make([]*st, 3)
	factory := func(rank int) ompi.App {
		s := &st{}
		states[rank] = s
		return ompi.FuncApp{
			SetupFn: func(p *ompi.Proc) error { return p.RegisterState("s", s) },
			StepFn: func(p *ompi.Proc) (bool, error) {
				s.Iter++
				if s.Iter == 2 {
					if err := p.Checkpoint(); err != nil {
						return false, err
					}
				}
				return s.Iter >= 4, nil
			},
		}
	}
	job, err := c.Launch(JobSpec{Name: "sync", NP: 3, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The synchronous request produced a global snapshot.
	ref := snapshot.GlobalRef{FS: c.Stable(), Dir: snapshot.GlobalDirName(int(job.JobID()))}
	meta, err := snapshot.ReadGlobal(ref, 0)
	if err != nil {
		t.Fatalf("ReadGlobal: %v", err)
	}
	if meta.NumProcs != 3 {
		t.Errorf("meta = %+v", meta)
	}
}

func TestRestartFromOSBackedStableStorage(t *testing.T) {
	// Global snapshots on a real disk directory survive the "death" of
	// the first cluster entirely — the tool path (ompi-restart).
	stable, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "n0", Slots: 4}},
		Stable: stable,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	factory, _ := newStencilFactory(0, 0)
	job, err := c1.Launch(JobSpec{Name: "stencil", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c1.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A brand-new "simulator process": only the stable path survives.
	stable2, err := vfs.NewOS(stable.Root())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "x0", Slots: 4}},
		Stable: stable2,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ref := snapshot.GlobalRef{FS: stable2, Dir: res.Ref.Dir}
	latest, err := snapshot.LatestInterval(ref)
	if err != nil {
		t.Fatal(err)
	}
	factory2, apps2 := newStencilFactory(0, 3)
	job2, err := c2.Restart(ref, latest, factory2)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if (*apps2)[0].state.Iter != (*apps2)[0].startIter+3 {
		t.Error("restart from OS-backed storage did not resume")
	}
}

func TestJobBookkeeping(t *testing.T) {
	c := fourNodeCluster(t, nil)
	if _, err := c.Job(99); err == nil {
		t.Error("Job(99) succeeded")
	}
	factory, _ := newStencilFactory(2, 0)
	job, err := c.Launch(JobSpec{Name: "a", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ids := c.JobIDs()
	if len(ids) != 1 || ids[0] != job.JobID() {
		t.Errorf("JobIDs = %v", ids)
	}
	got, err := c.Job(job.JobID())
	if err != nil || got != job {
		t.Errorf("Job lookup = %v, %v", got, err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted empty cluster")
	}
	if _, err := New(Config{Nodes: []plm.NodeSpec{{Name: "a", Slots: 1}, {Name: "a", Slots: 1}}}); err == nil {
		t.Error("New accepted duplicate node names")
	}
	if _, err := New(Config{Nodes: []plm.NodeSpec{{Name: "#stable", Slots: 1}}}); err == nil {
		t.Error("New accepted reserved node name")
	}
}

func TestTraceEventsCoverFigureOne(t *testing.T) {
	log := &trace.Log{}
	c, err := New(Config{
		Nodes: []plm.NodeSpec{{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2}},
		Ins:   trace.WithLogOnly(log),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "s", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// The Figure-1 flow leaves its footprint in the trace.
	for _, kind := range []string{"ckpt.request", "ckpt.start", "ckpt.node-done", "ckpt.gathered", "ckpt.done", "filem.copy", "proc.ckpt"} {
		if log.Count(kind) == 0 {
			t.Errorf("no %q events in trace (summary: %s)", kind, log.Summary())
		}
	}
	_ = time.Now
	_ = fmt.Sprint
}

// TestStaleIncarnationCannotClearCheckpointable: once a slot is
// respawned, a late "not checkpointable" from the lost incarnation (it
// notices the closed fabric only at its next operation) must not hide
// the live incarnation from the checkpoint coordinator.
func TestStaleIncarnationCannotClearCheckpointable(t *testing.T) {
	j := &Job{epochs: make([]int, 2), checkpointable: make([]ckptState, 2)}
	j.setCheckpointable(1, 0, true)
	j.epochs[1]++ // the slot is respawned
	j.setCheckpointable(1, 1, true)
	j.setCheckpointable(1, 0, false)
	if !j.Checkpointable(1) {
		t.Error("the lost incarnation's notification cleared the respawned rank's state")
	}
	j.setCheckpointable(1, 1, false)
	if j.Checkpointable(1) {
		t.Error("the live incarnation's notification was ignored")
	}
}
