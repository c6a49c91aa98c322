package core

import (
	"encoding/json"
	"fmt"
	"path"
	"strings"
	"testing"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/ompi/coll"
	"repro/internal/opal/crs"
	"repro/internal/orte/runtime"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// counter is a minimal checkpointable app: exchanges a token with the
// next rank each step and counts.
type counter struct {
	limit int // 0 = unbounded
	state struct{ Iter int }

	started   bool
	startIter int // iteration at (re)start, captured on the first step
}

func (a *counter) Setup(p *ompi.Proc) error { return p.RegisterState("c", &a.state) }

func (a *counter) Step(p *ompi.Proc) (bool, error) {
	if !a.started {
		a.started = true
		a.startIter = a.state.Iter
	}
	next := (p.Rank() + 1) % p.Size()
	prev := (p.Rank() - 1 + p.Size()) % p.Size()
	if _, err := p.Isend(next, 1, []byte{1}); err != nil {
		return false, err
	}
	if _, _, err := p.Recv(prev, 1); err != nil {
		return false, err
	}
	a.state.Iter++
	return a.limit > 0 && a.state.Iter >= a.limit, nil
}

func counterFactory(limit int) (func(rank int) ompi.App, *[]*counter) {
	list := &[]*counter{}
	return func(rank int) ompi.App {
		a := &counter{limit: limit}
		*list = append(*list, a)
		return a
	}, list
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{}); err == nil {
		t.Error("NewSystem accepted zero nodes")
	}
	sys, err := NewSystem(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
}

func TestLaunchCheckpointRestartFacade(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Ins: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "counter", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.JobIDs(); len(got) != 1 {
		t.Errorf("JobIDs = %v", got)
	}
	if _, err := sys.Job(job.JobID()); err != nil {
		t.Errorf("Job: %v", err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if ckpt.Dir == "" || ckpt.Meta.NumProcs != 4 {
		t.Errorf("ckpt = %+v", ckpt)
	}

	// The facade reopens the snapshot by name, like a tool would.
	ref, err := sys.OpenGlobalSnapshot(ckpt.Dir)
	if err != nil {
		t.Fatal(err)
	}
	factory2, apps2 := counterFactory(0)
	job2, err := sys.RestartLatest(ref, factory2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if (*apps2)[0].state.Iter == 0 {
		t.Error("restarted app did not resume")
	}
}

func TestOpenGlobalSnapshotRejectsGarbage(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.OpenGlobalSnapshot("no_such_ref"); err == nil {
		t.Error("OpenGlobalSnapshot accepted a missing directory")
	}
}

// TestHeterogeneousCRSInOneGlobalSnapshot is the paper's §4 scenario:
// local snapshots from different checkpoint/restart systems aggregate
// into one global snapshot, and restart maps each rank back onto the
// checkpointer that produced its local snapshot.
func TestHeterogeneousCRSInOneGlobalSnapshot(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Even ranks use simcr (system-level); odd ranks use self
	// (application callbacks).
	type selfState struct{ Iter int }
	selfStates := make(map[int]*selfState)
	factory := func(rank int) ompi.App {
		if rank%2 == 0 {
			a := &counter{}
			return a
		}
		st := &selfState{}
		selfStates[rank] = st
		return ompi.FuncApp{
			SetupFn: func(p *ompi.Proc) error {
				p.RegisterSelfCallbacks(&crs.SelfCallbacks{
					Checkpoint: func(fsys vfs.FS, dir string) error {
						data, _ := json.Marshal(st)
						return fsys.WriteFile(path.Join(dir, "self.json"), data)
					},
					Restart: func(fsys vfs.FS, dir string) error {
						data, err := fsys.ReadFile(path.Join(dir, "self.json"))
						if err != nil {
							return err
						}
						return json.Unmarshal(data, st)
					},
				})
				return nil
			},
			StepFn: func(p *ompi.Proc) (bool, error) {
				next := (p.Rank() + 1) % p.Size()
				prev := (p.Rank() - 1 + p.Size()) % p.Size()
				if _, err := p.Isend(next, 1, []byte{1}); err != nil {
					return false, err
				}
				if _, _, err := p.Recv(prev, 1); err != nil {
					return false, err
				}
				st.Iter++
				return false, nil
			},
		}
	}
	job, err := sys.Launch(runtime.JobSpec{
		Name: "hetero", NP: 4, AppFactory: factory,
		CRSByRank: func(rank int) string {
			if rank%2 == 0 {
				return "simcr"
			}
			return "self"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// The global metadata records per-rank components.
	for _, pe := range ckpt.Meta.Procs {
		want := "simcr"
		if pe.Vpid%2 == 1 {
			want = "self"
		}
		if pe.Component != want {
			t.Errorf("rank %d component = %q, want %q", pe.Vpid, pe.Component, want)
		}
	}
	// Restart: each rank restored by its own checkpointer.
	selfStates2 := make(map[int]*selfState)
	counters2 := make(map[int]*counter)
	factory2 := func(rank int) ompi.App {
		if rank%2 == 0 {
			a := &counter{}
			counters2[rank] = a
			return a
		}
		st := &selfState{}
		selfStates2[rank] = st
		return ompi.FuncApp{
			SetupFn: func(p *ompi.Proc) error {
				p.RegisterSelfCallbacks(&crs.SelfCallbacks{
					Restart: func(fsys vfs.FS, dir string) error {
						data, err := fsys.ReadFile(path.Join(dir, "self.json"))
						if err != nil {
							return err
						}
						return json.Unmarshal(data, st)
					},
					Checkpoint: func(fsys vfs.FS, dir string) error {
						data, _ := json.Marshal(st)
						return fsys.WriteFile(path.Join(dir, "self.json"), data)
					},
				})
				return nil
			},
			StepFn: func(p *ompi.Proc) (bool, error) {
				next := (p.Rank() + 1) % p.Size()
				prev := (p.Rank() - 1 + p.Size()) % p.Size()
				if _, err := p.Isend(next, 1, []byte{1}); err != nil {
					return false, err
				}
				if _, _, err := p.Recv(prev, 1); err != nil {
					return false, err
				}
				st.Iter++
				// Unbounded like the even ranks: the test terminates the
				// job with a checkpoint, keeping step counts uniform.
				return false, nil
			},
		}
	}
	job2, err := sys.Restart(ckpt.Ref, ckpt.Interval, factory2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job2.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	for rank, st := range selfStates2 {
		if st.Iter == 0 {
			t.Errorf("self rank %d did not restore", rank)
		}
	}
	for rank, a := range counters2 {
		if a.state.Iter == 0 {
			t.Errorf("simcr rank %d did not restore", rank)
		}
	}
}

// --- Failure injection ---------------------------------------------------------

func TestRestartRejectsCorruptGlobalMetadata(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the global metadata on stable storage.
	metaPath := path.Join(ckpt.Ref.IntervalDir(ckpt.Interval), snapshot.GlobalMetaFile)
	if err := ckpt.Ref.FS.WriteFile(metaPath, []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restart(ckpt.Ref, ckpt.Interval, factory); err == nil {
		t.Error("Restart accepted corrupt global metadata")
	}
}

func TestRestartRejectsCorruptImage(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in rank 1's image: the CRC catches it at restart.
	imgPath := path.Join(ckpt.Ref.IntervalDir(ckpt.Interval), snapshot.LocalDirName(1), crs.ImageFile)
	img, err := ckpt.Ref.FS.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF
	if err := ckpt.Ref.FS.WriteFile(imgPath, img); err != nil {
		t.Fatal(err)
	}
	factory2, _ := counterFactory(0)
	job2, err := sys.Restart(ckpt.Ref, ckpt.Interval, factory2)
	if err != nil {
		// Acceptable: the restart fails before launch.
		return
	}
	// Otherwise it must fail when the rank restores.
	if err := job2.Wait(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("restart with corrupt image: err = %v, want CRC failure", err)
	}
}

func TestRestartMissingLocalSnapshotFails(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Delete rank 0's local snapshot from the global snapshot.
	if err := ckpt.Ref.FS.Remove(path.Join(ckpt.Ref.IntervalDir(ckpt.Interval), snapshot.LocalDirName(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restart(ckpt.Ref, ckpt.Interval, factory); err == nil {
		t.Error("Restart succeeded with a missing local snapshot")
	}
}

// TestNodeLossAfterCheckpoint: once the gather has placed the local
// snapshots on stable storage, losing every node-local disk must not
// affect restartability — the paper's definition of stable storage.
func TestNodeLossAfterCheckpoint(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Simulate total node loss: the strongest equivalent is restarting
	// on a brand-new cluster that shares only stable storage.
	sys2, err := NewSystem(Options{Nodes: 3, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	// Copy the global snapshot to the new system's stable storage,
	// standing in for a shared filesystem.
	if _, err := vfs.CopyTree(ckpt.Ref.FS, ckpt.Ref.Dir, sys2.Cluster().Stable(), ckpt.Ref.Dir); err != nil {
		t.Fatal(err)
	}
	sys.Close() // the original cluster (and its node disks) are gone

	ref, err := sys2.OpenGlobalSnapshot(ckpt.Dir)
	if err != nil {
		t.Fatal(err)
	}
	factory2, apps2 := counterFactory(0)
	job2, err := sys2.RestartLatest(ref, factory2)
	if err != nil {
		t.Fatalf("Restart after node loss: %v", err)
	}
	if _, err := job2.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if (*apps2)[0].state.Iter == 0 {
		t.Error("restart after node loss did not resume")
	}
}

func TestMultipleIntervalsRestartEach(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, apps := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}

	var last CheckpointResult
	for i := 0; i < 3; i++ {
		term := i == 2
		ckpt, err := job.Checkpoint(term)
		if err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		last = ckpt
		if ckpt.Interval != i {
			t.Errorf("interval = %d, want %d", ckpt.Interval, i)
		}
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = apps
	ivs, err := snapshot.Intervals(last.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Fatalf("intervals = %v", ivs)
	}
	// Restart from each interval; later intervals resume at larger or
	// equal iteration counts.
	prevIter := -1
	for _, iv := range ivs {
		factory2, apps2 := counterFactory(0)
		job2, err := sys.Restart(last.Ref, iv, factory2)
		if err != nil {
			t.Fatalf("restart interval %d: %v", iv, err)
		}
		if _, err := job2.Checkpoint(true); err != nil {
			t.Fatal(err)
		}
		if err := job2.Wait(); err != nil {
			t.Fatal(err)
		}
		resumedAt := (*apps2)[0].startIter
		if resumedAt < prevIter {
			t.Errorf("interval %d resumed below previous interval (%d < %d)", iv, resumedAt, prevIter)
		}
		prevIter = resumedAt
	}
}

func TestParamsFlowIntoMetadata(t *testing.T) {
	params := mca.NewParams()
	params.Set("crcp", "bkmrk")
	params.Set("filem", "raw")
	sys, err := NewSystem(Options{Nodes: 2, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if ckpt.Meta.MCAParams["filem"] != "raw" || ckpt.Meta.MCAParams["crcp"] != "bkmrk" {
		t.Errorf("MCAParams = %v", ckpt.Meta.MCAParams)
	}
	_ = fmt.Sprint
	_ = coll.SumInt64
}

// TestRestartChainMatchesFaultFree drives a job through a chain of
// checkpoint-terminate-restart cycles — each restart from the snapshot
// the previous incarnation left — and verifies the final application
// state matches an uninterrupted run of the same length bit-for-bit.
// This is the strongest end-to-end statement the infrastructure can
// make: arbitrary repeated failures with recovery are invisible to the
// computation.
func TestRestartChainMatchesFaultFree(t *testing.T) {
	const np = 4
	const chainLen = 4

	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Incarnation 0: fresh launch, then checkpoint-terminate.
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "chain", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	// Incarnations 1..chainLen: restart, run a bit, checkpoint-terminate.
	for i := 1; i <= chainLen; i++ {
		f, _ := counterFactory(0)
		job, err = sys.RestartLatest(ckpt.Ref, f)
		if err != nil {
			t.Fatalf("incarnation %d restart: %v", i, err)
		}
		ckpt, err = job.Checkpoint(true)
		if err != nil {
			t.Fatalf("incarnation %d checkpoint: %v", i, err)
		}
		if err := job.Wait(); err != nil {
			t.Fatalf("incarnation %d wait: %v", i, err)
		}
	}

	// Final incarnation: run to a fixed absolute iteration and record.
	finalF, finalApps := counterFactory(0)
	job, err = sys.RestartLatest(ckpt.Ref, finalF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	finalIter := (*finalApps)[0].state.Iter
	for r := 1; r < np; r++ {
		if (*finalApps)[r].state.Iter != finalIter {
			t.Fatalf("rank %d iter %d != rank 0 iter %d (non-uniform cut)",
				r, (*finalApps)[r].state.Iter, finalIter)
		}
	}
	if finalIter == 0 {
		t.Fatal("chain made no progress")
	}
	// Each incarnation is a fresh job with its own global snapshot
	// reference (like each mpirun in the paper); the chain hands the
	// newest reference forward. The final reference holds exactly the
	// final incarnation's interval.
	ivs, err := snapshot.Intervals(ckpt.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 {
		t.Errorf("final ref intervals = %v, want [0]", ivs)
	}
}

// TestRestartChainStencilUniform repeats the chain with floating-point
// stencil state: every incarnation is terminated by an asynchronous
// checkpoint, and after each restart the ranks must agree on the
// iteration count (uniform cut) while the cell state stays intact.
func TestRestartChainStencilUniform(t *testing.T) {
	const np = 4
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mk := func() (func(rank int) ompi.App, *[]*chainStencil) {
		list := &[]*chainStencil{}
		return func(rank int) ompi.App {
			a := &chainStencil{} // unbounded; the checkpoint terminates it
			*list = append(*list, a)
			return a
		}, list
	}
	factory, apps := mk()
	job, err := sys.Launch(JobSpec{Name: "cs", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	var ckpt CheckpointResult
	for i := 0; i < 3; i++ {
		ckpt, err = job.Checkpoint(true)
		if err != nil {
			t.Fatalf("incarnation %d: %v", i, err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		iter0 := (*apps)[0].state.Iter
		for r := 1; r < np; r++ {
			if (*apps)[r].state.Iter != iter0 {
				t.Fatalf("incarnation %d: rank %d iter %d != %d (non-uniform cut)",
					i, r, (*apps)[r].state.Iter, iter0)
			}
			if len((*apps)[r].state.Cell) != 4 {
				t.Fatalf("incarnation %d: rank %d lost cells", i, r)
			}
		}
		factory, apps = mk()
		job, err = sys.RestartLatest(ckpt.Ref, factory)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := job.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if (*apps)[0].state.Iter == 0 {
		t.Fatal("chain made no progress")
	}
}

// chainStencil is a small Jacobi ring stencil that runs `extra` steps
// per incarnation then stops.
type chainStencil struct {
	extra     int
	started   bool
	startIter int
	state     struct {
		Iter int
		Cell []float64
	}
}

func (a *chainStencil) Setup(p *ompi.Proc) error {
	if a.state.Cell == nil {
		a.state.Cell = make([]float64, 4)
		for i := range a.state.Cell {
			a.state.Cell[i] = float64(i + 1)
		}
	}
	return p.RegisterState("cs", &a.state)
}

func (a *chainStencil) Step(p *ompi.Proc) (bool, error) {
	if !a.started {
		a.started = true
		a.startIter = a.state.Iter
	}
	_ = a.startIter
	next := (p.Rank() + 1) % p.Size()
	prev := (p.Rank() - 1 + p.Size()) % p.Size()
	if _, err := p.Isend(next, 1, coll.Float64sToBytes(a.state.Cell[len(a.state.Cell)-1:])); err != nil {
		return false, err
	}
	data, _, err := p.Recv(prev, 1)
	if err != nil {
		return false, err
	}
	v, err := coll.BytesToFloat64s(data)
	if err != nil {
		return false, err
	}
	nextCells := make([]float64, len(a.state.Cell))
	for i := range nextCells {
		l := v[0]
		if i > 0 {
			l = a.state.Cell[i-1]
		}
		nextCells[i] = (l + a.state.Cell[i]) / 2
	}
	a.state.Cell = nextCells
	a.state.Iter++
	return a.extra > 0 && a.state.Iter >= a.startIter+a.extra, nil
}
