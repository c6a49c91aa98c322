package core

import (
	"errors"
	"path"
	"sync"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/trace"
)

// slowCounter is the counter ring app slowed to wall-clock speed so
// heartbeat-driven failures and periodic checkpoints can land mid-run.
type slowCounter struct {
	counter
	delay time.Duration
}

func (a *slowCounter) Step(p *ompi.Proc) (bool, error) {
	done, err := a.counter.Step(p)
	if err == nil && !done {
		time.Sleep(a.delay)
	}
	return done, err
}

func slowCounterFactory(limit int, delay time.Duration) (func(rank int) ompi.App, *[]*slowCounter) {
	var mu sync.Mutex
	list := &[]*slowCounter{}
	return func(rank int) ompi.App {
		a := &slowCounter{counter: counter{limit: limit}, delay: delay}
		mu.Lock()
		*list = append(*list, a)
		mu.Unlock()
		return a
	}, list
}

// finalIters returns the iteration counts of the last incarnation's np
// apps (the factory appends one app per rank per incarnation).
func finalIters(apps []*slowCounter, np int) []int {
	out := make([]int, 0, np)
	for _, a := range apps[len(apps)-np:] {
		out = append(out, a.state.Iter)
	}
	return out
}

// referenceIters runs the same app fault-free and returns its final
// per-rank state, the oracle every failure test compares against.
func referenceIters(t *testing.T, nodes, slots, np, limit int) []int {
	t.Helper()
	sys, err := NewSystem(Options{Nodes: nodes, SlotsPerNode: slots})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, apps := slowCounterFactory(limit, 0)
	job, err := sys.Launch(JobSpec{Name: "ref", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return finalIters(*apps, np)
}

// TestSuperviseAutoRestartAfterNodeLoss is failure matrix case (a): a
// node dies after a committed checkpoint; the supervisor restarts the
// job from that snapshot onto the survivors and the final state matches
// a fault-free run.
func TestSuperviseAutoRestartAfterNodeLoss(t *testing.T) {
	const np, limit = 4, 40
	want := referenceIters(t, 3, 2, np, limit)

	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 3, SlotsPerNode: 2, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, apps := slowCounterFactory(limit, time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "c", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	// Kill a node the job runs on — exactly once, only after the first
	// checkpoint has committed, so a valid snapshot is guaranteed.
	var kill sync.Once
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		CheckpointEvery: 5 * time.Millisecond,
		Recovery:        Recovery{AutoRestart: 1},
		Progress: func(CheckpointResult) {
			kill.Do(func() {
				if err := sys.Cluster().KillNode("node2"); err != nil {
					t.Errorf("KillNode: %v", err)
				}
			})
		},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if !rep.Recovered || rep.Restarts != 1 {
		t.Errorf("report = %+v, want exactly one recovery", rep)
	}
	if rep.Checkpoints == 0 {
		t.Error("no checkpoints committed before the failure")
	}
	// Every committed interval folded its phase breakdown into the report.
	if rep.Phases.TotalNS <= 0 || rep.Phases.CommitNS <= 0 {
		t.Errorf("report phases not accumulated: %+v", rep.Phases)
	}
	if log.Count("supervise.restart") != 1 {
		t.Errorf("supervise.restart events = %d, want 1", log.Count("supervise.restart"))
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	// The restarted incarnation avoided the dead node.
	for _, n := range sys.Cluster().AliveNodes() {
		if n == "node2" {
			t.Error("node2 reported alive after the kill")
		}
	}
}

// TestCheckpointRetriesTransientFilemFaults is failure matrix case (b),
// transient half: injected FILEM transfer failures are absorbed by the
// retry policy and the checkpoint still commits and verifies.
func TestCheckpointRetriesTransientFilemFaults(t *testing.T) {
	params := mca.NewParams()
	params.Set("fault_plan", "seed=7; filem.transfer=p1,times3")
	params.Set("filem_retry_max", "5")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatalf("Checkpoint under transient faults: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := log.Count("filem.retry"); n < 3 {
		t.Errorf("filem.retry events = %d, want >= 3", n)
	}
	if _, err := snapshot.VerifyInterval(ckpt.Ref, ckpt.Interval); err != nil {
		t.Errorf("committed-under-retries snapshot fails verification: %v", err)
	}
}

// TestCheckpointAbortsAtomicallyWhenRetriesExhausted is failure matrix
// case (b), permanent half: when retries run out the interval aborts
// atomically — no staged debris, no uncommitted interval, and the job
// keeps running and can checkpoint again.
func TestCheckpointAbortsAtomicallyWhenRetriesExhausted(t *testing.T) {
	params := mca.NewParams()
	// Two attempts per request, two injected failures: the first
	// checkpoint's first transfer exhausts its retries and aborts.
	params.Set("fault_plan", "seed=7; filem.transfer=p1,times2")
	params.Set("filem_retry_max", "1")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Checkpoint(false); err == nil {
		t.Fatal("checkpoint succeeded with retries exhausted")
	}
	if log.Count("ckpt.aborted") == 0 {
		t.Error("no ckpt.aborted trace event")
	}
	if job.Done() {
		t.Fatal("failed checkpoint killed the job")
	}
	ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: snapshot.GlobalDirName(int(job.JobID()))}
	if debris, err := snapshot.Uncommitted(ref); err == nil && len(debris) > 0 {
		t.Errorf("aborted interval left debris: %v", debris)
	}
	if ivs, _ := snapshot.Intervals(ref); len(ivs) != 0 {
		t.Errorf("aborted interval appears committed: %v", ivs)
	}
	// The fault budget is spent; the next checkpoint commits cleanly.
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatalf("checkpoint after aborted interval: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.VerifyInterval(ckpt.Ref, ckpt.Interval); err != nil {
		t.Errorf("post-abort snapshot fails verification: %v", err)
	}
	ivs, err := snapshot.Intervals(ckpt.Ref)
	if err != nil || len(ivs) != 1 {
		t.Errorf("Intervals = %v, %v; want exactly the committed interval", ivs, err)
	}
}

// TestRestartRefusesDamagedMetadata is failure matrix case (c): restart
// refuses uncommitted and tampered snapshots with typed errors, and
// recovery falls back to the newest interval that still validates.
func TestRestartRefusesDamagedMetadata(t *testing.T) {
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	ref := ckpt.Ref

	// Strip interval 1's COMMITTED marker: an interrupted commit must
	// never be accepted, even when explicitly requested.
	if err := ref.FS.Remove(path.Join(ref.IntervalDir(1), snapshot.CommittedFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restart(ref, 1, factory); !errors.Is(err, snapshot.ErrUncommitted) {
		t.Errorf("Restart of uncommitted interval = %v, want ErrUncommitted", err)
	}
	// Tampered (but well-formed) metadata on interval 0 is caught by the
	// commit digest.
	metaPath := path.Join(ref.IntervalDir(0), snapshot.GlobalMetaFile)
	data, err := ref.FS.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.FS.WriteFile(metaPath, append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Restart(ref, 0, factory); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("Restart of tampered interval = %v, want ErrCorrupt", err)
	}
	// Restore interval 0 and damage stays confined: it validates again
	// and is exactly what primary-only resolution falls back to.
	if err := ref.FS.WriteFile(metaPath, data); err != nil {
		t.Fatal(err)
	}
	iv, _, _, err := (&snapshot.Resolver{Ref: ref}).LatestValid()
	if err != nil || iv != 0 {
		t.Fatalf("LatestValid = %d, %v; want 0", iv, err)
	}
	factory2, apps2 := counterFactory(0)
	job2, err := sys.Restart(ref, iv, factory2)
	if err != nil {
		t.Fatalf("Restart from surviving interval: %v", err)
	}
	if _, err := job2.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if (*apps2)[0].state.Iter == 0 {
		t.Error("restart from the surviving interval did not resume")
	}
}

// TestSeededFaultStormMatchesFaultFree is the acceptance scenario: a
// 16-rank job under a seeded plan injecting >=10% FILEM transfer
// failures plus one mid-run node kill, supervised with periodic
// checkpoints and auto-restart, finishes with the same final state as a
// fault-free run.
func TestSeededFaultStormMatchesFaultFree(t *testing.T) {
	const np, limit = 16, 150
	want := referenceIters(t, 5, 4, np, limit)

	params := mca.NewParams()
	params.Set("fault_plan", "seed=1234; filem.transfer=p0.15; node.kill:node3=after12,once")
	params.Set("filem_retry_max", "6")
	params.Set("orted_heartbeat_interval", "10ms")
	params.Set("orted_heartbeat_miss", "8")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 5, SlotsPerNode: 4, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	factory, apps := slowCounterFactory(limit, 2*time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "storm", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		CheckpointEvery: 5 * time.Millisecond,
		Recovery:        Recovery{AutoRestart: 2},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if !rep.Recovered {
		t.Fatalf("the node kill never forced a recovery (report %+v)", rep)
	}
	if rep.Checkpoints == 0 {
		t.Error("no committed checkpoints under the fault storm")
	}
	inj := sys.Cluster().Faults()
	if inj == nil || inj.Fired("filem.transfer") == 0 {
		t.Error("the seeded plan injected no FILEM failures")
	}
	if inj.Fired("node.kill") != 1 {
		t.Errorf("node.kill fired %d times, want 1", inj.Fired("node.kill"))
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	// No incarnation's reference may hold an interval that is not fully
	// committed and checksummed — the no-debris acceptance criterion.
	for _, id := range sys.JobIDs() {
		ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: snapshot.GlobalDirName(int(id))}
		ivs, err := snapshot.Intervals(ref)
		if err != nil {
			continue // job never committed a snapshot
		}
		for _, iv := range ivs {
			if _, err := snapshot.VerifyInterval(ref, iv); err != nil {
				t.Errorf("job %d interval %d listed as committed but fails verification: %v", id, iv, err)
			}
		}
	}
}
