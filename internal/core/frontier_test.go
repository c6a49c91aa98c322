package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/errdef"
	"repro/internal/trace"
)

// launchStencil starts an 8-rank stencil on four nodes. steps 0 runs
// until a terminating checkpoint.
func launchStencil(t *testing.T, ins *trace.Instrumentation, steps string) (*System, *Job) {
	t.Helper()
	sys, err := NewSystem(Options{Nodes: 4, SlotsPerNode: 2, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	factory, err := apps.Lookup("stencil", []string{"-steps", steps, "-cells", "64"})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Launch(JobSpec{Name: "stencil", NP: 8, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	return sys, job
}

// checkpointWhenReady retries a checkpoint the job refuses only because
// its ranks have not started stepping yet.
func checkpointWhenReady(t *testing.T, job *Job, terminate bool) CheckpointResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := job.Checkpoint(terminate)
		if err == nil {
			return res
		}
		if !errors.Is(err, errdef.ErrNotCheckpointable) || time.Now().After(deadline) {
			t.Fatalf("checkpoint: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every committed interval attributes the wait for the step frontier:
// some time passes between a directive's delivery and the rank entering
// participation, and it is part of the interval's total.
func TestFrontierWallIsAttributed(t *testing.T) {
	_, job := launchStencil(t, trace.New(), "0")
	for k := 0; k < 3; k++ {
		pb := checkpointWhenReady(t, job, k == 2).Meta.Phases
		if pb == nil {
			t.Fatal("interval has no phase breakdown")
		}
		if pb.FrontierWallNS <= 0 || pb.FrontierWallNS > pb.TotalNS {
			t.Errorf("checkpoint %d: frontier %d ns, total %d ns; want 0 < frontier <= total", k, pb.FrontierWallNS, pb.TotalNS)
		}
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// The C/R layer runs a frontier agreement only for a requested
// checkpoint: none over a whole run without one, and exactly one per
// checkpoint when K are requested.
func TestFrontierAgreementsCountCheckpoints(t *testing.T) {
	const agreements = "ompi_frontier_agreements_total"
	ins := trace.New()
	_, job := launchStencil(t, ins, "400")
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := ins.Counter(agreements).Value(); got != 0 {
		t.Fatalf("%d agreements over a run with no checkpoint requested, want 0", got)
	}

	const k = 4
	ins = trace.New()
	_, job = launchStencil(t, ins, "0")
	for i := 1; i <= k; i++ {
		checkpointWhenReady(t, job, i == k)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := ins.Counter(agreements).Value(); got != k {
		t.Fatalf("%d agreements for %d checkpoints, want %d", got, k, k)
	}
}
