package apps

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ompi"
)

func TestRegistryLookup(t *testing.T) {
	names := Names()
	for _, want := range []string{"ring", "stencil", "alltoall"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in app %q not registered (have %v)", want, names)
		}
	}
	if _, err := Lookup("nope", nil); err == nil {
		t.Error("Lookup of unknown app succeeded")
	}
	if _, err := Lookup("ring", []string{"-bogusflag"}); err == nil {
		t.Error("Lookup accepted bogus flags")
	}
	var b strings.Builder
	Usage(&b)
	if !strings.Contains(b.String(), "ring") {
		t.Errorf("Usage output missing apps: %q", b.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("ring", "dup", ringFactory)
}

// runApp launches a registered app on a small system and waits.
func runApp(t *testing.T, name string, args []string, np int) *core.Job {
	t.Helper()
	sys, err := core.NewSystem(core.Options{Nodes: 2, SlotsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	factory, err := Lookup(name, args)
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Launch(core.JobSpec{Name: name, Args: args, NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return job
}

func TestRingRuns(t *testing.T) {
	job := runApp(t, "ring", []string{"-iters", "20"}, 4)
	for r := 0; r < 4; r++ {
		a := job.App(r).(*RingApp)
		if a.State.Iter != 20 {
			t.Errorf("rank %d iter = %d", r, a.State.Iter)
		}
	}
}

func TestStencilRuns(t *testing.T) {
	job := runApp(t, "stencil", []string{"-steps", "16", "-cells", "8"}, 4)
	for r := 0; r < 4; r++ {
		a := job.App(r).(*StencilApp)
		if a.State.Iter != 16 || len(a.State.Cell) != 8 {
			t.Errorf("rank %d state = %+v", r, a.State.Iter)
		}
	}
}

// Every step's halo sends are retired: after the run, no rank's PML
// image carries a request, so checkpoint images stay the same size
// however long the stencil runs.
func TestStencilRetiresSendRequests(t *testing.T) {
	job := runApp(t, "stencil", []string{"-steps", "24", "-cells", "8"}, 4)
	for r := 0; r < 4; r++ {
		st, err := job.Proc(r).Engine().SaveState()
		if err != nil {
			t.Fatalf("rank %d SaveState: %v", r, err)
		}
		if n := len(st.Requests); n != 0 {
			t.Errorf("rank %d PML image holds %d requests after 24 steps, want 0", r, n)
		}
	}
}

func TestStencilValidation(t *testing.T) {
	if _, err := Lookup("stencil", []string{"-cells", "1"}); err == nil {
		t.Error("stencil accepted 1 cell")
	}
}

func TestAlltoallSelfVerifies(t *testing.T) {
	job := runApp(t, "alltoall", []string{"-rounds", "10"}, 5)
	for r := 0; r < 5; r++ {
		a := job.App(r).(*AlltoallApp)
		if a.State.Round != 10 {
			t.Errorf("rank %d rounds = %d", r, a.State.Round)
		}
	}
}

// TestAppsSurviveCheckpointRestart runs each built-in app through the
// full checkpoint-terminate-restart cycle.
func TestAppsSurviveCheckpointRestart(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"ring", []string{"-iters", "0"}},
		{"stencil", []string{"-steps", "0", "-cells", "16"}},
		{"alltoall", []string{"-rounds", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(core.Options{Nodes: 2, SlotsPerNode: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			factory, err := Lookup(tc.name, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			job, err := sys.Launch(core.JobSpec{Name: tc.name, Args: tc.args, NP: 4, AppFactory: factory})
			if err != nil {
				t.Fatal(err)
			}
			ckpt, err := job.Checkpoint(true)
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			// Restart via the registry, exactly as ompi-restart does.
			factory2, err := Lookup(ckpt.Meta.AppName, ckpt.Meta.AppArgs)
			if err != nil {
				t.Fatal(err)
			}
			job2, err := sys.RestartLatest(ckpt.Ref, factory2)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if _, err := job2.Checkpoint(true); err != nil {
				t.Fatalf("second checkpoint: %v", err)
			}
			if err := job2.Wait(); err != nil {
				t.Fatalf("restarted wait: %v", err)
			}
		})
	}
}

var _ ompi.App = (*RingApp)(nil)
var _ ompi.App = (*StencilApp)(nil)
var _ ompi.App = (*AlltoallApp)(nil)
