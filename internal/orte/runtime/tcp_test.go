package runtime

import (
	"strings"
	"testing"

	"repro/internal/mca"
	"repro/internal/orte/plm"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
)

// TestCheckpointRestartOverTCPTransport runs the full pipeline with the
// btl=tcp component: real loopback sockets carry every fragment —
// application traffic, rendezvous control, and the bookmark exchange —
// proving the C/R machinery is transport-agnostic (the paper's design
// supported TCP and InfiniBand through the same PML).
func TestCheckpointRestartOverTCPTransport(t *testing.T) {
	params := mca.NewParams()
	params.Set("btl", "tcp")
	c, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2}},
		Params: params,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("checkpoint over tcp: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	factory2, apps2 := newStencilFactory(0, 6)
	job2, err := c.Restart(res.Ref, res.Interval, factory2)
	if err != nil {
		t.Fatalf("restart over tcp: %v", err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, a := range *apps2 {
		if a.state.Iter != a.startIter+6 {
			t.Errorf("app %d iter = %d, want %d", i, a.state.Iter, a.startIter+6)
		}
	}
}

// TestBadTransportRejected verifies MCA selection errors surface.
func TestBadTransportRejected(t *testing.T) {
	params := mca.NewParams()
	params.Set("btl", "infiniband")
	c, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "n0", Slots: 4}},
		Params: params,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err) // cluster creation succeeds; selection happens at launch
	}
	defer c.Close()
	factory, _ := newStencilFactory(1, 0)
	if _, err := c.Launch(JobSpec{Name: "s", NP: 2, AppFactory: factory}); err == nil {
		t.Error("Launch with unknown BTL succeeded")
	}
}

// TestRemovedSnapcComponentRefused checks that the SNAPC framework has
// one component: asking for the former tree component fails at cluster
// boot, naming the framework and the component it does have.
func TestRemovedSnapcComponentRefused(t *testing.T) {
	params := mca.NewParams()
	params.Set("snapc", "tree")
	c, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "n0", Slots: 2}},
		Params: params,
		Ins:    trace.New(),
	})
	if err == nil {
		c.Close()
		t.Fatal("New with snapc=tree succeeded")
	}
	for _, want := range []string{`"snapc"`, `no component "tree"`, "full"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %s", err, want)
		}
	}
}

// TestTreeCoordinatorEndToEnd runs the full launch → checkpoint →
// terminate → restart pipeline through the SNAPC daemon tree on four
// nodes, every one a leaf child of the HNP.
func TestTreeCoordinatorEndToEnd(t *testing.T) {
	c, err := New(Config{
		Nodes: []plm.NodeSpec{
			{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2},
			{Name: "n2", Slots: 2}, {Name: "n3", Slots: 2},
		},
		Params: mca.NewParams(),
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 8, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("tree checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	factory2, apps2 := newStencilFactory(0, 4)
	job2, err := c.Restart(res.Ref, res.Interval, factory2)
	if err != nil {
		t.Fatalf("restart from tree snapshot: %v", err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, a := range *apps2 {
		if a.state.Iter != a.startIter+4 {
			t.Errorf("app %d iter = %d", i, a.state.Iter)
		}
	}
}
