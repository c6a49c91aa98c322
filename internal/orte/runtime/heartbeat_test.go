package runtime

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/orte/ledger"
	"repro/internal/orte/plm"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// TestHeartbeatToleratesTransientSendFailures is the regression test for
// the orted self-kill bug: a transient RML send error in the beacon
// used to terminate it immediately, so the HNP's detector declared a
// perfectly healthy node dead. With the miss budget in place,
// a flaky endpoint that fails a bounded burst of sends must leave every
// node alive and the job unharmed.
func TestHeartbeatToleratesTransientSendFailures(t *testing.T) {
	// Fail 6 heartbeat sends after the first 4 succeed. The budget is 10
	// consecutive misses per node, so even if one unlucky orted absorbs
	// the whole burst it stays under its budget.
	inj := faultsim.New(7, faultsim.Rule{Point: "rml.send", After: 4, Times: 6})
	params := mca.NewParams()
	params.Set("orted_heartbeat_interval", "4ms")
	params.Set("orted_heartbeat_miss", "10")
	c, err := New(Config{
		Nodes: []plm.NodeSpec{
			{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2},
			{Name: "n2", Slots: 2}, {Name: "n3", Slots: 2},
		},
		Params: params,
		Ins:    trace.New(),
		Faults: inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	// Let the beacons run until the whole fault burst has been absorbed.
	deadline := time.Now().Add(5 * time.Second)
	for inj.Fired("rml.send") < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("fault rule never exhausted: fired %d/6", inj.Fired("rml.send"))
		}
		time.Sleep(time.Millisecond)
	}
	// Give the orteds time to resume clean beacons past the detector's
	// cutoff window, then verify nobody was declared dead.
	time.Sleep(60 * time.Millisecond)
	for _, n := range c.Nodes() {
		if !c.Alive(n) {
			t.Fatalf("node %q declared dead despite transient-only send failures", n)
		}
	}
	// The miss/backoff path must actually have been exercised, or the
	// test proves nothing.
	misses := 0
	for _, ev := range c.Log().Events() {
		if ev.Kind == "heartbeat.miss" {
			misses++
		}
	}
	if misses == 0 {
		t.Fatalf("fault rule never fired: no heartbeat.miss events recorded")
	}

	// The cluster must still be fully serviceable: a job launched after
	// the burst runs to completion on all four nodes.
	factory, _ := newStencilFactory(16, 0)
	j, err := c.Launch(JobSpec{Name: "hb-flaky", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job failed after transient heartbeat faults: %v", err)
	}
}

// TestBatchedHeartbeatPump checks the coalesced beacon path on a small
// cluster end to end: the detector sees every node alive, an injected
// node kill still fires through the pump and is declared, and a job
// launched afterwards completes.
func TestBatchedHeartbeatPump(t *testing.T) {
	inj := faultsim.New(3, faultsim.Rule{Point: "node.kill:n2", After: 3, Times: 1})
	params := mca.NewParams()
	params.Set("orted_heartbeat_interval", "4ms")
	params.Set("orted_heartbeat_miss", "10")
	c, err := New(Config{
		Nodes: []plm.NodeSpec{
			{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2},
			{Name: "n2", Slots: 2}, {Name: "n3", Slots: 2},
		},
		Params: params,
		Ins:    trace.New(),
		Faults: inj,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	// The injected kill fires on the pump's third pass over n2.
	waitForEvent(t, c.Log(), "node.kill", time.Second)
	deadline := time.Now().Add(time.Second)
	for c.Alive("n2") {
		if time.Now().After(deadline) {
			t.Fatalf("pump-injected kill never took n2 down")
		}
		time.Sleep(time.Millisecond)
	}

	// Survivors keep beating through the shared message: nobody else may
	// be declared dead, and the health view must show fresh beats.
	time.Sleep(60 * time.Millisecond)
	for _, n := range []string{"n0", "n1", "n3"} {
		if !c.Alive(n) {
			t.Fatalf("node %q declared dead under batched heartbeats", n)
		}
	}
	h := c.Health()
	for _, nh := range h.Nodes {
		if nh.Node != "n2" && (nh.SinceBeat < 0 || nh.SinceBeat > 500*time.Millisecond) {
			t.Fatalf("node %q has stale batched beat: %v", nh.Node, nh.SinceBeat)
		}
	}

	// The shrunken cluster is still serviceable in batch mode.
	factory, _ := newStencilFactory(16, 0)
	j, err := c.Launch(JobSpec{Name: "hb-batch", NP: 3, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job failed under batched heartbeats: %v", err)
	}
}

// TestDetectorRule drives the failure detector's rule with synthetic
// times, so none of its verdicts depend on host load.
func TestDetectorRule(t *testing.T) {
	const interval, miss = 10 * time.Millisecond, 4
	cutoff := time.Duration(miss) * interval
	all := []string{"n0", "n1", "n2"}
	t0 := time.Unix(1000, 0)

	// No batch for 10× the cutoff: a descheduled pump, nobody lost.
	d := newDetector(all, miss, interval, 0, t0)
	d.beat(all, t0)
	if got := d.lost(); len(got) != 0 {
		t.Fatalf("lost after the first batch = %v", got)
	}
	d.beat(all, t0.Add(10*cutoff))
	if got := d.lost(); len(got) != 0 {
		t.Fatalf("lost after a 10x-cutoff gap with every node in the batch = %v", got)
	}

	// n1 missing from fresh batches: declared once it has been absent
	// for more than miss intervals, and only once.
	d = newDetector(all, miss, interval, 0, t0)
	d.beat(all, t0)
	var declared []string
	for i := 1; i <= 2*miss; i++ {
		d.beat([]string{"n0", "n2"}, t0.Add(time.Duration(i)*interval))
		got := d.lost()
		if i <= miss && len(got) != 0 {
			t.Fatalf("batch %d (absent %v <= cutoff): lost = %v", i, time.Duration(i)*interval, got)
		}
		declared = append(declared, got...)
	}
	if len(declared) != 1 || declared[0] != "n1" {
		t.Fatalf("declared = %v, want [n1] exactly once", declared)
	}

	// A node not yet heard from is not declared inside grace, only
	// once it stays silent for miss intervals past it.
	grace := 10 * cutoff
	d = newDetector(all, miss, interval, grace, t0)
	for at := t0; at.Before(t0.Add(grace + cutoff)); at = at.Add(interval) {
		d.beat([]string{"n0", "n1"}, at)
		if got := d.lost(); len(got) != 0 {
			t.Fatalf("batch at +%v (grace %v): lost = %v", at.Sub(t0), grace, got)
		}
	}
	d.beat([]string{"n0", "n1"}, t0.Add(grace+cutoff+interval))
	if got := d.lost(); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("past grace+cutoff: lost = %v, want [n2]", got)
	}
}

// writeGateFS fails every write with an outage-class error while out.
type writeGateFS struct {
	vfs.FS
	out atomic.Bool
}

func (g *writeGateFS) gate(op, name string) error {
	if g.out.Load() {
		return fmt.Errorf("%s %q: %w", op, name, faultsim.ErrOutage)
	}
	return nil
}

func (g *writeGateFS) WriteFile(name string, data []byte) error {
	if err := g.gate("write", name); err != nil {
		return err
	}
	return g.FS.WriteFile(name, data)
}

func (g *writeGateFS) Append(name string, data []byte) error {
	if err := g.gate("append", name); err != nil {
		return err
	}
	return g.FS.Append(name, data)
}

func (g *writeGateFS) Rename(oldName, newName string) error {
	if err := g.gate("rename", oldName); err != nil {
		return err
	}
	return g.FS.Rename(oldName, newName)
}

// A ledger record that an outage kept unlanded lands on a heartbeat
// tick once the store is back, with no further append: a quiet HNP
// must not leave it to be lost in a crash.
func TestHeartbeatFlushesLedgerAfterOutage(t *testing.T) {
	stable := &writeGateFS{FS: vfs.NewMem()}
	p := mca.NewParams()
	p.Set("orted_heartbeat_interval", "2ms")
	c, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "n0", Slots: 1}, {Name: "n1", Slots: 1}},
		Stable: stable,
		Params: p,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stable.out.Store(true)
	c.ledgerAppend(ledger.TypeNodeDead, 7, ledger.NodeDead{Node: "n1"})
	// The append failed once; a second failure is a tick's flush.
	waitUntil(t, 5*time.Second, "a heartbeat flush in the outage", func() bool { return c.Ledger().FlushErrors() > 1 })
	if lag := c.Ledger().Lag(); lag != 1 {
		t.Fatalf("ledger lag during the outage = %d, want 1", lag)
	}
	stable.out.Store(false)
	waitUntil(t, 5*time.Second, "the ledger lag to reach 0", func() bool { return c.Ledger().Lag() == 0 })
	st, _, err := ledger.Replay(stable, "")
	if err != nil {
		t.Fatal(err)
	}
	if js := st.Jobs[7]; js == nil || !slices.Contains(js.DeadNodes, "n1") {
		t.Fatalf("replayed ledger misses the outage record: %+v", js)
	}
}
