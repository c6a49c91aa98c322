// Degraded-mode tests: stable storage suffers a transient outage while
// checkpoints keep coming. The contract under test: captures never
// fail — intervals are parked node-local (with stage replicas) and
// tickets resolve with ErrStoreDegraded — and the catch-up pass
// reconciles everything, in capture order, once the store returns.
package snapc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/orte/filem"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// outageFS gates every operation on a switch: while out, all calls fail
// with an ErrOutage-class error and the underlying store is untouched —
// the deterministic version of the "fs.outage:stable" fault class.
type outageFS struct {
	inner vfs.FS
	mu    sync.Mutex
	out   bool
}

func (o *outageFS) setOut(v bool) {
	o.mu.Lock()
	o.out = v
	o.mu.Unlock()
}

func (o *outageFS) check(op string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.out {
		return fmt.Errorf("outageFS: %s: %w", op, faultsim.ErrOutage)
	}
	return nil
}

func (o *outageFS) WriteFile(name string, data []byte) error {
	if err := o.check("write"); err != nil {
		return err
	}
	return o.inner.WriteFile(name, data)
}
func (o *outageFS) Append(name string, data []byte) error {
	if err := o.check("append"); err != nil {
		return err
	}
	return o.inner.Append(name, data)
}
func (o *outageFS) ReadFile(name string) ([]byte, error) {
	if err := o.check("read"); err != nil {
		return nil, err
	}
	return o.inner.ReadFile(name)
}
func (o *outageFS) Remove(name string) error {
	if err := o.check("remove"); err != nil {
		return err
	}
	return o.inner.Remove(name)
}
func (o *outageFS) Rename(oldName, newName string) error {
	if err := o.check("rename"); err != nil {
		return err
	}
	return o.inner.Rename(oldName, newName)
}
func (o *outageFS) MkdirAll(name string) error {
	if err := o.check("mkdir"); err != nil {
		return err
	}
	return o.inner.MkdirAll(name)
}
func (o *outageFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	if err := o.check("readdir"); err != nil {
		return nil, err
	}
	return o.inner.ReadDir(name)
}
func (o *outageFS) Stat(name string) (vfs.FileInfo, error) {
	if err := o.check("stat"); err != nil {
		return vfs.FileInfo{}, err
	}
	return o.inner.Stat(name)
}

// gateStable interposes the outage gate on every path to stable
// storage: the drain engine's direct handle and the FILEM resolve. It
// also gives the env a real metrics registry and a node list (the base
// harness has neither), so degraded-mode gauges and stage replicas work.
func gateStable(h *harness) *outageFS {
	gate := &outageFS{inner: h.stable}
	h.env.Stable = gate
	orig := h.env.FilemEnv.Resolve
	h.env.FilemEnv.Resolve = func(node string) (vfs.FS, error) {
		if node == filem.StableNode {
			return gate, nil
		}
		return orig(node)
	}
	h.env.Ins = trace.New()
	h.env.Nodes = h.job.Nodes
	return gate
}

func TestStoreOutageDegradesParksAndCatchesUp(t *testing.T) {
	h := newHarness(t, 4)
	gate := gateStable(h)
	d := NewDrainer(h.env, drainParams(
		"snapc_store_outage_threshold", "1",
		"snapc_store_retry_backoff", "2ms",
		"snapc_store_retry_max", "10ms",
		"snapc_stage_replicas", "1",
	), nil)
	defer d.Close()

	// Interval 0 commits normally while the store is up.
	p0, err := d.Enqueue(captureInterval(t, h, 0))
	if err != nil {
		t.Fatalf("Enqueue 0: %v", err)
	}
	if _, err := p0.Wait(); err != nil {
		t.Fatalf("interval 0: %v", err)
	}

	// The store goes out. Checkpoints keep succeeding at the
	// local-stage level: captures seal, Enqueue buffers the journal
	// record, and the tickets resolve with ErrStoreDegraded.
	gate.setOut(true)
	p1, err := d.Enqueue(captureInterval(t, h, 1))
	if err != nil {
		t.Fatalf("Enqueue 1 during outage: %v", err)
	}
	if _, err := p1.Wait(); !errors.Is(err, ErrStoreDegraded) {
		t.Fatalf("interval 1 error = %v, want ErrStoreDegraded", err)
	}
	p2, err := d.Enqueue(captureInterval(t, h, 2))
	if err != nil {
		t.Fatalf("Enqueue 2 during outage: %v", err)
	}
	if _, err := p2.Wait(); !errors.Is(err, ErrStoreDegraded) {
		t.Fatalf("interval 2 error = %v, want ErrStoreDegraded", err)
	}

	hs := d.Health()
	if !hs.Degraded || hs.Parked != 2 || hs.JournalBacklog < 1 {
		t.Fatalf("health during outage = %+v, want degraded with 2 parked and a journal backlog", hs)
	}
	if got := h.env.Ins.Gauge("ompi_store_degraded").Value(); got != 1 {
		t.Errorf("ompi_store_degraded = %v, want 1", got)
	}
	// Each parked interval's stages were replicated to a second node, so
	// a parked interval survives one node loss while the store is out.
	foundReplica := false
	for _, fsys := range h.job.nodeFS {
		for _, origin := range h.job.Nodes() {
			if vfs.Exists(fsys, snapshot.StageReplicaBase(int(h.job.JobID()), 1, origin)) {
				foundReplica = true
			}
		}
	}
	if !foundReplica {
		t.Error("no stage replica found for parked interval 1")
	}

	// The store returns: catch-up flushes the journal backlog and
	// re-drains the parked intervals in capture order.
	gate.setOut(false)
	if err := d.AwaitCatchup(5 * time.Second); err != nil {
		t.Fatalf("AwaitCatchup: %v", err)
	}
	for iv := 0; iv <= 2; iv++ {
		if _, err := snapshot.VerifyInterval(globalRef(h), iv); err != nil {
			t.Errorf("interval %d after catch-up: %v", iv, err)
		}
		if st := journalState(t, h, iv); st != snapshot.StateCommitted {
			t.Errorf("interval %d journal state = %s, want COMMITTED", iv, st)
		}
	}
	hs = d.Health()
	if hs.Degraded || hs.Parked != 0 || hs.JournalBacklog != 0 {
		t.Errorf("health after catch-up = %+v, want clean", hs)
	}
	// The reconciled intervals' stage replicas were swept.
	for _, fsys := range h.job.nodeFS {
		for _, origin := range h.job.Nodes() {
			for iv := 1; iv <= 2; iv++ {
				if vfs.Exists(fsys, snapshot.StageReplicaBase(int(h.job.JobID()), iv, origin)) {
					t.Errorf("stage replica of interval %d origin %s survived catch-up", iv, origin)
				}
			}
		}
	}
	if got := h.env.Ins.Counter("ompi_snapc_intervals_parked_total").Value(); got != 2 {
		t.Errorf("intervals parked = %d, want 2", got)
	}
	if got := h.env.Ins.Counter("ompi_snapc_catchup_drains_total").Value(); got != 2 {
		t.Errorf("catch-up drains = %d, want 2", got)
	}
}

// TestHNPCrashDuringOutagePreservesParkedWork: the coordinator dies
// while the store is out with an interval parked. The drain engine
// stops, but the parked stages and their replicas stay sealed on the
// nodes — exactly what a reattach rebuilds from.
func TestHNPCrashDuringOutagePreservesParkedWork(t *testing.T) {
	h := newHarness(t, 4)
	gate := gateStable(h)
	d := NewDrainer(h.env, drainParams(
		"snapc_store_outage_threshold", "1",
		"snapc_store_retry_backoff", "2ms",
		"snapc_stage_replicas", "1",
	), nil)
	defer d.Close()

	gate.setOut(true)
	p, err := d.Enqueue(captureInterval(t, h, 0))
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if _, err := p.Wait(); !errors.Is(err, ErrStoreDegraded) {
		t.Fatalf("ticket error = %v, want ErrStoreDegraded", err)
	}

	d.Crash(fmt.Errorf("test crash"))
	if _, err := d.Enqueue(captureInterval(t, h, 1)); !errors.Is(err, ErrHNPDown) {
		t.Fatalf("post-crash Enqueue error = %v, want ErrHNPDown", err)
	}
	// The parked interval's sealed stage survived the crash on every
	// node that captured it.
	base := snapshot.LocalStageBase(int(h.job.JobID()), 0)
	for node, fsys := range h.job.nodeFS {
		if !vfs.Exists(fsys, base) {
			t.Errorf("node %s lost its parked stage in the crash", node)
		}
	}
	if got := d.Health().Parked; got != 1 {
		t.Errorf("parked after crash = %d, want 1", got)
	}
}

// The store goes out between a capture's journal record and its drain.
// The journal must read as unreachable, not as empty: the drain then
// parks the interval as a degraded success instead of failing it with
// "no entry" and orphaning its sealed stages.
func TestOutageBetweenRecordAndDrainParks(t *testing.T) {
	h := newHarness(t, 4)
	gate := gateStable(h)
	var lock sync.Mutex
	d := NewDrainer(h.env, drainParams(
		"snapc_store_outage_threshold", "1",
		"snapc_store_retry_backoff", "2ms",
		"snapc_store_retry_max", "10ms",
	), &lock)
	defer d.Close()

	// Hold the drain back until the store is out; the record lands first.
	lock.Lock()
	p, err := d.Enqueue(captureInterval(t, h, 1))
	if err != nil {
		lock.Unlock()
		t.Fatalf("Enqueue: %v", err)
	}
	gate.setOut(true)
	lock.Unlock()
	if _, err := p.Wait(); !errors.Is(err, ErrStoreDegraded) {
		t.Fatalf("ticket error = %v, want ErrStoreDegraded", err)
	}
	if got := d.Health().Parked; got != 1 {
		t.Fatalf("parked = %d, want 1", got)
	}

	gate.setOut(false)
	if err := d.AwaitCatchup(5 * time.Second); err != nil {
		t.Fatalf("AwaitCatchup: %v", err)
	}
	if st := journalState(t, h, 1); st != snapshot.StateCommitted {
		t.Errorf("interval 1 journal state = %s, want COMMITTED", st)
	}
}

// An interval parks in an outage too short to mark the store DEGRADED;
// once the store is back the next interval commits first. Its record
// must reach the journal behind the older buffered one, and its commit
// supersedes the parked interval under the one retention rule: journal
// DISCARDED, stages and stage replicas swept, counted superseded — not
// re-drained behind a newer commit by the catch-up pass.
func TestCommitSupersedesOlderParkedInterval(t *testing.T) {
	h := newHarness(t, 4)
	gate := gateStable(h)
	d := NewDrainer(h.env, drainParams(
		"snapc_store_outage_threshold", "5",
		// The catch-up pass sleeps through the whole test; Close wakes it.
		"snapc_store_retry_backoff", "1m",
		"snapc_store_retry_max", "1m",
		"snapc_stage_replicas", "1",
	), nil)
	defer d.Close()

	gate.setOut(true)
	p1, err := d.Enqueue(captureInterval(t, h, 1))
	if err != nil {
		t.Fatalf("Enqueue 1: %v", err)
	}
	if _, err := p1.Wait(); !errors.Is(err, ErrStoreDegraded) {
		t.Fatalf("interval 1 error = %v, want ErrStoreDegraded", err)
	}
	if hs := d.Health(); hs.Degraded || hs.Parked != 1 {
		t.Fatalf("health during outage = %+v, want 1 parked, not degraded", hs)
	}

	gate.setOut(false)
	p2, err := d.Enqueue(captureInterval(t, h, 2))
	if err != nil {
		t.Fatalf("Enqueue 2: %v", err)
	}
	if _, err := p2.Wait(); err != nil {
		t.Fatalf("interval 2: %v", err)
	}
	if st := journalState(t, h, 2); st != snapshot.StateCommitted {
		t.Fatalf("interval 2 journal state = %s, want COMMITTED", st)
	}
	if e := journalEntryAt(t, h, 1); e.State != snapshot.StateDiscarded ||
		!strings.Contains(e.Cause, "superseded by stable commit of interval 2") {
		t.Fatalf("interval 1 = state %s cause %q, want DISCARDED as superseded", e.State, e.Cause)
	}
	for node, fsys := range h.job.nodeFS {
		if vfs.Exists(fsys, snapshot.LocalStageBase(int(h.job.JobID()), 1)) {
			t.Errorf("node %s kept the superseded interval's stage", node)
		}
		for _, origin := range h.job.Nodes() {
			if vfs.Exists(fsys, snapshot.StageReplicaBase(int(h.job.JobID()), 1, origin)) {
				t.Errorf("node %s kept origin %s's stage replica of the superseded interval", node, origin)
			}
		}
	}
	if hs := d.Health(); hs.Parked != 0 || hs.JournalBacklog != 0 {
		t.Errorf("health after commit = %+v, want nothing parked or backlogged", hs)
	}
	if got := h.env.Ins.Counter("ompi_ckpt_superseded_total").Value(); got != 1 {
		t.Errorf("ompi_ckpt_superseded_total = %d, want 1", got)
	}
	if got := h.env.Ins.Counter("ompi_snapc_catchup_drains_total").Value(); got != 0 {
		t.Errorf("ompi_snapc_catchup_drains_total = %d, want 0", got)
	}
	if n := h.env.Ins.Log.Count("drain.catchup-failed"); n != 0 {
		t.Errorf("%d drain.catchup-failed events, want none", n)
	}
}

// drainerFrames returns the goroutine stacks of every process goroutine
// running a drain worker or a catch-up pass.
func drainerFrames() []string {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "(*Drainer).worker(") || strings.Contains(g, "(*Drainer).catchup(") {
			out = append(out, g)
		}
	}
	return out
}

// awaitFrames polls drainerFrames until ok accepts them.
func awaitFrames(t *testing.T, what string, ok func(frames []string) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for frames := drainerFrames(); !ok(frames); frames = drainerFrames() {
		if time.Now().After(deadline) {
			t.Fatalf("%s:\n%s", what, strings.Join(frames, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// Neither Close alone nor Crash then Close leaves a drain worker or a
// catch-up pass behind, even while the catch-up pass is backing off
// through a store outage.
func TestDrainerStopLeavesNoGoroutines(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(map[bool]string{false: "close", true: "crash-then-close"}[crash], func(t *testing.T) {
			h := newHarness(t, 4)
			gate := gateStable(h)
			d := NewDrainer(h.env, drainParams(
				"snapc_drain_workers", "2",
				"snapc_store_outage_threshold", "1",
				"snapc_store_retry_backoff", "1ms",
				"snapc_store_retry_max", "2ms",
			), nil)
			defer d.Close()
			gate.setOut(true)
			p, err := d.Enqueue(captureInterval(t, h, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Wait(); !errors.Is(err, ErrStoreDegraded) {
				t.Fatalf("ticket error = %v, want ErrStoreDegraded", err)
			}
			awaitFrames(t, "no catch-up pass runs through the outage", func(frames []string) bool {
				return slices.ContainsFunc(frames, func(g string) bool { return strings.Contains(g, "(*Drainer).catchup(") })
			})
			if crash {
				d.Crash(errors.New("test crash"))
			}
			d.Close()
			awaitFrames(t, "drain goroutines left after stopping", func(frames []string) bool { return len(frames) == 0 })
		})
	}
}

// A CAPTURED record whose journal write fails outright (no outage) is
// kept by the journal, so Enqueue goes on and the interval drains: it
// never sits CAPTURED behind a newer commit as an undrained L1 hold.
func TestFailedRecordWriteStillDrains(t *testing.T) {
	h := newHarness(t, 4)
	h.env.Ins = trace.New()
	inj := faultsim.New(1)
	h.env.Stable = faultsim.WrapFS(h.stable, inj, "stable")
	d := NewDrainer(h.env, drainParams(), nil)
	defer d.Close()

	commit := func(iv int) {
		t.Helper()
		p, err := d.Enqueue(captureInterval(t, h, iv))
		if err != nil {
			t.Fatalf("Enqueue %d: %v", iv, err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
	}
	commit(0)
	cpt := captureInterval(t, h, 1)
	inj.AddRule(faultsim.Rule{Point: "vfs.write:stable", Times: 1})
	p, err := d.Enqueue(cpt)
	if err != nil {
		t.Fatalf("Enqueue 1 under a failed journal write: %v", err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatalf("interval 1: %v", err)
	}
	if n := inj.Fired("vfs.write:stable"); n != 1 {
		t.Fatalf("the journal write fault fired %d times, want 1", n)
	}
	if n := h.env.Ins.Counter("ompi_snapc_journal_backlogged_total").Value(); n != 1 {
		t.Fatalf("%d CAPTURED records kept unlanded, want 1", n)
	}
	commit(2)
	entries, err := snapshot.OpenJournal(globalRef(h)).Load()
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, e := range entries {
		states = append(states, fmt.Sprintf("%d %s", e.Interval, e.State))
		if e.State != snapshot.StateCommitted {
			t.Errorf("interval %d is %s, want COMMITTED", e.Interval, e.State)
		}
	}
	if len(entries) != 3 {
		t.Errorf("journal holds %v, want intervals 0, 1 and 2", states)
	}
}
