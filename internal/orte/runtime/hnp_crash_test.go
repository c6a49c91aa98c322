// HNP crash / reattach tests: the coordinator dies at the worst drain
// edges and is rebuilt over the still-running cluster. The invariant
// under test throughout: no COMMITTED interval is ever lost — at most
// the interval in flight at the crash is re-drained (when its sealed
// stages survive) or discarded.
package runtime

import (
	"errors"
	"fmt"
	"path"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/orte/ledger"
	"repro/internal/orte/snapc"
	"repro/internal/vfs"
)

// crashParams builds MCA params with fast heartbeats (so reattach
// handshakes converge quickly) plus the given fault plan.
func crashParams(plan string) *mca.Params {
	p := mca.NewParams()
	p.Set("orted_heartbeat_interval", "2ms")
	p.Set("orted_heartbeat_miss", "4")
	if plan != "" {
		p.Set("fault_plan", plan)
	}
	return p
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stagesSealed reports whether every node hosting ranks of the job has
// sealed its local stage for the interval (LOCAL_COMMITTED marker).
func stagesSealed(c *Cluster, job *Job, interval int) bool {
	base := snapshot.LocalStageBase(int(job.JobID()), interval)
	for _, node := range job.Nodes() {
		fsys, err := c.NodeFS(node)
		if err != nil {
			return false
		}
		if !vfs.Exists(fsys, path.Join(base, snapshot.LocalCommittedFile)) {
			return false
		}
	}
	return true
}

// TestHNPCrashInQuiesceReattachRecoversInterval is the quiesce-window
// story end to end: interval 0 commits normally, the HNP dies inside
// interval 1's quiesce (after the directive fan-out, before any ack),
// the orteds seal their stages autonomously, and the reattached HNP
// rebuilds the orphan journal entry and re-drains it — both intervals
// end up committed on stable storage.
func TestHNPCrashInQuiesceReattachRecoversInterval(t *testing.T) {
	c := fourNodeCluster(t, crashParams("seed=1; hnp.crash:quiesce=after1,once"))
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 8, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("interval 0: %v", err)
	}

	_, err = c.CheckpointJob(job.JobID(), snapc.Options{})
	if err == nil {
		t.Fatal("interval 1 checkpoint succeeded through an injected HNP crash")
	}
	if !errors.Is(err, snapc.ErrHNPCrashed) {
		t.Fatalf("interval 1 error = %v, want ErrHNPCrashed", err)
	}
	if !c.Headless() {
		t.Fatal("cluster is not headless after the quiesce crash")
	}

	// The orteds never heard the crash: they checkpoint and seal their
	// interval-1 stages autonomously.
	waitUntil(t, 2*time.Second, "autonomous stage seal", func() bool {
		return stagesSealed(c, job, 1)
	})

	rep, err := c.Reattach()
	if err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if rep.RebuiltEntries != 1 {
		t.Errorf("RebuiltEntries = %d, want 1", rep.RebuiltEntries)
	}
	if rep.Recovered.Redrained != 1 {
		t.Errorf("Redrained = %d, want 1", rep.Recovered.Redrained)
	}
	if len(rep.DeclaredDead) != 0 {
		t.Errorf("DeclaredDead = %v, want none", rep.DeclaredDead)
	}
	if c.Headless() {
		t.Error("still headless after Reattach")
	}

	// Both intervals are committed on stable storage, and the rebuilt
	// control plane takes fresh checkpoints.
	ref := snapshot.GlobalRef{FS: c.Stable(), Dir: snapshot.GlobalDirName(int(job.JobID()))}
	ivs, err := snapshot.Intervals(ref)
	if err != nil || len(ivs) != 2 {
		t.Fatalf("intervals after reattach = %v (%v), want [0 1]", ivs, err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("post-reattach checkpoint: %v", err)
	}
	if res.Interval != 2 {
		t.Errorf("post-reattach interval = %d, want 2", res.Interval)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestHNPCrashMidDrainLosesAtMostInflight kills the HNP after interval
// 1's journal entry went DRAINING. Committed interval 0 must survive;
// interval 1 is re-drained from its sealed stages at reattach.
func TestHNPCrashMidDrainLosesAtMostInflight(t *testing.T) {
	c := fourNodeCluster(t, crashParams("seed=1; hnp.crash:mid-drain=after1,once"))
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 8, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("interval 0: %v", err)
	}
	p, err := c.CheckpointJobAsync(job.JobID(), snapc.Options{})
	if err != nil {
		t.Fatalf("interval 1 capture: %v", err)
	}
	if _, err := p.Wait(); err == nil {
		t.Fatal("interval 1 drained through an injected mid-drain HNP crash")
	}
	waitUntil(t, 2*time.Second, "headless after mid-drain crash", c.Headless)

	rep, err := c.Reattach()
	if err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if rep.Recovered.Redrained != 1 {
		t.Errorf("Redrained = %d, want 1 (report %+v)", rep.Recovered.Redrained, rep)
	}
	ref := snapshot.GlobalRef{FS: c.Stable(), Dir: snapshot.GlobalDirName(int(job.JobID()))}
	for _, iv := range []int{0, 1} {
		if _, err := snapshot.ReadGlobal(ref, iv); err != nil {
			t.Errorf("interval %d unreadable after reattach: %v", iv, err)
		}
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
		t.Fatalf("post-reattach checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestHeadlessGuardsAndDoubleCrash: while the HNP is down every
// control-plane operation refuses with ErrHNPDown, crashing twice is
// idempotent, and reattaching twice reports there is nothing to do.
func TestHeadlessGuardsAndDoubleCrash(t *testing.T) {
	c := fourNodeCluster(t, crashParams(""))
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	if err := c.CrashHNP(fmt.Errorf("test crash")); err != nil {
		t.Fatalf("CrashHNP: %v", err)
	}
	if err := c.CrashHNP(fmt.Errorf("second crash")); err != nil {
		t.Fatalf("second CrashHNP: %v", err)
	}

	if _, err := c.Launch(JobSpec{Name: "stencil", NP: 2, AppFactory: factory}); !errors.Is(err, snapc.ErrHNPDown) {
		t.Errorf("headless Launch error = %v, want ErrHNPDown", err)
	}
	if _, err := c.CheckpointJobAsync(job.JobID(), snapc.Options{}); !errors.Is(err, snapc.ErrHNPDown) {
		t.Errorf("headless checkpoint error = %v, want ErrHNPDown", err)
	}
	if _, err := c.Restart(res.Ref, res.Interval, factory); !errors.Is(err, snapc.ErrHNPDown) {
		t.Errorf("headless Restart error = %v, want ErrHNPDown", err)
	}
	if err := c.MigrateRank(job.JobID(), 0, "n3"); !errors.Is(err, snapc.ErrHNPDown) {
		t.Errorf("headless MigrateRank error = %v, want ErrHNPDown", err)
	}

	if _, err := c.Reattach(); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if _, err := c.Reattach(); err == nil {
		t.Error("second Reattach did not refuse")
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
		t.Fatalf("post-reattach checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// One crash, one reattach in the durable record — the second calls
	// of each were no-ops.
	st := c.Ledger().State()
	if st.Crashes != 1 || st.Reattaches != 1 {
		t.Errorf("ledger crashes/reattaches = %d/%d, want 1/1", st.Crashes, st.Reattaches)
	}
}

// TestNodeDeathWhileHeadlessIsDeferredToReattach: a node dies while
// nobody is coordinating. The death is parked, the job (with no ranks
// on the dead node) is untouched, and the reattach records and
// processes it.
func TestNodeDeathWhileHeadlessIsDeferredToReattach(t *testing.T) {
	c := fourNodeCluster(t, crashParams(""))
	factory, _ := newStencilFactory(0, 0)
	// NP 2 on a 4-node cluster: round-robin places ranks on n0 and n1
	// only, so n3's death must not abort the job.
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := c.CrashHNP(fmt.Errorf("test crash")); err != nil {
		t.Fatalf("CrashHNP: %v", err)
	}
	if err := c.KillNode("n3"); err != nil {
		t.Fatalf("KillNode while headless: %v", err)
	}
	if c.Alive("n3") {
		t.Error("n3 still alive after headless kill")
	}

	rep, err := c.Reattach()
	if err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if len(rep.DeferredDeaths) != 1 || rep.DeferredDeaths[0] != "n3" {
		t.Errorf("DeferredDeaths = %v, want [n3]", rep.DeferredDeaths)
	}
	if job.Done() {
		t.Fatal("job aborted by a death on a node it does not use")
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
		t.Fatalf("post-reattach checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestLedgerRecordsJobLifecycle replays the durable ledger cold — the
// path `ompi-run --reattach` takes after the whole process died — and
// checks the folded state matches what actually happened.
func TestLedgerRecordsJobLifecycle(t *testing.T) {
	c := fourNodeCluster(t, crashParams(""))
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("interval 0: %v", err)
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
		t.Fatalf("interval 1: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := c.Ledger().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	st, dropped, err := ledger.Replay(c.Stable(), "")
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if dropped != 0 {
		t.Errorf("replay dropped %d records", dropped)
	}
	js, ok := st.Jobs[int(job.JobID())]
	if !ok {
		t.Fatalf("ledger has no job %d: %+v", job.JobID(), st)
	}
	if js.Name != "stencil" || js.NP != 4 || !js.Done {
		t.Errorf("job state = %+v", js)
	}
	if len(js.Placement) != 4 {
		t.Errorf("placement = %v, want 4 ranks", js.Placement)
	}
	if len(js.Committed) != 2 || js.Inflight != -1 {
		t.Errorf("committed = %v inflight = %d, want [0 1] and -1", js.Committed, js.Inflight)
	}
	if len(st.Live()) != 0 {
		t.Errorf("Live() = %v, want none", st.Live())
	}
	if st.Headless {
		t.Error("replayed state is headless; the HNP never crashed")
	}
}

// TestHealthReflectsHeadlessAndLedger: the Cluster.Health view flips
// with the coordinator's state.
func TestHealthReflectsHeadlessAndLedger(t *testing.T) {
	c := fourNodeCluster(t, crashParams(""))
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	h := c.Health()
	if h.Headless || h.Store.Degraded {
		t.Errorf("healthy cluster reports %+v", h)
	}
	if h.LedgerSeq == 0 {
		t.Error("ledger seq is 0 after a launch and a checkpoint")
	}
	if len(h.Nodes) != 4 {
		t.Errorf("health lists %d nodes, want 4", len(h.Nodes))
	}
	// Heartbeats are flowing: every node has been heard recently.
	waitUntil(t, time.Second, "fresh heartbeats in health view", func() bool {
		for _, n := range c.Health().Nodes {
			if n.SinceBeat < 0 {
				return false
			}
		}
		return true
	})

	if err := c.CrashHNP(fmt.Errorf("test crash")); err != nil {
		t.Fatalf("CrashHNP: %v", err)
	}
	if !c.Health().Headless {
		t.Error("health does not report headless after crash")
	}
	if _, err := c.Reattach(); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if c.Health().Headless {
		t.Error("health still headless after reattach")
	}
	if _, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true}); err != nil {
		t.Fatalf("terminate: %v", err)
	}
	_ = job.Wait()
}
