package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/orte/runtime"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// journalFor opens the drain journal of a job's snapshot lineage.
func journalFor(sys *System, jobID int) *snapshot.Journal {
	return snapshot.OpenJournal(snapshot.GlobalRef{
		FS: sys.Cluster().Stable(), Dir: snapshot.GlobalDirName(jobID),
	})
}

// assertNoStageDebris fails if any alive node still holds a node-local
// checkpoint stage for the job.
func assertNoStageDebris(t *testing.T, sys *System, jobID int) {
	t.Helper()
	for _, node := range sys.Cluster().AliveNodes() {
		nodeFS, err := sys.Cluster().NodeFS(node)
		if err != nil {
			t.Fatalf("NodeFS(%s): %v", node, err)
		}
		// The interval stages live under tmp/ckpt/job<id>/<interval>; an
		// empty parent directory is not debris, leftover bytes are.
		dir := fmt.Sprintf("tmp/ckpt/job%d", jobID)
		if !vfs.Exists(nodeFS, dir) {
			continue
		}
		if n, err := vfs.TreeSize(nodeFS, dir); err != nil || n != 0 {
			t.Errorf("node %s still holds stage debris under %s (%d bytes, err %v)", node, dir, n, err)
		}
	}
}

// TestCheckpointAsyncLifecycle covers the facade contract of the async
// engine: CheckpointAsync returns at capture end, Wait yields the same
// committed result a synchronous Checkpoint would, the drain journal
// tracks every interval to COMMITTED, and the drain leaves no node-local
// debris.
func TestCheckpointAsyncLifecycle(t *testing.T) {
	ins := trace.New()
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "counter", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	p0, err := job.CheckpointAsync(false)
	if err != nil {
		t.Fatalf("CheckpointAsync: %v", err)
	}
	if p0.Interval() != 0 {
		t.Errorf("first async interval = %d", p0.Interval())
	}
	p1, err := job.CheckpointAsync(false)
	if err != nil {
		t.Fatal(err)
	}
	// Terminate rides the drain of the final interval, like the sync
	// checkpoint-and-terminate path.
	p2, err := job.CheckpointAsync(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*PendingCheckpoint{p0, p1, p2} {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("interval %d: %v", p.Interval(), err)
		}
		if res.Interval != p.Interval() || res.Dir == "" {
			t.Fatalf("interval %d result = %+v", p.Interval(), res)
		}
		if res.Meta.Phases == nil || res.Meta.Phases.DrainNS <= 0 {
			t.Errorf("interval %d phases missing drain time: %+v", res.Interval, res.Meta.Phases)
		}
		if !p.Done() {
			t.Errorf("interval %d Done() = false after Wait", p.Interval())
		}
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("job after checkpoint-and-terminate: %v", err)
	}
	ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: snapshot.GlobalDirName(int(job.JobID()))}
	for iv := 0; iv <= 2; iv++ {
		if _, err := snapshot.VerifyInterval(ref, iv); err != nil {
			t.Errorf("VerifyInterval(%d): %v", iv, err)
		}
	}
	best, ok, err := journalFor(sys, int(job.JobID())).HighestCommitted()
	if err != nil || !ok || best != 2 {
		t.Errorf("HighestCommitted = %d, %v, %v", best, ok, err)
	}
	// Every interval carried both lifecycle spans.
	if n := len(ins.Spans.ByName("snapc.capture")); n < 3 {
		t.Errorf("snapc.capture spans = %d, want >= 3", n)
	}
	if n := len(ins.Spans.ByName("snapc.drain")); n < 3 {
		t.Errorf("snapc.drain spans = %d, want >= 3", n)
	}
	if got := ins.Gauge("ompi_snapc_drain_queue_depth").Value(); got != 0 {
		t.Errorf("drain queue depth at rest = %v", got)
	}
	assertNoStageDebris(t, sys, int(job.JobID()))
}

// TestControlAsyncStatesAndAbortCause pins the control-plane contract
// the ompi-checkpoint tool depends on: async-without-wait replies
// "queued" at capture end, async-with-wait and sync reply "committed",
// and an aborted interval — sync or async-with-wait — replies OK=false
// with a non-empty cause (the regression: the tool must exit non-zero
// and print why, never a bogus snapshot reference).
func TestControlAsyncStatesAndAbortCause(t *testing.T) {
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
	ctl, err := sys.Cluster().ServeControl("", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	resp, err := runtime.ControlDial(ctl.Addr(), runtime.ControlRequest{Op: "checkpoint", Async: true})
	if err != nil || !resp.OK {
		t.Fatalf("async checkpoint: %+v, %v", resp, err)
	}
	if resp.State != "queued" || resp.GlobalRef != "" {
		t.Errorf("async-no-wait reply = %+v, want queued with no ref", resp)
	}
	resp, err = runtime.ControlDial(ctl.Addr(), runtime.ControlRequest{Op: "checkpoint", Async: true, Wait: true})
	if err != nil || !resp.OK {
		t.Fatalf("async+wait checkpoint: %+v, %v", resp, err)
	}
	if resp.State != "committed" || resp.GlobalRef == "" {
		t.Errorf("async+wait reply = %+v", resp)
	}
	resp, err = runtime.ControlDial(ctl.Addr(), runtime.ControlRequest{Op: "checkpoint", Terminate: true})
	if err != nil || !resp.OK || resp.State != "committed" {
		t.Fatalf("sync checkpoint: %+v, %v", resp, err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	// The abort half: every gather transfer fails (no retries), so the
	// drain aborts the interval whichever way the tool asked for it.
	params := mca.NewParams()
	params.Set("fault_plan", "seed=9; filem.transfer=p1.0")
	sys2, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Params: params, Ins: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	factory2, _ := counterFactory(0)
	job2, err := sys2.Launch(JobSpec{Name: "counter", NP: 4, AppFactory: factory2})
	if err != nil {
		t.Fatal(err)
	}
	ctl2, err := sys2.Cluster().ServeControl("", false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl2.Close()

	resp, err = runtime.ControlDial(ctl2.Addr(), runtime.ControlRequest{Op: "checkpoint"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err == "" {
		t.Errorf("sync abort reply = %+v, want OK=false with a cause", resp)
	}
	if resp.GlobalRef != "" {
		t.Errorf("aborted sync checkpoint leaked a snapshot reference: %+v", resp)
	}
	resp, err = runtime.ControlDial(ctl2.Addr(), runtime.ControlRequest{Op: "checkpoint", Async: true, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err == "" {
		t.Errorf("async+wait abort reply = %+v, want OK=false with a cause", resp)
	}
	if resp.Interval == 0 || resp.GlobalRef != "" {
		t.Errorf("async+wait abort reply = %+v, want the aborted interval number and no ref", resp)
	}
	// Async-without-wait still reports the capture success; the drain
	// failure lands in the journal as DISCARDED with the cause.
	resp, err = runtime.ControlDial(ctl2.Addr(), runtime.ControlRequest{Op: "checkpoint", Async: true})
	if err != nil || !resp.OK || resp.State != "queued" {
		t.Fatalf("async-no-wait under failing gathers: %+v, %v", resp, err)
	}
	sys2.FlushDrains()
	e, ok, err := journalFor(sys2, int(job2.JobID())).Entry(resp.Interval)
	if err != nil || !ok {
		t.Fatalf("journal entry %d: ok=%v err=%v", resp.Interval, ok, err)
	}
	if e.State != snapshot.StateDiscarded || e.Cause == "" {
		t.Errorf("background abort journal entry = %+v", e)
	}
}

// TestAsyncCrashRecoveryAndFastPathRestart drives the full crash story
// at the system level: a drain crash (injected at the pre-drain edge)
// leaves the interval captured-but-undrained; RecoverDrains re-drains it
// from the surviving nodes' sealed local stages; and the subsequent
// restart takes the local-stage fast path — every rank restores straight
// from its own node instead of re-fetching from stable storage.
func TestAsyncCrashRecoveryAndFastPathRestart(t *testing.T) {
	const np = 4
	params := mca.NewParams()
	params.Set("fault_plan", "seed=3; snapc.drain:pre-drain=times1")
	ins := trace.New()
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Params: params, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := slowCounterFactory(0, time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "c", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // accumulate some state to restore

	p, err := job.CheckpointAsync(false)
	if err != nil {
		t.Fatalf("CheckpointAsync: %v", err)
	}
	if _, err := p.Wait(); !errors.Is(err, faultsim.ErrInjected) {
		t.Fatalf("Wait = %v, want the injected drain crash", err)
	}
	jobID := int(job.JobID())
	if e, ok, _ := journalFor(sys, jobID).Entry(p.Interval()); !ok || e.State != snapshot.StateCaptured {
		t.Fatalf("journal after pre-drain crash = %+v (ok=%v)", e, ok)
	}

	// End the job cleanly (a second interval drains fine: times1 fired).
	if _, err := job.Checkpoint(true); err != nil {
		t.Fatalf("terminate checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	dir := snapshot.GlobalDirName(jobID)
	sys.FlushDrains()
	rep, err := sys.RecoverDrains(dir)
	if err != nil {
		t.Fatalf("RecoverDrains: %v", err)
	}
	if rep.Redrained != 1 || rep.Discarded != 0 || rep.FastForwarded != 0 {
		t.Fatalf("RecoverReport = %+v, want exactly one re-drain", rep)
	}
	ref, err := sys.OpenGlobalSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.VerifyInterval(ref, p.Interval()); err != nil {
		t.Fatalf("re-drained interval fails verification: %v", err)
	}

	// Restart from the re-drained interval: the captured nodes survived,
	// so every rank restores from its node-local sealed stage.
	factory2, apps2 := slowCounterFactory(30, 0)
	job2, err := sys.Restart(ref, p.Interval(), factory2)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if got := ins.Counter("ompi_restart_local_fast_path_total").Value(); got != np {
		t.Errorf("local fast-path restores = %d, want %d", got, np)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	if (*apps2)[0].state.Iter == 0 {
		t.Error("fast-path restart did not resume the application")
	}
}

// TestRestartEquivalenceProperty is the property-based suite: a seeded
// table of randomized fault plans × checkpoint cadences × sync/async
// drain mode, each asserting the paper's core guarantee — a supervised
// run that fails and restarts from checkpoints finishes with exactly
// the state of a fault-free run, and leaves no partially committed or
// undrained debris behind.
func TestRestartEquivalenceProperty(t *testing.T) {
	const np, limit, nodes, slots = 16, 150, 5, 4
	want := referenceIters(t, nodes, slots, np, limit)

	type pcase struct {
		name  string
		plan  string
		every time.Duration
		async bool
		inJob bool
	}
	// Generated, not hand-picked: every case derives from its seed.
	var cases []pcase
	for i, seed := range []int{41, 42, 43, 44} {
		async := i%2 == 1
		plan := fmt.Sprintf("seed=%d; filem.transfer=p%.2f; node.kill:node%d=after%d,once",
			seed, 0.08+0.04*float64(i%3), 1+i%4, 10+2*i)
		if async && i >= 2 {
			// Async cases also crash a drain mid-flight: the failure
			// path's drain recovery must resolve it.
			plan += "; snapc.drain:mid-drain=times1"
		}
		cases = append(cases, pcase{
			name:  fmt.Sprintf("seed%d_every%dms_async%v", seed, 3+i, async),
			plan:  plan,
			every: time.Duration(3+i) * time.Millisecond,
			async: async,
		})
	}
	// The same generated node-loss plans under the in-job recovery
	// policy: survivors must stay in place and the run must converge to
	// the same oracle, whether the session succeeds in-job or falls back
	// to a whole-job restart.
	for i, seed := range []int{51, 52} {
		plan := fmt.Sprintf("seed=%d; node.kill:node%d=after%d,once", seed, 1+i, 12+3*i)
		cases = append(cases, pcase{
			name:  fmt.Sprintf("seed%d_every%dms_injob", seed, 4+i),
			plan:  plan,
			every: time.Duration(4+i) * time.Millisecond,
			async: i%2 == 1,
			inJob: true,
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := mca.NewParams()
			params.Set("fault_plan", tc.plan)
			params.Set("filem_retry_max", "6")
			params.Set("orted_heartbeat_interval", "10ms")
			params.Set("orted_heartbeat_miss", "8")
			params.Set("trace_max_events", "500000")
			ins := trace.New()
			sys, err := NewSystem(Options{Nodes: nodes, SlotsPerNode: slots, Params: params, Ins: ins})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			defer func() {
				if !t.Failed() {
					return
				}
				for _, ev := range ins.Log.Events() {
					switch ev.Kind {
					case "supervise.restart", "recovery.abort", "recovery.detect",
						"recovery.complete", "job.abort", "node.down", "node.lost":
						t.Logf("event %s %s: %s", ev.Source, ev.Kind, ev.Detail)
					}
				}
			}()
			factory, apps := slowCounterFactory(limit, 2*time.Millisecond)
			job, err := sys.Launch(JobSpec{Name: "prop", NP: np, AppFactory: factory})
			if err != nil {
				t.Fatal(err)
			}
			policy := RecoverWholeJob
			if tc.inJob {
				policy = RecoverInJob
			}
			rep, err := sys.Supervise(job, factory, SuperviseOptions{
				CheckpointEvery: tc.every,
				Drain:           Drain{Async: tc.async},
				Recovery:        Recovery{Policy: policy, AutoRestart: 2},
			})
			if err != nil {
				t.Fatalf("Supervise: %v (report %+v)", err, rep)
			}
			if tc.inJob {
				// The seeded kill must have been handled somewhere: an
				// in-job session (possibly falling back) or, if the job
				// finished before the detector fired, not at all.
				if rep.InJobRecovery.Sessions == 0 && !rep.Recovered {
					t.Fatalf("the seeded node kill was never handled (report %+v)", rep)
				}
				if rep.InJobRecovery.Sessions > 0 && rep.InJobRecovery.Fallbacks == 0 && rep.Restarts != 0 {
					t.Fatalf("whole-job restart without a recorded fallback (report %+v)", rep)
				}
			} else if !rep.Recovered {
				t.Fatalf("the seeded node kill never forced a recovery (report %+v)", rep)
			}
			if rep.Checkpoints == 0 {
				t.Error("no committed checkpoints under the fault plan")
			}

			// The property: final per-rank state is byte-identical to the
			// fault-free oracle. In-job recovery keeps the original job
			// (and its app instances) alive unless it fell back, so read
			// the final state from the last incarnation's job table.
			var got []int
			if tc.inJob {
				ids := sys.JobIDs()
				last, err := sys.Job(ids[len(ids)-1])
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < np; r++ {
					got = append(got, last.App(r).(*slowCounter).state.Iter)
				}
			} else {
				got = finalIters(*apps, np)
			}
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
				}
			}

			// No debris, no torn intervals, no dangling journal entries:
			// resolve whatever the run left queued, then sweep every
			// incarnation's lineage.
			sys.FlushDrains()
			for _, id := range sys.JobIDs() {
				dir := snapshot.GlobalDirName(int(id))
				if _, err := sys.RecoverDrains(dir); err != nil {
					t.Errorf("RecoverDrains(%s): %v", dir, err)
				}
				ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: dir}
				ivs, err := snapshot.Intervals(ref)
				if err != nil {
					continue // incarnation never committed a snapshot
				}
				for _, iv := range ivs {
					if _, err := snapshot.VerifyInterval(ref, iv); err != nil {
						t.Errorf("job %d interval %d committed but fails verification: %v", id, iv, err)
					}
				}
				und, err := snapshot.OpenJournal(ref).Undrained()
				if err != nil {
					t.Errorf("job %d journal: %v", id, err)
				}
				if len(und) != 0 {
					t.Errorf("job %d journal left undrained entries after recovery: %+v", id, und)
				}
			}
		})
	}
}

// TestAsyncDrainSoak is the long-haul bounded-resource test: a
// supervised async run over ~a hundred-plus intervals must keep every
// ring and journal bounded and finish with zero stage or drain debris.
func TestAsyncDrainSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: skipped with -short")
	}
	const np = 4
	ins := trace.New()
	sys, err := NewSystem(Options{Nodes: 2, SlotsPerNode: 2, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := slowCounterFactory(500, time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "soak", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		CheckpointEvery: 2 * time.Millisecond,
		Drain:           Drain{Async: true},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if rep.Checkpoints < 100 {
		t.Errorf("soak run committed %d intervals, want >= 100", rep.Checkpoints)
	}
	sys.FlushDrains()
	jobID := int(job.JobID())
	ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: snapshot.GlobalDirName(jobID)}

	// The journal is bounded and fully resolved: every surviving entry
	// terminal, intervals strictly increasing (monotone progress).
	entries, err := snapshot.OpenJournal(ref).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) > 64 {
		t.Errorf("journal holds %d entries, want 1..64", len(entries))
	}
	for i, e := range entries {
		if !e.State.Terminal() {
			t.Errorf("journal entry %d not terminal after flush: %+v", e.Interval, e)
		}
		if i > 0 && e.Interval <= entries[i-1].Interval {
			t.Errorf("journal progress not monotone: %d after %d", e.Interval, entries[i-1].Interval)
		}
	}
	best, ok, err := snapshot.OpenJournal(ref).HighestCommitted()
	if err != nil || !ok {
		t.Fatalf("HighestCommitted: %v, %v", ok, err)
	}
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		t.Fatal(err)
	}
	if newest := ivs[len(ivs)-1]; newest != best {
		t.Errorf("journal HighestCommitted = %d, stable storage newest = %d", best, newest)
	}

	// Zero debris: no uncommitted stage dirs on stable storage, no
	// node-local stages left behind, drain queue at rest.
	if stale, err := snapshot.Uncommitted(ref); err != nil || len(stale) != 0 {
		t.Errorf("uncommitted stage debris = %v (err %v)", stale, err)
	}
	assertNoStageDebris(t, sys, jobID)
	if got := ins.Gauge("ompi_snapc_drain_queue_depth").Value(); got != 0 {
		t.Errorf("drain queue depth at rest = %v", got)
	}

	// Bounded heap: both telemetry rings respected their caps over the
	// hundreds of intervals.
	if n := len(ins.Log.Events()); n > trace.DefaultMaxEvents {
		t.Errorf("event ring exceeded its cap: %d > %d", n, trace.DefaultMaxEvents)
	}
	if n := len(ins.Spans.Spans()); n > trace.DefaultMaxSpans {
		t.Errorf("span ring exceeded its cap: %d > %d", n, trace.DefaultMaxSpans)
	}
	// The blocked-time accounting stayed live across the whole run.
	if rep.Phases.BlockedNS <= 0 || rep.Phases.DrainNS <= 0 {
		t.Errorf("accumulated phases missing async accounting: %+v", rep.Phases)
	}
}
