// Multilevel checkpointing property seeds (PR 10 acceptance): the
// level engine under fixed and self-tuned cadences, against node
// kills and stable-store outages, always converging to the fault-free
// oracle; restart equivalence from L1-only and L2-only state; and the
// level-aware retention invariant under randomized
// seal/promote/prune/scrub interleavings.
package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/orte/cadence"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
)

// Fault-free baseline: fixed per-level cadences seal L1 holds and
// commit L3 intervals on independent tickers; every stable commit
// supersedes the older holds, the holds never reach stable storage on
// their own, and the run matches the oracle exactly.
func TestMultilevelFixedCadencesMatchFaultFree(t *testing.T) {
	const np, limit = 8, 80
	want := referenceIters(t, 4, 2, np, limit)

	params := mca.NewParams()
	params.Set("snapc_stage_replicas", "1")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 4, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	factory, apps := slowCounterFactory(limit, 2*time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "fixed", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		Levels: Levels{L1: 5 * time.Millisecond, L2: 12 * time.Millisecond, L3: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if rep.LevelCheckpoints[0] == 0 {
		t.Errorf("report = %+v, want L1 seals from the level engine", rep)
	}
	if rep.Checkpoints == 0 || rep.LevelCheckpoints[2] != rep.Checkpoints {
		t.Errorf("report = %+v, want every stable commit taken by the L3 ticker", rep)
	}
	// The retention rule: whatever is still held is at least as new as
	// the newest stable commit — no commit ever collected a newer hold.
	held := sys.Cluster().HeldIntervals(job.JobID())
	if ivs, err := snapshot.Intervals(sys.Resolver(job.Lineage()).Ref); err == nil && len(ivs) > 0 {
		newest := ivs[len(ivs)-1]
		for iv := range held {
			if iv < newest {
				t.Errorf("interval %d still held below the newest stable commit %d", iv, newest)
			}
		}
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	verifyAllCommitted(t, sys)
}

// L1-only restart equivalence: a single node-local seal — never
// drained, never on stable storage — is a complete restart point. The
// recovery pass turns the hold into a stable commit (the multilevel
// restart path is the ordinary crash-recovery path), and the restarted
// incarnation finishes with the oracle's exact state.
func TestMultilevelL1HoldRestartMatchesFaultFree(t *testing.T) {
	const np, limit = 4, 40
	want := referenceIters(t, 3, 2, np, limit)

	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 3, SlotsPerNode: 2, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, apps := slowCounterFactory(limit, time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "l1", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(8 * time.Millisecond) // mid-run, so the seal captures partial progress
	iv, err := sys.Cluster().CheckpointJobLevel(job.JobID(), snapshot.LevelLocal, snapc.Options{})
	if err != nil {
		t.Fatalf("CheckpointJobLevel: %v", err)
	}
	ref := sys.Resolver(job.Lineage()).Ref
	if _, verr := snapshot.VerifyInterval(ref, iv); verr == nil {
		t.Fatal("L1 hold reached stable storage before any recovery pass")
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	rr, err := sys.RecoverDrains(job.Lineage())
	if err != nil {
		t.Fatalf("RecoverDrains: %v", err)
	}
	if rr.Redrained != 1 {
		t.Fatalf("recover report = %+v, want the held interval re-drained", rr)
	}
	if _, err := snapshot.VerifyInterval(ref, iv); err != nil {
		t.Fatalf("re-drained interval fails verification: %v", err)
	}
	restarted, err := sys.Restart(ref, iv, factory)
	if err != nil {
		t.Fatalf("Restart from re-drained L1 hold: %v", err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
}

// L2-only restart equivalence under node loss: the job checkpoints
// only at sub-stable levels (L1 seals, L2 replica promotions — the L3
// ticker is off), a node dies taking its stage shares with it, and the
// auto-restart still lands on the oracle via the hold-direct path:
// every rank relaunches straight from its sealed local stage or the
// peer-held stage replica — nothing crosses stable storage on the
// MTTR path.
func TestMultilevelL2OnlyRestartMatchesFaultFree(t *testing.T) {
	const np, limit = 8, 120
	want := referenceIters(t, 5, 2, np, limit)

	params := mca.NewParams()
	params.Set("fault_plan", "seed=42; node.kill:node3=after20,once")
	params.Set("snapc_stage_replicas", "1")
	params.Set("orted_heartbeat_interval", "10ms")
	params.Set("orted_heartbeat_miss", "8")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 5, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	factory, apps := slowCounterFactory(limit, 2*time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "l2only", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		Levels:   Levels{L1: 6 * time.Millisecond, L2: 15 * time.Millisecond},
		Recovery: Recovery{AutoRestart: 1},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if got := sys.Cluster().Faults().Fired("node.kill"); got != 1 {
		t.Fatalf("node.kill fired %d times, want 1", got)
	}
	if rep.Restarts != 1 {
		t.Fatalf("report = %+v, want one auto-restart", rep)
	}
	if rep.LevelCheckpoints[1] == 0 {
		t.Errorf("report = %+v, want L2 promotions before the kill", rep)
	}
	if rep.Checkpoints != 0 {
		t.Errorf("report = %+v, want no cadence-driven stable commits (L3 ticker is off)", rep)
	}
	if len(rep.Sources) != 1 || rep.Sources[0].Copy != "held:L2" {
		t.Errorf("restart sources = %+v, want one hold-direct restart from the L2 replica rung", rep.Sources)
	}
	if rep.DrainRecovery.Redrained != 0 {
		t.Errorf("drain recovery = %+v, want the hold-direct restart to skip the stable re-drain", rep.DrainRecovery)
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	verifyAllCommitted(t, sys)
}

// HNP-crash coverage for the level engine: the very first L1 seal's
// quiesce kills the coordinator. ReattachOnCrash rebuilds the HNP, the
// level tickers keep firing against the reattached control plane, and
// the run matches the fault-free oracle.
func TestMultilevelHNPCrashReattachMatchesFaultFree(t *testing.T) {
	const np, limit = 8, 80
	want := referenceIters(t, 4, 2, np, limit)

	params := mca.NewParams()
	params.Set("fault_plan", "seed=5; hnp.crash:quiesce=after1,once")
	params.Set("snapc_stage_replicas", "1")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 4, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	factory, apps := slowCounterFactory(limit, 2*time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "mlcrash", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		Levels:   Levels{L1: 5 * time.Millisecond, L3: 25 * time.Millisecond},
		Recovery: Recovery{AutoRestart: 1},
		Reattach: Reattach{OnCrash: true},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if rep.Reattaches < 1 {
		t.Errorf("report = %+v, want at least one reattach", rep)
	}
	if sys.Cluster().Headless() {
		t.Error("cluster still headless after supervised reattach")
	}
	if got := sys.Cluster().Faults().Fired("hnp.crash:quiesce"); got != 1 {
		t.Errorf("hnp.crash:quiesce fired %d times, want 1", got)
	}
	if rep.LevelCheckpoints[0] == 0 {
		t.Errorf("report = %+v, want L1 seals after the reattach", rep)
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	verifyAllCommitted(t, sys)
}

// The self-tuning chaos seed: auto cadences start at the ceiling (no
// failures observed), then a stable-store outage window parks L3 work
// and feeds the L3 tuner, which retunes online; the run still
// converges to the fault-free oracle with every parked interval
// reconciled after the store returns.
func TestMultilevelAutoTuneChaosConvergesToFaultFree(t *testing.T) {
	const np, limit = 8, 120
	want := referenceIters(t, 5, 2, np, limit)

	params := mca.NewParams()
	params.Set("fault_plan", "seed=11; fs.outage:stable=after150,times40")
	params.Set("snapc_stage_replicas", "1")
	params.Set("snapc_store_retry_backoff", "2ms")
	params.Set("snapc_store_retry_max", "10ms")
	log := &trace.Log{}
	sys, err := NewSystem(Options{Nodes: 5, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	factory, apps := slowCounterFactory(limit, 2*time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "autotune", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		Levels: Levels{
			Auto:   true,
			Replan: 5 * time.Millisecond,
			Tuning: cadence.Config{Min: 4 * time.Millisecond, Max: 60 * time.Millisecond},
		},
		Recovery: Recovery{AutoRestart: 2},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if sys.Cluster().Faults().Fired("fs.outage") == 0 {
		t.Fatal("fault plan never fired fs.outage; the seed exercises nothing")
	}
	if rep.Retunes == 0 {
		t.Errorf("report = %+v, want the tuner to retune after the failures landed", rep)
	}
	if err := sys.Cluster().Drainer().AwaitCatchup(10 * time.Second); err != nil {
		t.Fatalf("AwaitCatchup after outage window: %v", err)
	}
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	verifyAllCommitted(t, sys)
}

// The level-aware retention invariant, property-tested: under seeded
// random interleavings of L1 seals, L2 promotions, L3 promotions, full
// checkpoints and scrubs of a job that keeps its stages (it has a
// recovery coordinator), the newest restorable interval (across ALL
// levels) never regresses, no hold older than a stable commit survives
// it, and the only node-local stages are the holds' and the newest
// stable commit's.
func TestLevelRetentionInvariantUnderRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			params := mca.NewParams()
			params.Set("snapc_stage_replicas", "1")
			log := &trace.Log{}
			sys, err := NewSystem(Options{Nodes: 4, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			// Effectively endless: the ops below run against a live job.
			factory, _ := slowCounterFactory(1<<30, time.Millisecond)
			job, err := sys.Launch(JobSpec{Name: "retention", NP: 4, AppFactory: factory})
			if err != nil {
				t.Fatal(err)
			}
			job.EnableRecovery()
			id := job.JobID()
			dir := job.Lineage()
			cl := sys.Cluster()
			ref := sys.Resolver(dir).Ref

			best, committed := 0, 0
			check := func(op string) {
				t.Helper()
				entries, err := snapshot.OpenJournal(ref).Load()
				if err != nil {
					t.Fatalf("after %s: journal: %v", op, err)
				}
				iv := -1
				for _, info := range sys.Resolver(dir).SurveyLevels(int(id), entries) {
					if info.Best > 0 {
						iv = info.Interval
					}
				}
				if iv < 0 {
					if best > 0 {
						t.Fatalf("after %s: no restorable interval at any level, previously %d", op, best)
					}
					return
				}
				if iv < best {
					t.Fatalf("after %s: best restorable interval regressed %d -> %d", op, best, iv)
				}
				best = iv
				held := cl.HeldIntervals(id)
				for hiv := range held {
					if hiv < committed {
						t.Fatalf("after %s: interval %d still held below stable commit %d", op, hiv, committed)
					}
				}
				for _, node := range cl.AliveNodes() {
					fsys, err := cl.NodeFS(node)
					if err != nil {
						t.Fatal(err)
					}
					ents, _ := fsys.ReadDir(snapshot.LocalStageRoot(int(id)))
					for _, e := range ents {
						iv, _ := strconv.Atoi(e.Name)
						if _, ok := held[iv]; !ok && iv != committed {
							t.Fatalf("after %s: %s keeps the stage of interval %d, neither held nor the newest commit %d",
								op, node, iv, committed)
						}
					}
				}
			}

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				var op string
				switch rng.Intn(6) {
				case 0, 1: // seals are the most common op
					op = "seal"
					if _, err := cl.CheckpointJobLevel(id, snapshot.LevelLocal, snapc.Options{}); err != nil {
						t.Fatalf("seal: %v", err)
					}
				case 2:
					op = "promote-replicas"
					if _, _, err := cl.PromoteJobReplicas(id); err != nil {
						t.Fatalf("promote replicas: %v", err)
					}
				case 3:
					op = "promote-stable"
					p, held, err := cl.PromoteJobStable(id)
					if err != nil {
						t.Fatalf("promote stable: %v", err)
					}
					if held {
						r, werr := p.Wait()
						if werr != nil {
							t.Fatalf("stable drain: %v", werr)
						}
						committed = r.Interval
					}
				case 4:
					op = "checkpoint"
					r, err := cl.CheckpointJob(id, snapc.Options{})
					if err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					committed = r.Interval
				case 5:
					op = "scrub"
					sys.Scrub(dir, 1)
				}
				check(op)
			}
			// Drain the leftovers: the newest hold commits, everything older
			// is superseded, and the final stable state verifies.
			for {
				p, held, err := cl.PromoteJobStable(id)
				if err != nil {
					t.Fatalf("final promote: %v", err)
				}
				if !held {
					break
				}
				if r, werr := p.Wait(); werr != nil {
					t.Fatalf("final drain: %v", werr)
				} else {
					committed = r.Interval
				}
				check("final-promote")
			}
			if best > 0 {
				if _, err := snapshot.VerifyInterval(ref, best); err != nil {
					t.Fatalf("final best interval %d fails verification: %v", best, err)
				}
			}
			verifyAllCommitted(t, sys)
		})
	}
}
