package core

import (
	"fmt"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/opal/crs"
	"repro/internal/trace"
)

// durabilityParams wires the replication factor into a fresh param set.
func durabilityParams(k string) *mca.Params {
	p := mca.NewParams()
	p.Set("filem_replicas", k)
	return p
}

// TestSuperviseRestartsFromReplicaWhenStableStoreDies is the durability
// acceptance's core case: the shared store that holds every primary copy
// dies after a committed interval, a job node dies with it, and the
// supervisor restarts the job from a node-local replica — with the same
// final state as a fault-free run.
func TestSuperviseRestartsFromReplicaWhenStableStoreDies(t *testing.T) {
	const np, limit = 2, 40
	want := referenceIters(t, 4, 2, np, limit)

	log := &trace.Log{}
	inj := faultsim.New(11) // rules armed mid-run, relative to observed commits
	sys, err := NewSystem(Options{
		Nodes: 4, SlotsPerNode: 2,
		Params: durabilityParams("2"), Ins: trace.WithLogOnly(log), Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, apps := slowCounterFactory(limit, time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "c", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	// After the first commit (replicas placed on the free nodes node2 and
	// node3): the next shared-store operation loses the whole store, and
	// a job node dies. Only the replicas can restart the job.
	var once sync.Once
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		CheckpointEvery: 5 * time.Millisecond,
		Recovery:        Recovery{AutoRestart: 1},
		Progress: func(CheckpointResult) {
			once.Do(func() {
				inj.AddRule(faultsim.Rule{Point: "node.storage-loss:stable", Times: 1})
				if err := sys.Cluster().KillNode("node1"); err != nil {
					t.Errorf("KillNode: %v", err)
				}
			})
		},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if !rep.Recovered || rep.Restarts != 1 {
		t.Fatalf("report = %+v, want exactly one recovery", rep)
	}
	if inj.Fired("node.storage-loss") != 1 {
		t.Fatalf("storage loss fired %d times, want 1", inj.Fired("node.storage-loss"))
	}
	// The restart source must be a replica: the primary was gone.
	if len(rep.Sources) != 1 {
		t.Fatalf("Sources = %+v", rep.Sources)
	}
	src := rep.Sources[0]
	if !strings.HasPrefix(src.Copy, "replica:") || !src.Repaired {
		t.Errorf("restart source = %+v, want a repaired replica restart", src)
	}
	if log.Count("replica.fallback") == 0 || log.Count("replica.repair") == 0 {
		t.Error("missing replica.fallback / replica.repair trace events")
	}
	// Byte-identical final state: every rank ends exactly where the
	// fault-free reference run ends.
	got := finalIters(*apps, np)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
		}
	}
	// The repair left the restart interval's primary verifiable again.
	ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: src.Dir}
	if _, err := snapshot.VerifyInterval(ref, src.Interval); err != nil {
		t.Errorf("repaired primary fails verification: %v", err)
	}
}

// TestDurabilityFaultStorm is the ISSUE acceptance scenario: with
// filem_replicas=2, the shared store is lost after an interval commit
// AND one of the two replicas bit-rots: anywhere in its tree, or in one
// rank's process image, which leaves that rank's metadata naming the
// right job, interval and rank. Auto-restart must come from the single
// surviving intact copy and match the fault-free run; a scrub
// pass afterwards restores full k-way health and a follow-up pass finds
// nothing to heal.
func TestDurabilityFaultStorm(t *testing.T) {
	const np, limit = 2, 40
	want := referenceIters(t, 4, 2, np, limit)

	for _, storm := range []struct {
		name string
		rot  func(CheckpointResult) string // path on node2 that decays
	}{
		{"replica tree", func(CheckpointResult) string { return "ckpt_replicas" }},
		{"rank image", func(res CheckpointResult) string {
			return path.Join(snapshot.ReplicaDir(res.Dir, res.Interval), snapshot.LocalDirName(0), crs.ImageFile)
		}},
	} {
		t.Run(storm.name, func(t *testing.T) {
			log := &trace.Log{}
			inj := faultsim.New(4242)
			sys, err := NewSystem(Options{
				Nodes: 4, SlotsPerNode: 2,
				Params: durabilityParams("2"), Ins: trace.WithLogOnly(log), Faults: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			factory, apps := slowCounterFactory(limit, time.Millisecond)
			job, err := sys.Launch(JobSpec{Name: "storm", NP: np, AppFactory: factory})
			if err != nil {
				t.Fatal(err)
			}
			var once sync.Once
			rep, err := sys.Supervise(job, factory, SuperviseOptions{
				CheckpointEvery: 5 * time.Millisecond,
				Recovery:        Recovery{AutoRestart: 1},
				Progress: func(res CheckpointResult) {
					once.Do(func() {
						// The storm: the shared store dies, and node2's replica tree
						// decays on its next read. node3 holds the only intact copy.
						inj.AddRule(faultsim.Rule{Point: "node.storage-loss:stable", Times: 1})
						inj.AddRule(faultsim.Rule{Point: "fs.bitrot:node2:" + storm.rot(res), Times: 1})
						if err := sys.Cluster().KillNode("node1"); err != nil {
							t.Errorf("KillNode: %v", err)
						}
					})
				},
			})
			if err != nil {
				t.Fatalf("Supervise: %v (report %+v)", err, rep)
			}
			if !rep.Recovered || len(rep.Sources) != 1 {
				t.Fatalf("report = %+v, want exactly one recovery", rep)
			}
			if inj.Fired("node.storage-loss") != 1 || inj.Fired("fs.bitrot") != 1 {
				t.Fatalf("faults fired: loss=%d bitrot=%d, want 1/1",
					inj.Fired("node.storage-loss"), inj.Fired("fs.bitrot"))
			}
			// node2's copy was corrupt, so the surviving intact copy on node3
			// carried the restart.
			src := rep.Sources[0]
			if src.Copy != "replica:node3" {
				t.Errorf("restart source = %+v, want replica:node3 (node2 bit-rotted)", src)
			}
			if log.Count("replica.corrupt") == 0 {
				t.Error("the bit-rotten replica was never observed as corrupt")
			}
			got := finalIters(*apps, np)
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("rank %d final iter = %d, fault-free reference = %d", r, got[r], want[r])
				}
			}

			// Scrub restores k-way health on the damaged lineage: node2's copy is
			// healed (the primary was already repaired before the relaunch).
			scrub := sys.Scrub(src.Dir, 2)
			if scrub.Rereplicated == 0 {
				t.Errorf("scrub healed nothing: %+v", scrub)
			}
			if scrub.Unhealthy != 0 {
				t.Errorf("scrub left %d intervals below target", scrub.Unhealthy)
			}
			// Follow-up verification is clean: every copy of every interval of
			// the restart lineage passes, and a second scrub takes no actions.
			again := sys.Scrub(src.Dir, 2)
			if again.Repaired != 0 || again.Rereplicated != 0 || again.Unhealthy != 0 {
				t.Errorf("second scrub not clean: %+v", again)
			}
			ref := snapshot.GlobalRef{FS: sys.Cluster().Stable(), Dir: src.Dir}
			ivs, err := snapshot.Intervals(ref)
			if err != nil || len(ivs) == 0 {
				t.Fatalf("Intervals = %v, %v", ivs, err)
			}
			for _, iv := range ivs {
				if _, err := snapshot.VerifyInterval(ref, iv); err != nil {
					t.Errorf("interval %d primary: %v", iv, err)
				}
				for _, node := range []string{"node2", "node3"} {
					fsys, err := sys.Cluster().NodeFS(node)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := snapshot.VerifyDir(fsys, snapshot.ReplicaDir(src.Dir, iv)); err != nil {
						t.Errorf("interval %d replica on %s: %v", iv, node, err)
					}
				}
			}
		})
	}
}

// TestSupervisePeriodicScrubHealsBitrot: with scrub_interval set, the
// supervision loop's background scrub detects silently decayed replica
// data mid-run and re-replicates it without any restart.
func TestSupervisePeriodicScrubHealsBitrot(t *testing.T) {
	log := &trace.Log{}
	inj := faultsim.New(5)
	params := durabilityParams("1")
	params.Set("scrub_interval", "10ms")
	sys, err := NewSystem(Options{
		Nodes: 3, SlotsPerNode: 2,
		Params: params, Ins: trace.WithLogOnly(log), Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := slowCounterFactory(60, 2*time.Millisecond)
	job, err := sys.Launch(JobSpec{Name: "c", NP: 2, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	rep, err := sys.Supervise(job, factory, SuperviseOptions{
		CheckpointEvery: 5 * time.Millisecond,
		Progress: func(CheckpointResult) {
			// After the first commit: the next read anywhere under node2's
			// replica tree decays one byte. The scrub pass both trips it
			// (it re-hashes every copy) and heals it.
			once.Do(func() {
				inj.AddRule(faultsim.Rule{Point: "fs.bitrot:node2:ckpt_replicas", Times: 1})
			})
		},
	})
	if err != nil {
		t.Fatalf("Supervise: %v (report %+v)", err, rep)
	}
	if rep.Restarts != 0 {
		t.Errorf("bitrot must not force a restart: %+v", rep)
	}
	if rep.Scrubs == 0 {
		t.Fatal("no periodic scrub pass completed; is scrub_interval wired?")
	}
	if inj.Fired("fs.bitrot") != 1 {
		t.Fatalf("bitrot fired %d times, want 1", inj.Fired("fs.bitrot"))
	}
	if log.Count("scrub.rereplicate") == 0 {
		t.Error("the periodic scrub never re-replicated the decayed copy")
	}
	// End state: every committed interval is back at full health.
	dir := snapshot.GlobalDirName(int(job.JobID()))
	final := sys.Scrub(dir, 1)
	if final.Unhealthy != 0 || final.Repaired != 0 || final.Rereplicated != 0 {
		t.Errorf("final scrub not clean: %+v", final)
	}
}

// TestRestartOfForeignRefIgnoresLocalReplicas: job ids and intervals
// restart on every cluster, so another cluster's snapshot can share its
// directory name and interval with a replica on this cluster's nodes.
// Restarting that foreign reference reads its own store, never the
// same-named local replica of a different job.
func TestRestartOfForeignRefIgnoresLocalReplicas(t *testing.T) {
	const np = 2
	boot := func(params *mca.Params) *System {
		sys, err := NewSystem(Options{Nodes: 3, SlotsPerNode: np, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}
	// run checkpoints a counter job (terminating it) and returns the
	// snapshot with the iteration each rank resumes from on restart.
	run := func(sys *System, launch func(func(int) ompi.App) (*Job, error)) (CheckpointResult, []int) {
		factory, apps := counterFactory(0)
		j, err := launch(factory)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Checkpoint(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		iters := make([]int, 0, np)
		for _, a := range *apps {
			iters = append(iters, a.startIter)
		}
		return res, iters
	}
	fresh := func(sys *System) func(func(int) ompi.App) (*Job, error) {
		return func(f func(int) ompi.App) (*Job, error) {
			return sys.Launch(JobSpec{Name: "c", NP: np, AppFactory: f})
		}
	}

	local, foreign := boot(durabilityParams("1")), boot(nil)
	mine, _ := run(local, fresh(local))
	theirs, _ := run(foreign, fresh(foreign))
	if mine.Dir != theirs.Dir || mine.Interval != theirs.Interval {
		t.Fatalf("snapshots %s/%d and %s/%d do not collide", mine.Dir, mine.Interval, theirs.Dir, theirs.Interval)
	}
	if len(local.Resolver(mine.Dir).Candidates()) == 0 {
		t.Fatal("the local snapshot has no copy to collide with")
	}

	// The oracle: the foreign snapshot restarted on its own cluster.
	_, want := run(foreign, func(f func(int) ompi.App) (*Job, error) {
		return foreign.Restart(theirs.Ref, theirs.Interval, f)
	})
	var j *Job
	_, got := run(local, func(f func(int) ompi.App) (*Job, error) {
		var err error
		j, err = local.Restart(theirs.Ref, theirs.Interval, f)
		return j, err
	})
	for _, ri := range j.RankTable() {
		if ri.Source != "restored:stable" {
			t.Errorf("rank %d restored from %s, want the foreign store", ri.Rank, ri.Source)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restarted ranks resumed at %v, the foreign snapshot holds %v", got, want)
	}
}
