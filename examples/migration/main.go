// Migration: checkpoint a job on one cluster and restart it on a
// different one — fewer nodes, a different placement policy — exercising
// the paper's "restarting in new process topologies" path (the PML
// reconnects peers after restart) and its future-work migration goal.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/ompi"
)

func main() {
	// Shared stable storage: both "machine rooms" mount the same
	// directory, like a site-wide parallel filesystem.
	stableDir := fmt.Sprintf("%s/migration_stable", tmpBase())

	// Cluster A: 4 wide nodes, round-robin placement.
	sysA, err := core.NewSystem(core.Options{Nodes: 4, SlotsPerNode: 2, StableDir: stableDir})
	if err != nil {
		log.Fatal(err)
	}

	factory, err := apps.Lookup("alltoall", []string{"-rounds", "0"})
	if err != nil {
		log.Fatal(err)
	}
	job, err := sysA.Launch(core.JobSpec{
		Name: "alltoall", Args: []string{"-rounds", "0"},
		NP: 6, AppFactory: factory,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migration: cluster A: job on nodes %v\n", job.Nodes())

	ckpt, err := job.Checkpoint(true)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migration: checkpointed to %s, cluster A decommissioned\n", ckpt.Dir)
	sysA.Close()

	// Cluster B: 2 fat nodes, batch-style (slurmsim) placement.
	params := mca.NewParams()
	params.Set("plm", "slurmsim")
	sysB, err := core.NewSystem(core.Options{
		NodeSpecs: nil, Nodes: 2, SlotsPerNode: 4,
		StableDir: stableDir, Params: params,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sysB.Close()

	ref, err := sysB.OpenGlobalSnapshot(ckpt.Dir)
	if err != nil {
		log.Fatal(err)
	}
	meta, err := snapshot.ReadGlobal(ref, ckpt.Interval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migration: snapshot ran on %v; restarting on a 2-node cluster\n", meta.Nodes)

	migrated := make([]*apps.AlltoallApp, meta.NumProcs)
	job2, err := sysB.Restart(ref, ckpt.Interval, func(rank int) ompi.App {
		a := &apps.AlltoallApp{Rounds: 0}
		migrated[rank] = a
		return a
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migration: cluster B: restarted job on nodes %v\n", job2.Nodes())
	if _, err := job2.Checkpoint(true); err != nil {
		log.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		log.Fatal(err)
	}
	// The alltoall app self-verifies every exchange; reaching here means
	// the dense communication pattern survived the topology change.
	fmt.Printf("migration: alltoall resumed across topologies, %d rounds completed ✓\n",
		migrated[0].State.Round)
}

func tmpBase() string {
	return "/tmp/ompi-go-examples"
}
