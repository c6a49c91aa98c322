// Asynchronous checkpoint/restart: a long-running stencil job is
// checkpointed from "outside" through the mpirun control socket — the
// path a system administrator or scheduler uses (ompi-checkpoint) — then
// terminated for simulated maintenance and restarted from the global
// snapshot reference, with in-flight messages preserved across the cut.
//
//	go run ./examples/asynccr
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/orte/runtime"
)

func main() {
	sys, err := core.NewSystem(core.Options{Nodes: 4, SlotsPerNode: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Serve the control socket exactly as ompi-run does (without the
	// pid session file; we dial the address directly).
	ctl, err := sys.Cluster().ServeControl("", false)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()

	// An unbounded stencil job: it runs until checkpoint-terminated.
	factory, err := apps.Lookup("stencil", []string{"-steps", "0", "-cells", "32"})
	if err != nil {
		log.Fatal(err)
	}
	job, err := sys.Launch(core.JobSpec{
		Name: "stencil", Args: []string{"-steps", "0", "-cells", "32"},
		NP: 8, AppFactory: factory,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asynccr: job %d running on nodes %v, control %s\n", job.JobID(), job.Nodes(), ctl.Addr())

	// First: a plain checkpoint over the wire; the job keeps running.
	resp, err := runtime.ControlDial(ctl.Addr(), runtime.ControlRequest{Op: "checkpoint"})
	if err != nil {
		log.Fatal(err)
	}
	if !resp.OK {
		log.Fatalf("checkpoint: %s", resp.Err)
	}
	fmt.Printf("asynccr: Snapshot Ref.: %d %s (job keeps running)\n", resp.Interval, resp.GlobalRef)

	// The administrator view.
	ps, err := runtime.ControlDial(ctl.Addr(), runtime.ControlRequest{Op: "ps"})
	if err != nil {
		log.Fatal(err)
	}
	for _, ji := range ps.Jobs {
		fmt.Printf("asynccr: ps: job %d app %s np %d ckpts %d done=%v\n", ji.Job, ji.App, ji.NP, ji.Ckpts, ji.Done)
	}

	// Maintenance time: checkpoint-and-terminate over the wire.
	resp2, err := runtime.ControlDial(ctl.Addr(), runtime.ControlRequest{Op: "checkpoint", Terminate: true})
	if err != nil {
		log.Fatal(err)
	}
	if !resp2.OK {
		log.Fatalf("checkpoint --term: %s", resp2.Err)
	}
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asynccr: Snapshot Ref.: %d %s (job terminated)\n", resp2.Interval, resp2.GlobalRef)

	// Restart from the latest interval, run a bounded tail, verify.
	ref, err := sys.OpenGlobalSnapshot(resp2.GlobalRef)
	if err != nil {
		log.Fatal(err)
	}
	iv, err := snapshot.LatestInterval(ref)
	if err != nil {
		log.Fatal(err)
	}
	meta, err := snapshot.ReadGlobal(ref, iv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asynccr: restarting %q np=%d from interval %d using only the metadata\n",
		meta.AppName, meta.NumProcs, iv)

	stencils := make([]*apps.StencilApp, meta.NumProcs)
	job2, err := sys.Restart(ref, iv, func(rank int) ompi.App {
		a := &apps.StencilApp{Steps: 0, Cells: 32}
		stencils[rank] = a
		return a
	})
	if err != nil {
		log.Fatal(err)
	}
	// Let it run a little, then terminate it cleanly via the API.
	if _, err := job2.Checkpoint(true); err != nil {
		log.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asynccr: restarted job reached iteration %d with %d cells intact\n",
		stencils[0].State.Iter, len(stencils[0].State.Cell))
	if len(stencils[0].State.Cell) != 32 {
		log.Fatal("restarted job lost its state")
	}
	fmt.Println("asynccr: done ✓")
}
