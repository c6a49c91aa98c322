// Quickstart: launch a 4-rank job on a simulated 2-node cluster, take a
// synchronous checkpoint from inside the application (the paper's
// common API for synchronous requests), checkpoint-and-terminate it from
// outside, and restart it from the global snapshot reference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ompi"
	"repro/internal/ompi/coll"
)

// workApp sums rank contributions with an Allreduce every step.
type workApp struct {
	state struct {
		Iter  int
		Total float64
	}
}

func (a *workApp) Setup(p *ompi.Proc) error {
	return p.RegisterState("work", &a.state)
}

func (a *workApp) Step(p *ompi.Proc) (bool, error) {
	res, err := p.Allreduce(coll.Float64sToBytes([]float64{float64(p.Rank() + 1)}), coll.SumFloat64)
	if err != nil {
		return false, err
	}
	vals, err := coll.BytesToFloat64s(res)
	if err != nil {
		return false, err
	}
	a.state.Total += vals[0]
	a.state.Iter++
	// At iteration 5, every rank asks for a synchronous checkpoint
	// (collective call, like an application-level barrier checkpoint).
	if a.state.Iter == 5 {
		if err := p.Checkpoint(); err != nil {
			return false, err
		}
		if p.Rank() == 0 {
			fmt.Println("quickstart: synchronous checkpoint taken at iteration 5")
		}
	}
	return false, nil // runs until terminated by the tool path
}

func main() {
	sys, err := core.NewSystem(core.Options{Nodes: 2, SlotsPerNode: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	apps := make([]*workApp, 4)
	job, err := sys.Launch(core.JobSpec{
		Name: "quickstart", NP: 4,
		AppFactory: func(rank int) ompi.App {
			apps[rank] = &workApp{}
			return apps[rank]
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Asynchronous path: checkpoint-and-terminate the running job, as
	// ompi-checkpoint --term would.
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quickstart: global snapshot reference: %s (interval %d)\n", ckpt.Dir, ckpt.Interval)
	fmt.Printf("quickstart: terminated at iteration %d, total %.1f\n",
		apps[0].state.Iter, apps[0].state.Total)

	// Restart from the latest interval; run 5 more iterations.
	apps2 := make([]*restartApp, 4)
	job2, err := sys.RestartLatest(ckpt.Ref, func(rank int) ompi.App {
		apps2[rank] = &restartApp{extra: 5}
		return apps2[rank]
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quickstart: restarted from iteration %d, finished at %d, total %.1f\n",
		apps2[0].start, apps2[0].state.Iter, apps2[0].state.Total)
	// The arithmetic is deterministic: total == 10 * iterations for np=4.
	want := 10 * float64(apps2[0].state.Iter)
	if apps2[0].state.Total != want {
		log.Fatalf("restart diverged: total %.1f, want %.1f", apps2[0].state.Total, want)
	}
	fmt.Println("quickstart: restarted run matches the fault-free arithmetic ✓")
}

// restartApp continues the same computation for a bounded number of
// extra steps after restart.
type restartApp struct {
	extra   int
	started bool
	start   int
	state   struct {
		Iter  int
		Total float64
	}
}

func (a *restartApp) Setup(p *ompi.Proc) error {
	return p.RegisterState("work", &a.state)
}

func (a *restartApp) Step(p *ompi.Proc) (bool, error) {
	if !a.started {
		a.started = true
		a.start = a.state.Iter
	}
	res, err := p.Allreduce(coll.Float64sToBytes([]float64{float64(p.Rank() + 1)}), coll.SumFloat64)
	if err != nil {
		return false, err
	}
	vals, err := coll.BytesToFloat64s(res)
	if err != nil {
		return false, err
	}
	a.state.Total += vals[0]
	a.state.Iter++
	return a.state.Iter >= a.start+a.extra, nil
}
