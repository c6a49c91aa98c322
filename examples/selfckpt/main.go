// SELF checkpointer: the application provides its own checkpoint,
// continue and restart callbacks (the paper's SELF CRS component,
// reproducing LAM/MPI's application-level checkpointing). The MPI
// library still coordinates the channels; only the process-capture step
// is delegated to the application.
//
//	go run ./examples/selfckpt
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/ompi/coll"
	"repro/internal/opal/crs"
	"repro/internal/vfs"
)

// trapezoid integrates f(x)=x^2 over [0,1] in parallel, saving its own
// progress through SELF callbacks.
type trapezoid struct {
	state struct {
		Slice int     // next slice to integrate
		Acc   float64 // local partial sum
	}
	events []string
}

const slicesPerRank = 40

func (a *trapezoid) Setup(p *ompi.Proc) error {
	a.events = append(a.events, "setup")
	p.RegisterSelfCallbacks(&crs.SelfCallbacks{
		Checkpoint: func(fsys vfs.FS, dir string) error {
			a.events = append(a.events, "self-checkpoint")
			data, err := json.Marshal(&a.state)
			if err != nil {
				return err
			}
			return fsys.WriteFile(dir+"/trapezoid.json", data)
		},
		Continue: func() error {
			a.events = append(a.events, "self-continue")
			return nil
		},
		Restart: func(fsys vfs.FS, dir string) error {
			a.events = append(a.events, "self-restart")
			data, err := fsys.ReadFile(dir + "/trapezoid.json")
			if err != nil {
				return err
			}
			return json.Unmarshal(data, &a.state)
		},
	})
	return nil
}

func (a *trapezoid) Step(p *ompi.Proc) (bool, error) {
	if a.state.Slice >= slicesPerRank {
		// Done locally: combine across ranks and finish.
		res, err := p.Allreduce(coll.Float64sToBytes([]float64{a.state.Acc}), coll.SumFloat64)
		if err != nil {
			return false, err
		}
		vals, err := coll.BytesToFloat64s(res)
		if err != nil {
			return false, err
		}
		if p.Rank() == 0 {
			fmt.Printf("selfckpt: integral of x^2 over [0,1] ≈ %.6f (exact 1/3)\n", vals[0])
		}
		return true, nil
	}
	total := slicesPerRank * p.Size()
	idx := p.Rank()*slicesPerRank + a.state.Slice
	h := 1.0 / float64(total)
	x0 := float64(idx) * h
	x1 := x0 + h
	a.state.Acc += (x0*x0 + x1*x1) / 2 * h
	a.state.Slice++
	return false, nil
}

func main() {
	params := mca.NewParams()
	params.Set("crs", "self") // select the SELF checkpointer

	sys, err := core.NewSystem(core.Options{Nodes: 2, SlotsPerNode: 2, Params: params})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	appsA := make([]*trapezoid, 4)
	job, err := sys.Launch(core.JobSpec{
		Name: "trapezoid", NP: 4,
		AppFactory: func(rank int) ompi.App {
			appsA[rank] = &trapezoid{}
			return appsA[rank]
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ckpt, err := job.Checkpoint(true)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selfckpt: checkpoint-terminated at slice %d via SELF callbacks %v\n",
		appsA[0].state.Slice, appsA[0].events)
	for r, pe := range ckpt.Meta.Procs {
		if pe.Component != "self" {
			log.Fatalf("rank %d snapshot used %q, want self", r, pe.Component)
		}
	}

	appsB := make([]*trapezoid, 4)
	job2, err := sys.RestartLatest(ckpt.Ref, func(rank int) ompi.App {
		appsB[rank] = &trapezoid{}
		return appsB[rank]
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selfckpt: restart events on rank 0: %v\n", appsB[0].events)
	fmt.Println("selfckpt: done ✓")
}
