// Package apps is the registry of built-in demonstration applications
// used by the command-line tools. Registering applications by name is
// what lets ompi-restart rebuild a job from nothing but the global
// snapshot reference: the snapshot metadata records the application name
// and arguments, and the registry turns them back into runnable code —
// the paper's "user does not need to remember how the job was started".
package apps

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ompi"
	"repro/internal/ompi/coll"
	"repro/internal/ompi/pml"
)

// Factory builds a per-rank application constructor from saved
// command-line arguments.
type Factory func(args []string) (func(rank int) ompi.App, error)

var (
	regMu    sync.Mutex
	registry = make(map[string]Factory)
	helps    = make(map[string]string)
)

// Register adds a named application.
func Register(name, help string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("apps: duplicate registration of %q", name))
	}
	registry[name] = f
	helps[name] = help
}

// Lookup resolves a named application factory with its arguments.
func Lookup(name string, args []string) (func(rank int) ompi.App, error) {
	regMu.Lock()
	f, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	return f(args)
}

// Names lists registered applications.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Usage writes one line per registered application.
func Usage(w io.Writer) {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-10s %s\n", n, helps[n])
	}
}

func init() {
	Register("ring", "token ring: pass an accumulating sum around the ranks (-iters N, 0 = until checkpointed)", ringFactory)
	Register("stencil", "1-D Jacobi stencil with halo exchange and periodic Allreduce (-steps N, -cells N, -delay D)", stencilFactory)
	Register("alltoall", "all-to-all exchange stress (-rounds N)", alltoallFactory)
}

// --- ring ---------------------------------------------------------------------

// RingApp is the token-ring demo; exported so examples can inspect the
// final state.
type RingApp struct {
	Iters int // 0 = run until checkpoint-terminated

	State struct {
		Iter int
		Sum  int64
	}
}

func ringFactory(args []string) (func(rank int) ompi.App, error) {
	fs := flag.NewFlagSet("ring", flag.ContinueOnError)
	iters := fs.Int("iters", 100, "iterations (0 = run until checkpointed)")
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("apps: ring: %w", err)
	}
	return func(rank int) ompi.App { return &RingApp{Iters: *iters} }, nil
}

// Setup implements ompi.App.
func (a *RingApp) Setup(p *ompi.Proc) error {
	return p.RegisterState("ring", &a.State)
}

// Step implements ompi.App.
func (a *RingApp) Step(p *ompi.Proc) (bool, error) {
	next := (p.Rank() + 1) % p.Size()
	prev := (p.Rank() - 1 + p.Size()) % p.Size()
	if err := p.Send(next, 1, coll.Int64sToBytes([]int64{a.State.Sum + int64(p.Rank())})); err != nil {
		return false, err
	}
	data, _, err := p.Recv(prev, 1)
	if err != nil {
		return false, err
	}
	vals, err := coll.BytesToInt64s(data)
	if err != nil {
		return false, err
	}
	a.State.Sum += vals[0]
	a.State.Iter++
	return a.Iters > 0 && a.State.Iter >= a.Iters, nil
}

// --- stencil ------------------------------------------------------------------

// StencilApp is a 1-D Jacobi smoother with halo exchange.
type StencilApp struct {
	Steps int // 0 = run until checkpoint-terminated
	Cells int
	// Delay models per-step compute time as a sleep. Every simulated
	// node shares the one host CPU, so a rank that busy-loops steps
	// oversubscribes it in a way no real cluster would (there, compute
	// burns the node's own cores). Sleeping instead keeps the step
	// cadence — and the quiesce window a checkpoint must wait out —
	// without the host-CPU artifact, which matters for latency-sensitive
	// benchmarks with many concurrent ranks.
	Delay time.Duration

	State struct {
		Iter int
		Cell []float64
	}
	// scratch is the next-step buffer, swapped with State.Cell each
	// step rather than reallocated: long-running ranks at -steps 0
	// would otherwise allocate a full state-sized slice per step, and
	// with hundreds of concurrent ranks that garbage dominates the
	// host's GC time. Deliberately outside State: rebuilt lazily, never
	// checkpointed.
	scratch []float64
}

func stencilFactory(args []string) (func(rank int) ompi.App, error) {
	fs := flag.NewFlagSet("stencil", flag.ContinueOnError)
	steps := fs.Int("steps", 100, "steps (0 = run until checkpointed)")
	cells := fs.Int("cells", 64, "cells per rank")
	delay := fs.Duration("delay", 0, "sleep-modeled compute time per step (0 = busy-loop)")
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("apps: stencil: %w", err)
	}
	if *cells < 2 {
		return nil, fmt.Errorf("apps: stencil: need at least 2 cells, got %d", *cells)
	}
	return func(rank int) ompi.App { return &StencilApp{Steps: *steps, Cells: *cells, Delay: *delay} }, nil
}

// Setup implements ompi.App.
func (a *StencilApp) Setup(p *ompi.Proc) error {
	if a.State.Cell == nil {
		a.State.Cell = make([]float64, a.Cells)
		for i := range a.State.Cell {
			a.State.Cell[i] = float64(p.Rank()*a.Cells + i)
		}
	}
	return p.RegisterState("stencil", &a.State)
}

// Step implements ompi.App.
func (a *StencilApp) Step(p *ompi.Proc) (bool, error) {
	n := p.Size()
	rank := p.Rank()
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	cells := a.State.Cell
	toRight, err := p.Isend(right, 1, coll.Float64sToBytes(cells[len(cells)-1:]))
	if err != nil {
		return false, err
	}
	toLeft, err := p.Isend(left, 2, coll.Float64sToBytes(cells[:1]))
	if err != nil {
		return false, err
	}
	fromLeft, _, err := p.Recv(left, 1)
	if err != nil {
		return false, err
	}
	fromRight, _, err := p.Recv(right, 2)
	if err != nil {
		return false, err
	}
	// Retire both send handles: an uncompleted request stays in the PML
	// table and rides along in every checkpoint image.
	if err := p.Waitall([]pml.Request{toRight, toLeft}); err != nil {
		return false, err
	}
	l, err := coll.BytesToFloat64s(fromLeft)
	if err != nil {
		return false, err
	}
	r, err := coll.BytesToFloat64s(fromRight)
	if err != nil {
		return false, err
	}
	if len(a.scratch) != len(cells) {
		a.scratch = make([]float64, len(cells))
	}
	next := a.scratch
	for i := range next {
		lv := l[0]
		if i > 0 {
			lv = cells[i-1]
		}
		rv := r[0]
		if i < len(next)-1 {
			rv = cells[i+1]
		}
		next[i] = (lv + cells[i] + rv) / 3
	}
	a.scratch = cells
	a.State.Cell = next
	a.State.Iter++
	if a.State.Iter%8 == 0 {
		if _, err := p.Allreduce(coll.Float64sToBytes([]float64{next[0]}), coll.SumFloat64); err != nil {
			return false, err
		}
	}
	if a.Delay > 0 {
		time.Sleep(a.Delay)
	}
	return a.Steps > 0 && a.State.Iter >= a.Steps, nil
}

// --- alltoall -----------------------------------------------------------------

// AlltoallApp stresses the dense exchange pattern.
type AlltoallApp struct {
	Rounds int // 0 = run until checkpoint-terminated

	State struct {
		Round int
		Check int64
	}
}

func alltoallFactory(args []string) (func(rank int) ompi.App, error) {
	fs := flag.NewFlagSet("alltoall", flag.ContinueOnError)
	rounds := fs.Int("rounds", 50, "rounds (0 = run until checkpointed)")
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("apps: alltoall: %w", err)
	}
	return func(rank int) ompi.App { return &AlltoallApp{Rounds: *rounds} }, nil
}

// Setup implements ompi.App.
func (a *AlltoallApp) Setup(p *ompi.Proc) error {
	return p.RegisterState("alltoall", &a.State)
}

// Step implements ompi.App.
func (a *AlltoallApp) Step(p *ompi.Proc) (bool, error) {
	n := p.Size()
	blocks := make([][]byte, n)
	for q := 0; q < n; q++ {
		blocks[q] = coll.Int64sToBytes([]int64{int64(p.Rank()*1000 + q + a.State.Round)})
	}
	got, err := p.Alltoall(blocks)
	if err != nil {
		return false, err
	}
	for q := 0; q < n; q++ {
		vals, err := coll.BytesToInt64s(got[q])
		if err != nil {
			return false, err
		}
		if want := int64(q*1000 + p.Rank() + a.State.Round); vals[0] != want {
			return false, fmt.Errorf("alltoall: from %d got %d want %d", q, vals[0], want)
		}
		a.State.Check += vals[0]
	}
	a.State.Round++
	return a.Rounds > 0 && a.State.Round >= a.Rounds, nil
}
