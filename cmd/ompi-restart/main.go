// Command ompi-restart relaunches a job from a global snapshot
// reference. The user supplies nothing but the reference (paper §4): the
// number of ranks, the application, its arguments and the MCA parameters
// all come from the snapshot metadata.
//
//	ompi-restart [--stable DIR] [--interval N] ompi_global_snapshot_1.ckpt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ompi-restart:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("ompi-restart", flag.ContinueOnError)
	stable := fs.String("stable", "./ompi_stable", "stable storage directory holding the snapshot")
	interval := fs.Int("interval", -1, "checkpoint interval to restart from (-1 = latest)")
	nodes := fs.Int("nodes", 2, "number of simulated nodes for the restarted job")
	slots := fs.Int("slots", 4, "process slots per node")
	verbose := fs.Bool("v", false, "print trace summary at exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ompi-restart [flags] GLOBAL_SNAPSHOT_REF")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one global snapshot reference")
	}
	refDir := fs.Arg(0)

	ins := trace.New()
	sys, err := core.NewSystem(core.Options{
		Nodes: *nodes, SlotsPerNode: *slots,
		StableDir: *stable, Ins: ins,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	ref, err := sys.OpenGlobalSnapshot(refDir)
	if err != nil {
		return err
	}
	// Undrained journal entries are unrecoverable from a standalone
	// tool: the simulated nodes holding the local stages died with the
	// original process. Discard them so resolution only ever considers
	// fully drained intervals.
	if n, err := snapshot.OpenJournal(ref).DiscardUndrained("ompi-restart: captured nodes did not survive the original process"); err != nil {
		return fmt.Errorf("drain journal: %w", err)
	} else if n > 0 {
		fmt.Printf("ompi-restart: discarded %d captured-but-undrained interval(s); restarting from the newest fully drained interval\n", n)
	}
	// Replica-aware resolution: verify the primary copy first, fall back
	// to any intact replica on a live node, and repair the primary from
	// it before the relaunch — the restart path always reads a verified
	// primary.
	src, meta, err := sys.ResolveRestart(refDir, *interval)
	if err != nil {
		return err
	}
	iv := src.Interval
	if src.Repaired {
		fmt.Printf("ompi-restart: primary copy of interval %d was unusable; repaired from %s\n", iv, src.Copy)
	}
	factory, err := apps.Lookup(meta.AppName, meta.AppArgs)
	if err != nil {
		return fmt.Errorf("snapshot names application %q: %w", meta.AppName, err)
	}
	fmt.Printf("ompi-restart: %s interval %d: app %q np %d (originally on %v)\n",
		refDir, iv, meta.AppName, meta.NumProcs, meta.Nodes)

	job, err := sys.Restart(ref, iv, factory)
	if err != nil {
		return err
	}
	// The restarted job is itself checkpointable again: serve control,
	// once the job is registered, so a request that finds the session
	// also finds the job.
	ctl, err := sys.Cluster().ServeControl("", true)
	if err != nil {
		return err
	}
	defer ctl.Close()
	fmt.Printf("ompi-restart: pid %d, control %s\n", os.Getpid(), ctl.Addr())
	err = job.Wait()
	if *verbose {
		fmt.Println("trace:", ins.Log.Summary())
	}
	if err != nil {
		return err
	}
	fmt.Println("ompi-restart: job completed")
	return nil
}
