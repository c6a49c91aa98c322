// Command ompi-run is the simulator's mpirun: it boots a simulated
// cluster, launches a parallel job running one of the built-in
// applications, serves the control socket for the asynchronous tools
// (ompi-checkpoint, ompi-ps) and waits for the job to finish.
//
// Usage:
//
//	ompi-run [flags] <app> [app flags...]
//	ompi-run --np 8 --nodes 4 --mca crcp=bkmrk ring -iters 0
//
// The process registers its control address under its OS pid, so
// `ompi-checkpoint $(pidof ompi-run)` works exactly like the paper's
// tool invocation. Global snapshots are written to --stable (a real
// directory) so they survive this process for ompi-restart.
//
// The coordinator itself is crash-safe: every job mutation is recorded
// in a durable ledger under --stable. --reattach-on-crash rebuilds a
// crashed coordinator in place over the still-running simulated
// cluster; `ompi-run --reattach --stable DIR` is the cold path — after
// the whole process died, it replays the ledger and restarts every
// unfinished job from its newest valid snapshot, no application
// argument needed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/orte/ledger"
	"repro/internal/orte/runtime"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// mcaFlags collects repeated --mca key=value flags.
type mcaFlags []string

func (m *mcaFlags) String() string     { return strings.Join(*m, ",") }
func (m *mcaFlags) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ompi-run:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("ompi-run", flag.ContinueOnError)
	np := fs.Int("np", 4, "number of ranks")
	nodes := fs.Int("nodes", 2, "number of simulated nodes")
	slots := fs.Int("slots", 4, "process slots per node")
	stable := fs.String("stable", "./ompi_stable", "stable storage directory (survives this process)")
	every := fs.Duration("checkpoint-every", 0, "take a global checkpoint periodically (0 = off)")
	asyncDrain := fs.Bool("async-drain", false, "drain periodic checkpoints in the background: the job only blocks for the capture phase")
	levelsSpec := fs.String("levels", "", `multilevel checkpointing: "auto" self-tunes every level's cadence (Young/Daly), or fixed cadences like "l1=5ms,l2=25ms,l3=200ms" (an omitted level is off). Keys combine: "auto,l1=5ms" seeds the tuner; "replan=D", "min=D", "max=D" bound it`)
	autoRestart := fs.Int("auto-restart", 0, "after a failure, restart the job up to N times from the newest valid snapshot (0 = off)")
	recover := fs.String("recover", "whole-job", `node-loss posture: "whole-job" restarts the job from the newest snapshot; "in-job" respawns only the lost ranks in place and keeps the survivors running (falls back to whole-job when a session cannot converge)`)
	reattachOnCrash := fs.Bool("reattach-on-crash", false, "rebuild the coordinator in place when it crashes mid-run instead of wedging the control plane")
	drainWeight := fs.Int("drain-weight", 0, "drain QoS weight for this job in the multi-job checkpoint scheduler (0 = the snapc_sched_weight MCA parameter)")
	reattach := fs.Bool("reattach", false, "adopt a crashed ompi-run's jobs: replay the durable job ledger under --stable and restart every unfinished job from its newest valid snapshot (no application argument needed)")
	verbose := fs.Bool("v", false, "print trace summary at exit")
	var mcaArgs mcaFlags
	fs.Var(&mcaArgs, "mca", "MCA parameter key=value (repeatable), e.g. --mca crcp=bkmrk --mca crs=self")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ompi-run [flags] <app> [app flags...]\napplications:\n")
		apps.Usage(os.Stderr)
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	params, err := mca.ParseParams(mcaArgs)
	if err != nil {
		return err
	}
	var policy core.RecoveryPolicy
	switch *recover {
	case "whole-job":
		policy = core.RecoverWholeJob
	case "in-job":
		policy = core.RecoverInJob
	default:
		return fmt.Errorf("unknown --recover policy %q (want whole-job or in-job)", *recover)
	}
	sopts := core.SuperviseOptions{
		CheckpointEvery: *every,
		Drain:           core.Drain{Async: *asyncDrain},
		Recovery:        core.Recovery{Policy: policy, AutoRestart: *autoRestart},
		Reattach:        core.Reattach{OnCrash: *reattachOnCrash},
		Scheduler:       core.Scheduler{Weight: *drainWeight},
		Progress: func(ck core.CheckpointResult) {
			fmt.Printf("ompi-run: periodic Snapshot Ref.: %d %s\n", ck.Interval, ck.Dir)
		},
	}
	if *levelsSpec != "" {
		lv, err := parseLevels(*levelsSpec)
		if err != nil {
			return err
		}
		sopts.Levels = lv
	}
	if *reattach {
		if fs.NArg() > 0 {
			return fmt.Errorf("--reattach takes no application argument; it comes from the snapshots")
		}
		return runReattach(*stable, *nodes, *slots, params, sopts, *verbose)
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing application name")
	}
	appName := fs.Arg(0)
	appArgs := fs.Args()[1:]
	factory, err := apps.Lookup(appName, appArgs)
	if err != nil {
		return err
	}

	ins := trace.New()
	sys, err := core.NewSystem(core.Options{
		Nodes: *nodes, SlotsPerNode: *slots,
		StableDir: *stable, Params: params, Ins: ins,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	ctl, err := sys.Cluster().ServeControl("", true)
	if err != nil {
		return err
	}
	defer ctl.Close()

	job, err := sys.Launch(core.JobSpec{
		Name: appName, Args: appArgs, NP: *np, AppFactory: factory,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ompi-run: pid %d, job %d, np %d on %d nodes, control %s\n",
		os.Getpid(), job.JobID(), *np, *nodes, ctl.Addr())
	fmt.Printf("ompi-run: checkpoint with: ompi-checkpoint %d\n", os.Getpid())

	// The supervision loop owns periodic checkpointing (the
	// scheduler-style automation the paper's asynchronous tool path
	// enables) and, with --auto-restart, relaunches a failed job from the
	// newest valid global snapshot onto the surviving nodes.
	rep, err := sys.Supervise(job, factory, sopts)
	if *verbose {
		fmt.Println("trace:", ins.Log.Summary())
	}
	printReport(rep)
	if err != nil {
		return err
	}
	fmt.Println("ompi-run: job completed")
	return nil
}

// parseLevels parses the --levels spec: a comma-separated list of
// "auto", per-level cadences (l1=5ms), and tuner bounds (replan, min,
// max).
func parseLevels(spec string) (core.Levels, error) {
	var lv core.Levels
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.EqualFold(part, "auto") {
			lv.Auto = true
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return lv, fmt.Errorf(`--levels: %q is not "auto" or key=duration`, part)
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return lv, fmt.Errorf("--levels: %s: %w", k, err)
		}
		switch strings.ToLower(k) {
		case "l1":
			lv.L1 = d
		case "l2":
			lv.L2 = d
		case "l3":
			lv.L3 = d
		case "replan":
			lv.Replan = d
		case "min":
			lv.Tuning.Min = d
		case "max":
			lv.Tuning.Max = d
		default:
			return lv, fmt.Errorf("--levels: unknown key %q (want l1, l2, l3, replan, min, max or auto)", k)
		}
	}
	return lv, nil
}

// printReport renders one supervised run's summary lines.
func printReport(rep core.SuperviseReport) {
	if rep.FailedCheckpoints > 0 {
		fmt.Fprintf(os.Stderr, "ompi-run: %d checkpoint attempt(s) aborted\n", rep.FailedCheckpoints)
	}
	if ij := rep.InJobRecovery; ij.Sessions > 0 {
		fmt.Printf("ompi-run: in-job recovery: %d session(s), %d rank(s) recovered, %d migrated, %d retr%s, %d fallback(s), %d B restored\n",
			ij.Sessions, ij.RecoveredRanks, ij.Migrations, ij.Retries, plural(ij.Retries, "y", "ies"), ij.Fallbacks, ij.RestoredBytes)
	}
	if rep.Restarts > 0 {
		fmt.Printf("ompi-run: recovered from %d failure(s) via auto-restart\n", rep.Restarts)
		// Which interval — and which copy of it — each restart used:
		// a replica source means the restart survived primary loss, a
		// held source means it never touched stable storage at all.
		for i, src := range rep.Sources {
			state := "intact primary"
			switch {
			case src.Repaired:
				state = "primary repaired from " + src.Copy
			case strings.HasPrefix(src.Copy, "held:"):
				state = "hold-direct, no stable round trip"
			}
			fmt.Printf("ompi-run: restart %d used %s interval %d (%s, %s)\n",
				i+1, src.Dir, src.Interval, src.Copy, state)
		}
	}
	if lc := rep.LevelCheckpoints; lc[0]+lc[1]+lc[2] > 0 || rep.Retunes > 0 {
		fmt.Printf("ompi-run: levels: %d L1 seal(s), %d L2 promotion(s), %d L3 commit(s), %d cadence retune(s)\n",
			lc[0], lc[1], lc[2], rep.Retunes)
	}
	if rep.Scrubs > 0 {
		fmt.Printf("ompi-run: %d periodic scrub pass(es) completed\n", rep.Scrubs)
	}
	if dr := rep.DrainRecovery; dr.FastForwarded+dr.Redrained+dr.Discarded+dr.Superseded > 0 {
		fmt.Printf("ompi-run: drain recovery: %d fast-forwarded, %d re-drained, %d discarded, %d superseded\n",
			dr.FastForwarded, dr.Redrained, dr.Discarded, dr.Superseded)
	}
	if rep.DegradedCheckpoints > 0 {
		fmt.Printf("ompi-run: %d checkpoint(s) landed node-local during a stable-store outage (parked for catch-up)\n",
			rep.DegradedCheckpoints)
	}
	if rep.Reattaches > 0 {
		fmt.Printf("ompi-run: coordinator crashed and was rebuilt in place %d time(s)\n", rep.Reattaches)
	}
}

// runReattach is the cold half of HNP crash recovery: the original
// ompi-run process died, but its durable job ledger and global
// snapshots survive under --stable. Replay the ledger, refuse if a
// live mpirun still owns a registered session (use the tools against
// it instead), then restart every unfinished job from its newest valid
// snapshot and supervise it as usual.
func runReattach(stable string, nodes, slots int, params *mca.Params, sopts core.SuperviseOptions, verbose bool) error {
	// A registered session answering pings means an mpirun is alive —
	// possibly mid-headless-window and about to reattach in place.
	// Adopting its jobs from underneath it would fork the lineage.
	sessions, err := runtime.ScanSessions()
	if err != nil {
		return err
	}
	for pid, addr := range sessions {
		if resp, err := runtime.ControlDialTimeout(addr, runtime.ControlRequest{Op: "ping"}, 2*time.Second); err == nil && resp.OK {
			return fmt.Errorf("mpirun pid %d is still alive at %s; reattach refused (checkpoint or stop it first)", pid, addr)
		}
	}

	fsys, err := vfs.NewOS(stable)
	if err != nil {
		return fmt.Errorf("stable storage: %w", err)
	}
	ledgerDir := ""
	if params != nil {
		ledgerDir = params.String("hnp_ledger_dir", ledger.DefaultDir)
	}
	st, dropped, err := ledger.Replay(fsys, ledgerDir)
	if err != nil {
		return fmt.Errorf("no usable job ledger under %s: %w", stable, err)
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "ompi-run: ledger replay dropped %d damaged trailing record(s)\n", dropped)
	}
	live := st.Live()
	fmt.Printf("ompi-run: ledger replayed: seq %d, %d job(s) (%d unfinished), %d coordinator crash(es), %d prior reattach(es)\n",
		st.Seq, len(st.Jobs), len(live), st.Crashes, st.Reattaches)
	if len(live) == 0 {
		fmt.Println("ompi-run: every recorded job finished; nothing to reattach")
		return nil
	}

	ins := trace.New()
	sys, err := core.NewSystem(core.Options{
		Nodes: nodes, SlotsPerNode: slots,
		StableDir: stable, Params: params, Ins: ins,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	ctl, err := sys.Cluster().ServeControl("", true)
	if err != nil {
		return err
	}
	defer ctl.Close()
	fmt.Printf("ompi-run: pid %d, control %s\n", os.Getpid(), ctl.Addr())

	var firstErr error
	for _, id := range live {
		js := st.Jobs[id]
		dir := snapshot.GlobalDirName(id)
		ref, err := sys.OpenGlobalSnapshot(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompi-run: job %d (%s, np %d) left no restartable snapshot; cannot adopt it: %v\n",
				id, js.Name, js.NP, err)
			continue
		}
		// The original process's orteds died with it, so undrained
		// journal entries point at local stages that no longer exist.
		if n, err := snapshot.OpenJournal(ref).DiscardUndrained("ompi-run --reattach: captured nodes did not survive the original process"); err != nil {
			fmt.Fprintf(os.Stderr, "ompi-run: job %d drain journal: %v\n", id, err)
			continue
		} else if n > 0 {
			fmt.Printf("ompi-run: job %d: discarded %d captured-but-undrained interval(s)\n", id, n)
		}
		src, meta, err := sys.ResolveRestart(dir, -1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompi-run: job %d cannot be restarted: %v\n", id, err)
			continue
		}
		iv := src.Interval
		if src.Repaired {
			fmt.Printf("ompi-run: job %d interval %d primary was unusable; repaired from %s\n", id, iv, src.Copy)
		}
		factory, err := apps.Lookup(meta.AppName, meta.AppArgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompi-run: job %d snapshot names application %q: %v\n", id, meta.AppName, err)
			continue
		}
		fmt.Printf("ompi-run: adopting job %d: app %q np %d from %s interval %d\n",
			id, meta.AppName, meta.NumProcs, dir, iv)
		job, err := sys.Restart(ref, iv, factory)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompi-run: job %d restart: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rep, err := sys.Supervise(job, factory, sopts)
		printReport(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompi-run: adopted job %d failed: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Printf("ompi-run: adopted job %d completed\n", id)
	}
	if verbose {
		fmt.Println("trace:", ins.Log.Summary())
	}
	return firstErr
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
