// Command ompi-snapshot inspects and manages global snapshot references
// on stable storage: the usability complement to ompi-checkpoint and
// ompi-restart (paper §4 — the user deals in one opaque reference, and
// this tool answers "what is in it?" without any knowledge of the
// underlying checkpointers' file formats).
//
//	ompi-snapshot list   --stable DIR                  # all references
//	ompi-snapshot show   --stable DIR REF              # intervals + per-rank detail
//	ompi-snapshot stats  --stable DIR REF              # gather cost + dedup savings
//	ompi-snapshot verify --stable DIR REF              # validate metadata + images
//	ompi-snapshot scrub  --stable DIR REF --replicas K # re-hash copies, repair, re-replicate
//	ompi-snapshot prune  --stable DIR REF --keep N     # drop old intervals + excess replicas
//
// scrub and prune are replica-aware: inside a running cluster they also
// reach the node-local replica trees (core.Supervise runs the same scrub
// engine periodically); from this standalone tool they operate on the
// copies reachable through stable storage.
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"strings"

	"repro/internal/core/snapshot"
	"repro/internal/vfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ompi-snapshot:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	sub := os.Args[1]
	fs := flag.NewFlagSet("ompi-snapshot "+sub, flag.ContinueOnError)
	stable := fs.String("stable", "./ompi_stable", "stable storage directory")
	keep := fs.Int("keep", 1, "prune: newest intervals to keep")
	replicas := fs.Int("replicas", -1, "desired replicas per interval (scrub: heal to K; prune: reclaim beyond K; -1 leaves counts alone)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		return err
	}
	fsys, err := vfs.NewOS(*stable)
	if err != nil {
		return err
	}
	switch sub {
	case "list":
		return list(fsys)
	case "show", "stats", "verify", "scrub", "prune":
		if fs.NArg() != 1 {
			return fmt.Errorf("%s needs a global snapshot reference", sub)
		}
		ref := snapshot.GlobalRef{FS: fsys, Dir: fs.Arg(0)}
		switch sub {
		case "show":
			return show(ref)
		case "stats":
			return stats(ref)
		case "verify":
			return verify(ref)
		case "scrub":
			return scrub(ref, *replicas)
		default:
			return prune(ref, *keep, *replicas)
		}
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ompi-snapshot <list|show|stats|verify|scrub|prune> [--stable DIR] [REF] [--keep N] [--replicas K]`)
}

func list(fsys vfs.FS) error {
	entries, err := fsys.ReadDir(".")
	if err != nil {
		return err
	}
	fmt.Printf("%-40s %9s %5s %9s\n", "REFERENCE", "INTERVALS", "NP", "APP")
	for _, e := range entries {
		if !e.IsDir || !strings.HasSuffix(e.Name, ".ckpt") {
			continue
		}
		ref := snapshot.GlobalRef{FS: fsys, Dir: e.Name}
		ivs, err := snapshot.Intervals(ref)
		if err != nil || len(ivs) == 0 {
			fmt.Printf("%-40s %9s\n", e.Name, "(empty)")
			continue
		}
		meta, err := snapshot.ReadGlobal(ref, ivs[len(ivs)-1])
		if err != nil {
			fmt.Printf("%-40s %9d %5s %9s\n", e.Name, len(ivs), "?", "(corrupt)")
			continue
		}
		fmt.Printf("%-40s %9d %5d %9s\n", e.Name, len(ivs), meta.NumProcs, meta.AppName)
	}
	return nil
}

func show(ref snapshot.GlobalRef) error {
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		return err
	}
	for _, iv := range ivs {
		meta, err := snapshot.ReadGlobal(ref, iv)
		if err != nil {
			fmt.Printf("interval %d: CORRUPT: %v\n", iv, err)
			continue
		}
		fmt.Printf("interval %d: job %d app %q np %d taken %s\n",
			iv, meta.JobID, meta.AppName, meta.NumProcs, meta.Taken.Format("2006-01-02 15:04:05"))
		if len(meta.AppArgs) > 0 {
			fmt.Printf("  args: %s\n", strings.Join(meta.AppArgs, " "))
		}
		if len(meta.MCAParams) > 0 {
			fmt.Printf("  mca:  %v\n", meta.MCAParams)
		}
		for _, pe := range meta.Procs {
			lref := snapshot.LocalRefIn(ref, iv, pe)
			size, _ := vfs.TreeSize(lref.FS, lref.Dir)
			fmt.Printf("  rank %2d  node %-8s crs %-6s %8d bytes  %s\n",
				pe.Vpid, pe.Node, pe.Component, size, pe.LocalDir)
		}
	}
	return nil
}

// stats reports what each committed interval's gather cost: total
// payload, bytes that actually crossed the network, bytes satisfied
// from the previous interval by the content-addressed dedup path, and
// the modeled gather time. Snapshots written before gather records
// existed are estimated from the checksum manifests instead: the bytes
// whose hashes already appear in the previous interval are the ones an
// incremental gather would have skipped. Intervals committed with a
// phase breakdown get a second table decomposing the checkpoint's wall
// time into the paper's cost phases.
func stats(ref snapshot.GlobalRef) error {
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		return err
	}
	if len(ivs) == 0 {
		return fmt.Errorf("no committed intervals")
	}
	fmt.Printf("%-8s %12s %12s %12s %7s %10s %9s\n",
		"INTERVAL", "PAYLOAD", "MOVED", "DEDUPED", "DEDUP%", "SIM-MS", "TRANSFERS")
	var prev *snapshot.GlobalMeta
	phased := make(map[int]*snapshot.PhaseBreakdown, len(ivs))
	for _, iv := range ivs {
		meta, err := snapshot.ReadGlobal(ref, iv)
		if err != nil {
			fmt.Printf("%-8d CORRUPT: %v\n", iv, err)
			prev = nil
			continue
		}
		if meta.Phases != nil {
			phased[iv] = meta.Phases
		}
		if g := meta.Gather; g != nil {
			pct := 0.0
			if g.Bytes > 0 {
				pct = 100 * float64(g.BytesDeduped) / float64(g.Bytes)
			}
			fmt.Printf("%-8d %12d %12d %12d %6.1f%% %10.3f %9d\n",
				iv, g.Bytes, g.BytesMoved, g.BytesDeduped, pct,
				float64(g.SimulatedNS)/1e6, g.Transfers)
		} else {
			total, shared := manifestOverlap(ref, iv, &meta, prev)
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(shared) / float64(total)
			}
			fmt.Printf("%-8d %12d %12d %12d %6.1f%% %10s %9s  (estimated from manifest)\n",
				iv, total, total-shared, shared, pct, "-", "-")
		}
		prev = &meta
	}
	if len(phased) > 0 {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Printf("\nphases (wall ms; frontier/quiesce/capture are the slowest rank; blocked is\napplication-stalled time, drain-wait the interval's time in the queue):\n")
		fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s %10s %10s %10s\n",
			"INTERVAL", "FRONTIER", "QUIESCE", "CAPTURE", "BLOCKED", "DRAIN-WAIT", "DRAIN", "GATHER", "COMMIT", "TOTAL")
		for _, iv := range ivs {
			pb, ok := phased[iv]
			if !ok {
				continue
			}
			fmt.Printf("%-8d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				iv, ms(pb.FrontierWallNS), ms(pb.QuiesceWallNS), ms(pb.CaptureWallNS),
				ms(pb.BlockedNS), ms(pb.DrainWaitNS), ms(pb.DrainNS),
				ms(pb.GatherNS), ms(pb.CommitNS), ms(pb.TotalNS))
		}
	}
	return journalStats(ref)
}

// journalStats prints the drain journal, when one exists: each
// interval's position in the two-phase lifecycle and its checkpoint
// level. The LEVEL column tells the durability rungs apart: "L1"
// (node-local hold), "L2" (replica-promoted hold), "L3" (stable
// commit) — and "parked" for intervals backlogged through a
// stable-store outage, which are a degraded state, not a cadence-held
// L1 checkpoint. Undrained entries mean the interval exists only on
// the original nodes' local stores — not restartable from this stable
// store alone.
func journalStats(ref snapshot.GlobalRef) error {
	entries, err := snapshot.OpenJournal(ref).Load()
	if err != nil {
		return fmt.Errorf("drain journal: %w", err)
	}
	if len(entries) == 0 {
		return nil
	}
	fmt.Printf("\ndrain journal:\n")
	fmt.Printf("%-8s %-10s %-7s %12s %-20s %s\n", "INTERVAL", "STATE", "LEVEL", "STAGED", "UPDATED", "CAUSE")
	undrained, parked := 0, 0
	for _, e := range entries {
		if !e.State.Terminal() {
			undrained++
		}
		if e.Parked {
			parked++
		}
		fmt.Printf("%-8d %-10s %-7s %12d %-20s %s\n",
			e.Interval, e.State, e.LevelLabel(), e.StagedBytes,
			e.UpdatedAt.Format("2006-01-02 15:04:05"), e.Cause)
	}
	if undrained > 0 {
		fmt.Printf("%d interval(s) captured but not drained: their payload lives only on the\noriginal nodes' local stores (ompi-restart discards them)\n", undrained)
	}
	if parked > 0 {
		fmt.Printf("%d interval(s) parked by a stable-store outage (degraded, awaiting catch-up —\nnot cadence-held L1 checkpoints)\n", parked)
	}
	levelStats(ref, entries)
	return nil
}

// levelStats prints the multilevel survey: each known interval's
// presence across the L1/L2/L3 rungs and whether it is restorable.
// From this standalone tool only the stable rung is reachable, so
// sub-stable holds show their journal label with no probed stages.
func levelStats(ref snapshot.GlobalRef, entries []snapshot.JournalEntry) {
	jobID := 0
	if len(entries) > 0 {
		if meta, err := snapshot.ReadGlobal(ref, entries[len(entries)-1].Interval); err == nil {
			jobID = int(meta.JobID)
		}
	}
	res := &snapshot.Resolver{Ref: ref}
	infos := res.SurveyLevels(jobID, entries)
	if len(infos) == 0 {
		return
	}
	fmt.Printf("\nlevels:\n")
	fmt.Printf("%-8s %-7s %-6s %8s %8s %s\n", "INTERVAL", "LEVEL", "BEST", "L1-NODES", "L2-HELD", "RESTORABLE")
	for _, info := range infos {
		best := "-"
		if info.Best > 0 {
			best = fmt.Sprintf("L%d", info.Best)
		}
		fmt.Printf("%-8d %-7s %-6s %8d %8d %v\n",
			info.Interval, info.Label, best, len(info.L1Nodes), len(info.L2Held), info.Restorable)
	}
}

// manifestOverlap sizes an interval's payload and the portion whose
// checksums already existed in the previous interval's manifest — what
// an incremental gather would have deduped.
func manifestOverlap(ref snapshot.GlobalRef, iv int, meta, prev *snapshot.GlobalMeta) (total, shared int64) {
	var prevIdx map[string]string
	if prev != nil {
		prevIdx = prev.ByChecksum()
	}
	dir := ref.IntervalDir(iv)
	for rel, sum := range meta.Checksums {
		info, err := ref.FS.Stat(path.Join(dir, rel))
		if err != nil {
			continue
		}
		total += info.Size
		if _, ok := prevIdx[sum]; ok {
			shared += info.Size
		}
	}
	return total, shared
}

func verify(ref snapshot.GlobalRef) error {
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		return err
	}
	bad := 0
	for _, iv := range ivs {
		// Full validation: COMMITTED marker, metadata digest, and every
		// payload checksum recorded at commit time.
		meta, err := snapshot.VerifyInterval(ref, iv)
		if err != nil {
			fmt.Printf("interval %d: BAD: %v\n", iv, err)
			bad++
			continue
		}
		for _, pe := range meta.Procs {
			lref := snapshot.LocalRefIn(ref, iv, pe)
			lmeta, err := snapshot.ReadLocal(lref)
			if err != nil {
				fmt.Printf("interval %d rank %d: BAD local metadata: %v\n", iv, pe.Vpid, err)
				bad++
				continue
			}
			for _, f := range lmeta.Files {
				if !vfs.Exists(lref.FS, path.Join(lref.Dir, f)) {
					fmt.Printf("interval %d rank %d: MISSING payload %s\n", iv, pe.Vpid, f)
					bad++
				}
			}
		}
		fmt.Printf("interval %d: ok (%d ranks)\n", iv, meta.NumProcs)
	}
	// Leftovers from aborted or interrupted checkpoints are problems too:
	// they are never restartable and should be pruned.
	leftovers, err := snapshot.Uncommitted(ref)
	if err != nil {
		return err
	}
	for _, d := range leftovers {
		fmt.Printf("uncommitted: %s (aborted or interrupted checkpoint; prune it)\n", d)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d problems found", bad)
	}
	fmt.Println("snapshot is restartable")
	return nil
}

// scrub re-hashes every reachable copy of every interval against its
// manifest and prints the per-interval health ledger. With --replicas K
// it also heals: a damaged primary is rebuilt from any intact replica,
// and intervals below K intact replicas are re-replicated.
func scrub(ref snapshot.GlobalRef, replicas int) error {
	res := &snapshot.Resolver{Ref: ref}
	k := replicas
	if k < 0 {
		k = 0 // report-only: verify what exists, create nothing
	}
	rep := res.Scrub(k)
	if len(rep.Intervals) == 0 {
		return fmt.Errorf("no interval copies found")
	}
	for _, h := range rep.Intervals {
		fmt.Printf("interval %d: %d/%d copies intact\n", h.Interval, h.Intact, h.Desired)
		for _, c := range h.Copies {
			state := "ok"
			if !c.OK {
				state = "BAD: " + c.Err
			} else if c.Repaired {
				state = "repaired"
			}
			fmt.Printf("  %-16s %s\n", c.Copy, state)
		}
		for _, a := range h.Actions {
			fmt.Printf("  action: %s\n", a)
		}
	}
	fmt.Printf("scrub: %d primaries repaired, %d copies re-replicated, %d intervals below target\n",
		rep.Repaired, rep.Rereplicated, rep.Unhealthy)
	if rep.Unhealthy > 0 {
		return fmt.Errorf("%d interval(s) remain below the desired copy count", rep.Unhealthy)
	}
	return nil
}

// prune is replica-aware: excess replicas are reclaimed first, old
// intervals (primary and replicas) go next, and the last intact copy of
// the newest restartable interval is never dropped — even when the
// primary is already corrupt.
func prune(ref snapshot.GlobalRef, keep, replicas int) error {
	if keep < 1 {
		return fmt.Errorf("--keep must be at least 1")
	}
	res := &snapshot.Resolver{Ref: ref}
	rep, err := res.Prune(keep, replicas)
	for _, r := range rep.Removed {
		fmt.Printf("pruned %s\n", r)
	}
	if err != nil {
		return err
	}
	if rep.DamagedKept > 0 {
		fmt.Printf("no interval passes verification; keeping %d damaged interval(s)\n", rep.DamagedKept)
		return nil
	}
	fmt.Printf("keeping %d restartable interval(s)\n", len(rep.Kept))
	return nil
}
