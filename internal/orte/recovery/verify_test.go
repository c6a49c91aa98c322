package recovery_test

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/opal/crs"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// shareFiles lists rank r's payload files in an interval's manifest,
// relative to the rank's local snapshot directory.
func shareFiles(meta snapshot.GlobalMeta, r int) []string {
	var out []string
	prefix := snapshot.LocalDirName(r) + "/"
	for rel := range meta.Checksums {
		if strings.HasPrefix(rel, prefix) {
			out = append(out, strings.TrimPrefix(rel, prefix))
		}
	}
	sort.Strings(out)
	return out
}

// shareBytes sums the sizes of rank r's files in an interval directory.
func shareBytes(t *testing.T, fsys vfs.FS, dir string, meta snapshot.GlobalMeta, r int) int64 {
	t.Helper()
	var n int64
	for _, f := range shareFiles(meta, r) {
		info, err := fsys.Stat(path.Join(dir, snapshot.LocalDirName(r), f))
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size
	}
	return n
}

// stageShare is the path of rank r's share in the job's local stage of
// an interval.
func stageShare(j *core.Job, iv, r int) string {
	return path.Join(snapshot.LocalStageBase(int(j.JobID()), iv), snapshot.LocalDirName(r))
}

// stableShare is the path of rank r's share in a committed interval.
func stableShare(res core.CheckpointResult, r int) string {
	return path.Join(res.Dir, snapshot.IntervalDirName(res.Interval), snapshot.LocalDirName(r))
}

// TestRecoveryReadsOnlyWhatItRestores: 8 ranks, one per node, and the
// job keeps its stages. After a node loss the stable store serves
// payload reads for the lost rank's share alone, once each; every
// survivor reads its own share once, to hash it, before its restore
// reads the restored files; nothing else of the interval is read; and
// the recovery stages exactly the lost share.
func TestRecoveryReadsOnlyWhatItRestores(t *testing.T) {
	const np, steps, lost = 8, 1500, 3
	inj := faultsim.New(1)
	sys := newSystem(t, np+1, 1, nil, inj)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, steps, 100*time.Microsecond)})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	res, err := j.Checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	local, err := snapshot.ReadLocal(snapshot.LocalRef{FS: sys.Cluster().Stable(), Dir: stableShare(res, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Inert bitrot rules count the reads of each share and damage nothing.
	point := func(label, dir string) string { return "fs.bitrot:" + label + ":" + dir }
	for r := 0; r < np; r++ {
		inj.AddRule(faultsim.Rule{Point: point("stable", stableShare(res, r))})
		inj.AddRule(faultsim.Rule{Point: point(j.NodeOf(r), stageShare(j, res.Interval, r))})
	}
	nodes := make(map[int]string, np)
	for r := 0; r < np; r++ {
		nodes[r] = j.NodeOf(r)
	}
	if err := sys.Cluster().KillNode(nodes[lost]); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not survive node loss: %v", err)
	}
	st := co.Stats()
	if st.Sessions != 1 || st.RecoveredRanks != 1 || st.Fallbacks != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want one clean session", st)
	}
	for r := 0; r < np; r++ {
		files := len(shareFiles(res.Meta, r))
		stable := inj.Ops(point("stable", stableShare(res, r)))
		stage := inj.Ops(point(nodes[r], stageShare(j, res.Interval, r)))
		switch {
		case r == lost && stable != files:
			t.Errorf("lost rank %d: stable served %d reads of its %d files, want each once", r, stable, files)
		case r != lost && stable != 0:
			t.Errorf("survivor %d: stable served %d reads of its share, want none", r, stable)
		case r != lost && stage != files+len(local.Files):
			t.Errorf("survivor %d: %d reads of its stage, want %d to hash it and %d to restore",
				r, stage, files, len(local.Files))
		}
	}
	want := shareBytes(t, sys.Cluster().Stable(), path.Join(res.Dir, snapshot.IntervalDirName(res.Interval)), res.Meta, lost)
	if st.RestoredBytes != want {
		t.Errorf("RestoredBytes = %d, want the lost share's %d", st.RestoredBytes, want)
	}
}

// TestRecoveryDamagedStageFallsThroughToStable: a survivor's retained
// stage rots. Its hash fails where it is read, so that rank restores
// from stable storage instead, and the run still matches the oracle.
func TestRecoveryDamagedStageFallsThroughToStable(t *testing.T) {
	const np, steps, damaged, lost = 4, 1200, 1, 2
	want := oracleState(t, np, steps)
	inj := faultsim.New(1)
	sys := newSystem(t, np+1, 1, nil, inj)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, steps, 100*time.Microsecond)})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	res, err := j.Checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	inj.AddRule(faultsim.Rule{
		Point: "fs.bitrot:" + j.NodeOf(damaged) + ":" + path.Join(stageShare(j, res.Interval, damaged), crs.ImageFile),
		Times: 1,
	})
	if err := sys.Cluster().KillNode(j.NodeOf(lost)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatalf("job did not survive node loss: %v", err)
	}
	if n := inj.Fired("fs.bitrot"); n != 1 {
		t.Fatalf("bitrot fired %d times, want 1", n)
	}
	st := co.Stats()
	if st.RecoveredRanks != 1 || st.Fallbacks != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want one clean session", st)
	}
	ins := sys.Ins()
	if got := ins.Counter("ompi_recovery_source_stable_total").Value(); got != 2 {
		t.Errorf("%d ranks restored from stable, want the lost rank and the damaged survivor", got)
	}
	if got := ins.Counter("ompi_recovery_source_local_total").Value(); got != np-2 {
		t.Errorf("%d ranks restored in place, want %d", got, np-2)
	}
	dir := path.Join(res.Dir, snapshot.IntervalDirName(res.Interval))
	stable := sys.Cluster().Stable()
	if want := shareBytes(t, stable, dir, res.Meta, lost) + shareBytes(t, stable, dir, res.Meta, damaged); st.RestoredBytes != want {
		t.Errorf("RestoredBytes = %d, want the two shares' %d", st.RestoredBytes, want)
	}
	requireStencilEqual(t, j, want)
}

// TestRecoveryDamagedStableShare: the lost rank's only copy, on stable
// storage, rots. Staging it fails its hash, so no rank restores the
// damaged bytes: the session recovers from the older interval when
// there is one, and falls back to whole-job restart when there is not.
// Neither counts against the replacement node.
func TestRecoveryDamagedStableShare(t *testing.T) {
	const np, steps, lost = 4, 1200, 2
	want := oracleState(t, np, steps)
	for _, older := range []bool{true, false} {
		t.Run(fmt.Sprintf("older=%v", older), func(t *testing.T) {
			inj := faultsim.New(1)
			sys := newSystem(t, np+1, 1, nil, inj)
			j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, steps, 100*time.Microsecond)})
			if err != nil {
				t.Fatalf("Launch: %v", err)
			}
			co := sys.Recovery()
			j.SetRecoveryHandler(co)
			var first core.CheckpointResult
			if older {
				if first, err = j.Checkpoint(false); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			res, err := j.Checkpoint(false)
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			inj.AddRule(faultsim.Rule{Point: "fs.bitrot:stable:" + path.Join(stableShare(res, lost), crs.ImageFile), Times: 1})
			if err := sys.Cluster().KillNode(j.NodeOf(lost)); err != nil {
				t.Fatalf("KillNode: %v", err)
			}
			werr := j.Wait()
			if n := inj.Fired("fs.bitrot"); n != 1 {
				t.Fatalf("bitrot fired %d times, want 1", n)
			}
			st := co.Stats()
			if st.Retries != 0 {
				t.Errorf("stats = %+v: a damaged source excluded the replacement node", st)
			}
			if !older {
				if werr == nil || st.Fallbacks != 1 {
					t.Fatalf("Wait = %v, stats = %+v; want a fallback to whole-job restart", werr, st)
				}
				return
			}
			if werr != nil || st.Fallbacks != 0 || st.RecoveredRanks != 1 {
				t.Fatalf("Wait = %v, stats = %+v; want recovery from the older interval", werr, st)
			}
			for _, ri := range j.RankTable() {
				if ri.Interval != first.Interval {
					t.Errorf("rank %d rolled back to interval %d, want the older %d", ri.Rank, ri.Interval, first.Interval)
				}
			}
			requireStencilEqual(t, j, want)
		})
	}
}

// outageFS fails the reads of every file below a prefix, once armed,
// as a stable store that cannot be reached would.
type outageFS struct {
	vfs.FS
	mu     sync.Mutex
	prefix string
}

func (o *outageFS) arm(prefix string) {
	o.mu.Lock()
	o.prefix = prefix
	o.mu.Unlock()
}

func (o *outageFS) ReadFile(name string) ([]byte, error) {
	o.mu.Lock()
	p := o.prefix
	o.mu.Unlock()
	if p != "" && strings.HasPrefix(name, p+"/") {
		return nil, fmt.Errorf("vfs: read %q: %w", name, faultsim.ErrOutage)
	}
	return o.FS.ReadFile(name)
}

// TestRecoveryStableOutageExcludesNoNode: the stable store cannot serve
// the lost rank's share while recovery stages it. That is the store's
// failure, not the replacement node's: the session falls back without
// retrying on another node.
func TestRecoveryStableOutageExcludesNoNode(t *testing.T) {
	const np, steps, lost = 3, 1500, 2
	stable := &outageFS{FS: vfs.NewMem()}
	log := &trace.Log{}
	sys, err := core.NewSystem(core.Options{Nodes: np + 2, SlotsPerNode: 1, Stable: stable, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, steps, 100*time.Microsecond)})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	co := sys.Recovery()
	j.SetRecoveryHandler(co)
	res, err := j.Checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	stable.arm(stableShare(res, lost))
	if err := sys.Cluster().KillNode(j.NodeOf(lost)); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := j.Wait(); err == nil {
		t.Fatal("job survived with its lost rank's only copy unreadable")
	}
	if st := co.Stats(); st.Sessions != 1 || st.Retries != 0 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want one session that falls back without a retry", st)
	}
	if n := log.Count("recovery.retry"); n != 0 {
		t.Fatalf("%d recovery.retry events, want none", n)
	}
}

// TestStageRetentionFollowsTheRecoveryHandler: a job without a recovery
// handler keeps no node-local stage once a checkpoint commits. A job
// with one keeps exactly its newest committed interval's stages on
// every node, checkpoint after checkpoint, plus the stages of what it
// holds below stable storage; a terminate checkpoint keeps none.
func TestStageRetentionFollowsTheRecoveryHandler(t *testing.T) {
	const np = 4
	sys := newSystem(t, np, 1, nil, nil)
	stages := func(j *core.Job) map[string][]int {
		t.Helper()
		out := make(map[string][]int)
		for _, node := range sys.Cluster().AliveNodes() {
			fsys, err := sys.Cluster().NodeFS(node)
			if err != nil {
				t.Fatal(err)
			}
			ents, _ := fsys.ReadDir(snapshot.LocalStageRoot(int(j.JobID())))
			for _, e := range ents {
				iv, err := strconv.Atoi(e.Name)
				if err != nil {
					t.Fatalf("%s: unexpected stage entry %q", node, e.Name)
				}
				out[node] = append(out[node], iv)
			}
			sort.Ints(out[node])
		}
		return out
	}
	expect := func(j *core.Job, what string, ivs ...int) {
		t.Helper()
		got := stages(j)
		for _, node := range j.Nodes() {
			if fmt.Sprint(got[node]) != fmt.Sprint(ivs) {
				t.Fatalf("%s: %s holds stages %v, want %v", what, node, got[node], ivs)
			}
		}
	}

	plain, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, 1<<30, 200*time.Microsecond)})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := plain.Checkpoint(false); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		expect(plain, "no recovery handler", []int{}...)
	}
	if _, err := plain.Checkpoint(true); err != nil {
		t.Fatalf("terminate: %v", err)
	}
	if err := plain.Wait(); err != nil {
		t.Fatal(err)
	}

	j, err := sys.Launch(core.JobSpec{Name: "stencil", NP: np, AppFactory: slowStencil(t, 1<<30, 200*time.Microsecond)})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	j.EnableRecovery()
	var last int
	for i := 0; i < 10; i++ {
		res, err := j.Checkpoint(false)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		last = res.Interval
		expect(j, fmt.Sprintf("after checkpoint %d", i), last)
	}
	held, err := sys.Cluster().CheckpointJobLevel(j.JobID(), snapshot.LevelLocal, snapc.Options{})
	if err != nil {
		t.Fatalf("L1 seal: %v", err)
	}
	expect(j, "with a hold", last, held)
	res, err := j.Checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	expect(j, "after the hold is superseded", res.Interval)
	if _, err := j.Checkpoint(true); err != nil {
		t.Fatalf("terminate: %v", err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	expect(j, "after a terminate checkpoint", []int{}...)
}
