package snapshot

import (
	"errors"
	"path"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vfs"
)

// writeInterval fabricates one fully-committed interval on ref: per-rank
// local snapshots with a payload file, then the atomic WriteGlobal
// commit. Returns the sealed metadata as restart would read it.
func writeInterval(t *testing.T, ref GlobalRef, iv, nprocs int, fill byte) GlobalMeta {
	t.Helper()
	m := validGlobalMeta(nprocs)
	m.Interval = iv
	stage := ref.StageDir(iv)
	for _, pe := range m.Procs {
		lm := validLocalMeta()
		lm.JobID = m.JobID
		lm.Vpid = pe.Vpid
		lm.Interval = iv
		lm.Node = pe.Node
		dir := path.Join(stage, pe.LocalDir)
		if _, err := WriteLocal(ref.FS, dir, lm); err != nil {
			t.Fatalf("WriteLocal: %v", err)
		}
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = fill + byte(pe.Vpid)
		}
		if err := ref.FS.WriteFile(path.Join(dir, "image.bin"), payload); err != nil {
			t.Fatalf("payload: %v", err)
		}
	}
	sums, err := stagedManifest(ref.FS, stage)
	if err != nil {
		t.Fatal(err)
	}
	m.Checksums = sums
	if err := WriteGlobal(ref, m); err != nil {
		t.Fatalf("WriteGlobal(%d): %v", iv, err)
	}
	meta, err := ReadGlobal(ref, iv)
	if err != nil {
		t.Fatalf("ReadGlobal(%d): %v", iv, err)
	}
	return meta
}

// replicate copies the committed interval onto a node FS at the
// convention path — what SNAPC's post-commit push produces.
func replicate(t *testing.T, ref GlobalRef, iv int, node vfs.FS) {
	t.Helper()
	if _, err := vfs.CopyTree(ref.FS, ref.IntervalDir(iv), node, ReplicaDir(ref.Dir, iv)); err != nil {
		t.Fatalf("replicate interval %d: %v", iv, err)
	}
}

// corrupt flips one byte of a file in place.
func corrupt(t *testing.T, fsys vfs.FS, name string) {
	t.Helper()
	data, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatalf("corrupt %s: %v", name, err)
	}
	data[len(data)/2] ^= 0xFF
	if err := fsys.WriteFile(name, data); err != nil {
		t.Fatalf("corrupt %s: %v", name, err)
	}
}

func TestManifestHash(t *testing.T) {
	a := map[string]string{"x/a": "1111", "x/b": "2222"}
	b := map[string]string{"x/b": "2222", "x/a": "1111"}
	if ManifestHash(a) != ManifestHash(b) {
		t.Error("ManifestHash depends on map iteration order")
	}
	c := map[string]string{"x/a": "1111", "x/b": "3333"}
	if ManifestHash(a) == ManifestHash(c) {
		t.Error("ManifestHash ignored a changed checksum")
	}
	if ManifestHash(a) == ManifestHash(map[string]string{"x/a": "1111"}) {
		t.Error("ManifestHash ignored a dropped file")
	}
}

func TestPlaceReplicas(t *testing.T) {
	all := []string{"n0", "n1", "n2", "n3"}
	job := []string{"n0", "n1"}
	// Free nodes come first, in candidate order.
	if got := PlaceReplicas(2, job, all); !reflect.DeepEqual(got, []string{"n2", "n3"}) {
		t.Errorf("PlaceReplicas(2) = %v, want [n2 n3]", got)
	}
	// Cluster too small for k free nodes: fall back onto job nodes.
	if got := PlaceReplicas(3, job, all); !reflect.DeepEqual(got, []string{"n2", "n3", "n0"}) {
		t.Errorf("PlaceReplicas(3) = %v, want [n2 n3 n0]", got)
	}
	// k beyond the whole cluster degrades to what exists.
	if got := PlaceReplicas(9, job, all); len(got) != 4 {
		t.Errorf("PlaceReplicas(9) = %v, want all 4 nodes", got)
	}
	if got := PlaceReplicas(1, nil, nil); len(got) != 0 {
		t.Errorf("PlaceReplicas with no candidates = %v", got)
	}
}

func TestResolverPrimaryFirst(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	writeInterval(t, ref, 0, 2, 'a')
	node := vfs.NewMem()
	replicate(t, ref, 0, node)
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n2"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
	}
	_, cp, err := res.Resolve(0)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !cp.Primary() {
		t.Errorf("intact primary not preferred; used %s", cp)
	}
}

func TestResolverFallbackAndRepair(t *testing.T) {
	log := &trace.Log{}
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	meta := writeInterval(t, ref, 0, 2, 'a')
	node := vfs.NewMem()
	replicate(t, ref, 0, node)
	// Bitrot on the primary's rank-0 payload.
	corrupt(t, ref.FS, path.Join(ref.IntervalDir(0), meta.Procs[0].LocalDir, "image.bin"))

	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n2"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
		Ins:    trace.WithLogOnly(log),
	}
	got, cp, err := res.Resolve(0)
	if err != nil {
		t.Fatalf("Resolve with corrupt primary: %v", err)
	}
	if cp.Primary() || cp.Node != "n2" {
		t.Fatalf("Resolve used %s, want replica:n2", cp)
	}
	if got.NumProcs != meta.NumProcs || got.Interval != 0 {
		t.Errorf("replica metadata = %+v", got)
	}
	if log.Count("replica.fallback") == 0 {
		t.Error("no replica.fallback trace event")
	}

	// Repair rebuilds the primary from the replica; afterwards the
	// primary verifies and is preferred again.
	if err := res.Repair(0, cp); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if _, err := VerifyInterval(ref, 0); err != nil {
		t.Fatalf("primary still corrupt after repair: %v", err)
	}
	_, cp2, err := res.Resolve(0)
	if err != nil {
		t.Fatalf("Resolve after repair: %v", err)
	}
	if !cp2.Primary() {
		t.Errorf("repaired primary not preferred; used %s", cp2)
	}
}

func TestResolverSurvivesDeadPrimaryStore(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	writeInterval(t, ref, 0, 2, 'a')
	writeInterval(t, ref, 1, 2, 'b')
	node := vfs.NewMem()
	replicate(t, ref, 0, node)
	replicate(t, ref, 1, node)
	// The shared store dies: everything under the reference vanishes.
	if err := ref.FS.Remove(ref.Dir); err != nil {
		t.Fatal(err)
	}
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n3"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
	}
	if got := res.Candidates(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Candidates with dead primary = %v, want [0 1]", got)
	}
	iv, meta, cp, err := res.LatestValid()
	if err != nil {
		t.Fatalf("LatestValid with dead primary: %v", err)
	}
	if iv != 1 || cp.Primary() {
		t.Errorf("LatestValid = interval %d via %s, want 1 via replica", iv, cp)
	}
	if meta.Interval != 1 {
		t.Errorf("meta.Interval = %d", meta.Interval)
	}
	// Dead replica holders are skipped, not fatal.
	res.NodeFS = func(string) (vfs.FS, error) { return nil, errDeadNode }
	if _, _, _, err := res.LatestValid(); err == nil {
		t.Error("LatestValid succeeded with every copy unreachable")
	}
}

var errDeadNode = errors.New("node n3 is down")

func TestScrubHealsToK(t *testing.T) {
	log := &trace.Log{}
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	meta0 := writeInterval(t, ref, 0, 2, 'a')
	writeInterval(t, ref, 1, 2, 'b')
	nodes := map[string]vfs.FS{"n2": vfs.NewMem(), "n3": vfs.NewMem()}
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n2", "n3"},
		NodeFS: func(n string) (vfs.FS, error) { return nodes[n], nil },
		Ins:    trace.WithLogOnly(log),
	}

	// Interval 0: primary intact, replica on n2 bit-rotten, none on n3.
	replicate(t, ref, 0, nodes["n2"])
	corrupt(t, nodes["n2"], path.Join(ReplicaDir(ref.Dir, 0), meta0.Procs[1].LocalDir, "image.bin"))
	// Interval 1: primary bit-rotten, intact replica on n2 only.
	replicate(t, ref, 1, nodes["n2"])
	corrupt(t, ref.FS, path.Join(ref.IntervalDir(1), GlobalMetaFile))

	rep := res.Scrub(2)
	if len(rep.Intervals) != 2 {
		t.Fatalf("scrubbed %d intervals, want 2", len(rep.Intervals))
	}
	if rep.Repaired != 1 {
		t.Errorf("Repaired = %d, want 1 (interval 1 primary)", rep.Repaired)
	}
	// Interval 0 restores n2 and creates n3; interval 1 creates n3 (its
	// n2 replica was already intact).
	if rep.Rereplicated != 3 {
		t.Errorf("Rereplicated = %d, want 3", rep.Rereplicated)
	}
	if rep.Unhealthy != 0 {
		t.Errorf("Unhealthy = %d after heal, want 0", rep.Unhealthy)
	}
	for _, h := range rep.Intervals {
		if h.Intact != 3 || h.Desired != 3 {
			t.Errorf("interval %d: %d/%d intact", h.Interval, h.Intact, h.Desired)
		}
	}
	// The ledger records what the scrub found, not only the end state.
	h0 := rep.Intervals[0]
	var sawBadReplica bool
	for _, c := range h0.Copies {
		if c.Copy == "replica:n2" && c.Repaired {
			sawBadReplica = true
			if c.Err == "" && !c.OK {
				t.Errorf("healed copy not marked OK: %+v", c)
			}
		}
	}
	if !sawBadReplica {
		t.Errorf("ledger missed the healed n2 replica: %+v", h0.Copies)
	}
	if log.Count("scrub.corrupt") == 0 || log.Count("scrub.rereplicate") == 0 {
		t.Error("missing scrub trace events")
	}

	// Everything healed: a second pass is clean and takes no actions.
	rep2 := res.Scrub(2)
	if rep2.Repaired != 0 || rep2.Rereplicated != 0 || rep2.Unhealthy != 0 {
		t.Errorf("second scrub not clean: %+v", rep2)
	}
	for _, iv := range []int{0, 1} {
		if _, err := VerifyInterval(ref, iv); err != nil {
			t.Errorf("interval %d primary after scrub: %v", iv, err)
		}
		for n, fsys := range nodes {
			if _, err := VerifyDir(fsys, ReplicaDir(ref.Dir, iv)); err != nil {
				t.Errorf("interval %d replica on %s after scrub: %v", iv, n, err)
			}
		}
	}
}

func TestScrubReportsUnhealable(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	meta := writeInterval(t, ref, 0, 2, 'a')
	// No replicas exist and the primary is corrupt: nothing to heal from.
	corrupt(t, ref.FS, path.Join(ref.IntervalDir(0), meta.Procs[0].LocalDir, "image.bin"))
	res := &Resolver{Ref: ref}
	rep := res.Scrub(1)
	if rep.Unhealthy != 1 || rep.Repaired != 0 {
		t.Errorf("scrub of unhealable interval: %+v", rep)
	}
	if len(rep.Intervals) != 1 || rep.Intervals[0].Intact != 0 {
		t.Errorf("ledger: %+v", rep.Intervals)
	}
}

func TestPruneReclaimsExcessReplicas(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	writeInterval(t, ref, 0, 2, 'a')
	writeInterval(t, ref, 1, 2, 'b')
	nodes := map[string]vfs.FS{"n2": vfs.NewMem(), "n3": vfs.NewMem(), "n4": vfs.NewMem()}
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n2", "n3", "n4"},
		NodeFS: func(n string) (vfs.FS, error) { return nodes[n], nil },
	}
	for _, n := range []string{"n2", "n3", "n4"} {
		replicate(t, ref, 0, nodes[n])
		replicate(t, ref, 1, nodes[n])
	}
	// Keep both intervals but only k=1 replica each: two excess replicas
	// per interval are reclaimed, the old interval's copies stay.
	rep, err := res.Prune(2, 1)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if !reflect.DeepEqual(rep.Kept, []int{0, 1}) {
		t.Errorf("Kept = %v", rep.Kept)
	}
	if len(rep.Removed) != 4 {
		t.Errorf("Removed = %v, want 4 excess replicas", rep.Removed)
	}
	for _, iv := range []int{0, 1} {
		intact := 0
		for _, fsys := range nodes {
			if _, err := VerifyDir(fsys, ReplicaDir(ref.Dir, iv)); err == nil {
				intact++
			}
		}
		if intact != 1 {
			t.Errorf("interval %d: %d replicas after prune, want 1", iv, intact)
		}
		if _, err := VerifyInterval(ref, iv); err != nil {
			t.Errorf("interval %d primary gone after prune: %v", iv, err)
		}
	}
}

func TestPruneDropsOldIntervalEverywhere(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	writeInterval(t, ref, 0, 2, 'a')
	writeInterval(t, ref, 1, 2, 'b')
	node := vfs.NewMem()
	replicate(t, ref, 0, node)
	replicate(t, ref, 1, node)
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n2"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
	}
	rep, err := res.Prune(1, -1)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if !reflect.DeepEqual(rep.Kept, []int{1}) {
		t.Errorf("Kept = %v, want [1]", rep.Kept)
	}
	if vfs.Exists(ref.FS, ref.IntervalDir(0)) {
		t.Error("pruned interval 0 primary still present")
	}
	if vfs.Exists(node, ReplicaDir(ref.Dir, 0)) {
		t.Error("pruned interval 0 replica still present")
	}
	// k=-1 left the kept interval's replica alone.
	if _, err := VerifyDir(node, ReplicaDir(ref.Dir, 1)); err != nil {
		t.Errorf("kept interval 1 replica: %v", err)
	}
}

func TestPruneNeverDropsLastIntactCopy(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	meta := writeInterval(t, ref, 0, 2, 'a')
	node := vfs.NewMem()
	replicate(t, ref, 0, node)
	// The primary rots: the single replica is now the snapshot.
	corrupt(t, ref.FS, path.Join(ref.IntervalDir(0), meta.Procs[0].LocalDir, "image.bin"))
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n2"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
	}
	// k=0 asks for zero replicas — but dropping this one would destroy
	// the last intact copy of the newest restartable interval.
	rep, err := res.Prune(1, 0)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if !reflect.DeepEqual(rep.Kept, []int{0}) {
		t.Errorf("Kept = %v, want [0]", rep.Kept)
	}
	if _, err := VerifyDir(node, ReplicaDir(ref.Dir, 0)); err != nil {
		t.Fatalf("last intact copy was pruned: %v", err)
	}
	// The interval must still resolve (via the replica).
	if _, cp, err := res.Resolve(0); err != nil || cp.Primary() {
		t.Errorf("Resolve after prune = %s, %v", cp, err)
	}
}

func TestPruneKeepsDamagedWhenNothingRestartable(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	meta := writeInterval(t, ref, 0, 2, 'a')
	corrupt(t, ref.FS, path.Join(ref.IntervalDir(0), meta.Procs[0].LocalDir, "image.bin"))
	res := &Resolver{Ref: ref}
	rep, err := res.Prune(1, 0)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if rep.DamagedKept != 1 {
		t.Errorf("DamagedKept = %d, want 1", rep.DamagedKept)
	}
	if !vfs.Exists(ref.FS, ref.IntervalDir(0)) {
		t.Error("prune deleted the only (damaged) traces of the job")
	}
}

func TestWriteGlobalStampsReplicaManifests(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	m := validGlobalMeta(2)
	stage := ref.StageDir(0)
	for _, pe := range m.Procs {
		lm := validLocalMeta()
		lm.JobID = m.JobID
		lm.Vpid = pe.Vpid
		if _, err := WriteLocal(ref.FS, path.Join(stage, pe.LocalDir), lm); err != nil {
			t.Fatal(err)
		}
		if err := ref.FS.WriteFile(path.Join(stage, pe.LocalDir, "image.bin"), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	m.Replicas = []ReplicaRecord{
		{Node: "n2", Path: ReplicaDir(ref.Dir, 0)},
		{Node: "n3", Path: ReplicaDir(ref.Dir, 0)},
	}
	sums, err := stagedManifest(ref.FS, stage)
	if err != nil {
		t.Fatal(err)
	}
	m.Checksums = sums
	if err := WriteGlobal(ref, m); err != nil {
		t.Fatalf("WriteGlobal: %v", err)
	}
	got, err := ReadGlobal(ref, 0)
	if err != nil {
		t.Fatalf("ReadGlobal: %v", err)
	}
	if len(got.Replicas) != 2 {
		t.Fatalf("Replicas = %+v", got.Replicas)
	}
	want := ManifestHash(got.Checksums)
	for _, r := range got.Replicas {
		if r.Manifest != want {
			t.Errorf("replica %s manifest = %q, want %q", r.Node, r.Manifest, want)
		}
		if !strings.HasPrefix(r.Path, "ckpt_replicas/") {
			t.Errorf("replica path %q not under the replica root", r.Path)
		}
	}
}
