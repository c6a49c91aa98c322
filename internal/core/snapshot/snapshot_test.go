package snapshot

import (
	"math/rand"
	"path"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vfs"
)

func validLocalMeta() LocalMeta {
	return LocalMeta{
		Version:   FormatVersion,
		Component: "simcr",
		JobID:     3,
		Vpid:      1,
		Interval:  0,
		Node:      "n1",
		Files:     []string{"image.bin"},
		Taken:     time.Now(),
	}
}

func TestLocalRoundTrip(t *testing.T) {
	fsys := vfs.NewMem()
	meta := validLocalMeta()
	ref, err := WriteLocal(fsys, "snap/opal_snapshot_1.ckpt", meta)
	if err != nil {
		t.Fatalf("WriteLocal: %v", err)
	}
	got, err := ReadLocal(ref)
	if err != nil {
		t.Fatalf("ReadLocal: %v", err)
	}
	if got.Component != "simcr" || got.Vpid != 1 || got.Node != "n1" {
		t.Errorf("round trip = %+v", got)
	}
	if !reflect.DeepEqual(got.Files, meta.Files) {
		t.Errorf("Files = %v, want %v", got.Files, meta.Files)
	}
}

func TestLocalValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*LocalMeta)
	}{
		{"missing component", func(m *LocalMeta) { m.Component = "" }},
		{"negative vpid", func(m *LocalMeta) { m.Vpid = -1 }},
		{"negative interval", func(m *LocalMeta) { m.Interval = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := validLocalMeta()
			tc.mutate(&meta)
			if _, err := WriteLocal(vfs.NewMem(), "d", meta); err == nil {
				t.Errorf("WriteLocal accepted invalid metadata: %+v", meta)
			}
		})
	}
}

func TestReadLocalCorrupt(t *testing.T) {
	fsys := vfs.NewMem()
	if err := fsys.WriteFile("d/"+LocalMetaFile, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLocal(LocalRef{FS: fsys, Dir: "d"}); err == nil {
		t.Error("ReadLocal accepted corrupt metadata")
	}
	if _, err := ReadLocal(LocalRef{FS: fsys, Dir: "missing"}); err == nil {
		t.Error("ReadLocal of missing dir succeeded")
	}
	// Valid JSON but wrong version.
	if err := fsys.WriteFile("v2/"+LocalMetaFile, []byte(`{"version":99,"crs_component":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLocal(LocalRef{FS: fsys, Dir: "v2"}); err == nil {
		t.Error("ReadLocal accepted wrong-version metadata")
	}
}

func validGlobalMeta(nprocs int) GlobalMeta {
	m := GlobalMeta{
		Version:   FormatVersion,
		JobID:     7,
		Interval:  0,
		Taken:     time.Now(),
		NumProcs:  nprocs,
		AppName:   "ring",
		AppArgs:   []string{"-iters", "100"},
		MCAParams: map[string]string{"crs": "simcr", "crcp": "bkmrk"},
		Nodes:     []string{"n0", "n1"},
	}
	m.Checksums = make(map[string]string, nprocs)
	for v := 0; v < nprocs; v++ {
		m.Procs = append(m.Procs, ProcEntry{
			Vpid:      v,
			Node:      m.Nodes[v%2],
			Component: "simcr",
			LocalDir:  LocalDirName(v),
		})
		m.Checksums[path.Join(LocalDirName(v), LocalMetaFile)] = vfs.HashBytes(stubLocalMeta)
	}
	return m
}

// stubLocalMeta is the local metadata commitGlobal stages for each proc.
var stubLocalMeta = []byte("{}")

// stagedManifest hashes every file of a hand-staged interval with the
// function the FILEM gather applies to the source bytes, which is what
// the gather would have handed WriteGlobal as the manifest.
func stagedManifest(fsys vfs.FS, stage string) (map[string]string, error) {
	sums := make(map[string]string)
	err := vfs.Walk(fsys, stage, func(name string, _ vfs.FileInfo) error {
		data, err := fsys.ReadFile(name)
		if err != nil {
			return err
		}
		sums[strings.TrimPrefix(name, stage+"/")] = vfs.HashBytes(data)
		return nil
	})
	return sums, err
}

// commitGlobal stages stub local metadata for every proc of meta and
// commits the interval.
func commitGlobal(ref GlobalRef, meta GlobalMeta) error {
	stage := ref.StageDir(meta.Interval)
	for _, pe := range meta.Procs {
		if err := ref.FS.WriteFile(path.Join(stage, pe.LocalDir, LocalMetaFile), stubLocalMeta); err != nil {
			return err
		}
	}
	return WriteGlobal(ref, meta)
}

func TestGlobalRoundTrip(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: GlobalDirName(7)}
	meta := validGlobalMeta(4)
	if err := commitGlobal(ref, meta); err != nil {
		t.Fatalf("WriteGlobal: %v", err)
	}
	got, err := ReadGlobal(ref, 0)
	if err != nil {
		t.Fatalf("ReadGlobal: %v", err)
	}
	if got.NumProcs != 4 || got.AppName != "ring" {
		t.Errorf("round trip = %+v", got)
	}
	if got.MCAParams["crcp"] != "bkmrk" {
		t.Errorf("MCAParams = %v", got.MCAParams)
	}
	if len(got.Procs) != 4 || got.Procs[3].LocalDir != "opal_snapshot_3.ckpt" {
		t.Errorf("Procs = %+v", got.Procs)
	}
}

func TestGlobalValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*GlobalMeta)
	}{
		{"zero procs", func(m *GlobalMeta) { m.NumProcs = 0; m.Procs = nil }},
		{"proc count mismatch", func(m *GlobalMeta) { m.Procs = m.Procs[:1] }},
		{"vpid out of range", func(m *GlobalMeta) { m.Procs[0].Vpid = 99 }},
		{"duplicate vpid", func(m *GlobalMeta) { m.Procs[1].Vpid = m.Procs[0].Vpid }},
		{"missing local dir", func(m *GlobalMeta) { m.Procs[0].LocalDir = "" }},
		{"negative interval", func(m *GlobalMeta) { m.Interval = -1 }},
		{"manifest key escapes interval", func(m *GlobalMeta) { m.Checksums["../outside"] = vfs.HashBytes(nil) }},
		{"absolute manifest key", func(m *GlobalMeta) { m.Checksums["/etc/passwd"] = vfs.HashBytes(nil) }},
		{"unclean manifest key", func(m *GlobalMeta) { m.Checksums["opal_snapshot_0.ckpt/./x"] = vfs.HashBytes(nil) }},
		{"manifest names global metadata", func(m *GlobalMeta) { m.Checksums[GlobalMetaFile] = vfs.HashBytes(nil) }},
		{"manifest names commit marker", func(m *GlobalMeta) { m.Checksums[CommittedFile] = vfs.HashBytes(nil) }},
		{"short digest", func(m *GlobalMeta) { m.Checksums["opal_snapshot_0.ckpt/"+LocalMetaFile] = "abc123" }},
		{"uppercase digest", func(m *GlobalMeta) {
			k := "opal_snapshot_0.ckpt/" + LocalMetaFile
			m.Checksums[k] = strings.ToUpper(m.Checksums[k])
		}},
		{"nested local dir", func(m *GlobalMeta) { m.Procs[0].LocalDir = "a/" + LocalDirName(0) }},
		{"dot-dot local dir", func(m *GlobalMeta) { m.Procs[0].LocalDir = ".." }},
		{"manifest omits rank metadata", func(m *GlobalMeta) { delete(m.Checksums, "opal_snapshot_2.ckpt/"+LocalMetaFile) }},
	}
	valid := validGlobalMeta(3)
	if err := valid.Validate(); err != nil {
		t.Fatalf("unmutated metadata rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := validGlobalMeta(3)
			tc.mutate(&meta)
			if err := meta.Validate(); err == nil {
				t.Errorf("Validate accepted invalid metadata (%s)", tc.name)
			}
			ref := GlobalRef{FS: vfs.NewMem(), Dir: "g"}
			if err := commitGlobal(ref, meta); err == nil {
				t.Errorf("WriteGlobal accepted invalid metadata (%s)", tc.name)
			}
		})
	}
}

func TestIntervalsNumericOrder(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	for _, iv := range []int{0, 2, 10, 9, 1} {
		m := validGlobalMeta(2)
		m.Interval = iv
		if err := commitGlobal(ref, m); err != nil {
			t.Fatalf("WriteGlobal(%d): %v", iv, err)
		}
	}
	// A stray non-numeric directory and a file must be ignored.
	if err := fsys.MkdirAll("g/notanumber"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile("g/readme.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ivs, err := Intervals(ref)
	if err != nil {
		t.Fatalf("Intervals: %v", err)
	}
	if want := []int{0, 1, 2, 9, 10}; !reflect.DeepEqual(ivs, want) {
		t.Errorf("Intervals = %v, want %v", ivs, want)
	}
	latest, err := LatestInterval(ref)
	if err != nil {
		t.Fatalf("LatestInterval: %v", err)
	}
	if latest != 10 {
		t.Errorf("LatestInterval = %d, want 10", latest)
	}
}

func TestLatestIntervalEmpty(t *testing.T) {
	fsys := vfs.NewMem()
	if err := fsys.MkdirAll("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := LatestInterval(GlobalRef{FS: fsys, Dir: "g"}); err == nil {
		t.Error("LatestInterval on empty snapshot succeeded")
	}
}

func TestLocalRefIn(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "ompi_global_snapshot_7.ckpt"}
	lref := LocalRefIn(ref, 2, ProcEntry{Vpid: 3, LocalDir: LocalDirName(3)})
	want := "ompi_global_snapshot_7.ckpt/2/opal_snapshot_3.ckpt"
	if lref.Dir != want {
		t.Errorf("LocalRefIn dir = %q, want %q", lref.Dir, want)
	}
}

// TestQuickGlobalMetaRoundTrip: any structurally valid global metadata
// survives a write/read cycle unchanged in the fields restart consumes.
func TestQuickGlobalMetaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := validGlobalMeta(n)
		m.Interval = r.Intn(5)
		m.JobID = r.Intn(100)
		fsys := vfs.NewMem()
		ref := GlobalRef{FS: fsys, Dir: GlobalDirName(m.JobID)}
		if err := commitGlobal(ref, m); err != nil {
			return false
		}
		got, err := ReadGlobal(ref, m.Interval)
		if err != nil {
			return false
		}
		return got.JobID == m.JobID && got.NumProcs == n &&
			reflect.DeepEqual(got.Procs, m.Procs) &&
			reflect.DeepEqual(got.MCAParams, m.MCAParams)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestNamingConventions(t *testing.T) {
	if got := GlobalDirName(42); got != "ompi_global_snapshot_42.ckpt" {
		t.Errorf("GlobalDirName = %q", got)
	}
	if got := LocalDirName(3); got != "opal_snapshot_3.ckpt" {
		t.Errorf("LocalDirName = %q", got)
	}
	if !strings.HasSuffix(GlobalDirName(1), ".ckpt") {
		t.Error("global dir missing .ckpt suffix")
	}
}
