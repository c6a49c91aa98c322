package snapshot

import (
	"errors"
	"path"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// stageInterval assembles a plausible staged interval (per-rank local
// snapshot dirs with metadata and payload) the way the FILEM gather does,
// then commits it. Returns the metadata that was written.
func stageInterval(t *testing.T, ref GlobalRef, interval, nprocs int) GlobalMeta {
	t.Helper()
	meta := validGlobalMeta(nprocs)
	meta.Interval = interval
	stage := ref.StageDir(interval)
	for _, pe := range meta.Procs {
		dir := path.Join(stage, pe.LocalDir)
		if err := ref.FS.WriteFile(path.Join(dir, LocalMetaFile), []byte(`{"version":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := ref.FS.WriteFile(path.Join(dir, "image.bin"), []byte{byte(pe.Vpid), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	sums, err := stagedManifest(ref.FS, stage)
	if err != nil {
		t.Fatal(err)
	}
	meta.Checksums = sums
	if err := WriteGlobal(ref, meta); err != nil {
		t.Fatalf("WriteGlobal(interval %d): %v", interval, err)
	}
	return meta
}

func TestCommitIsAtomicAndChecksummed(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	stageInterval(t, ref, 0, 2)

	if vfs.Exists(fsys, ref.StageDir(0)) {
		t.Error("stage directory survived the commit")
	}
	if !vfs.Exists(fsys, path.Join(ref.IntervalDir(0), CommittedFile)) {
		t.Fatal("no COMMITTED marker after commit")
	}
	meta, err := ReadGlobal(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every payload staged before the commit is covered by a checksum.
	for _, want := range []string{
		path.Join(LocalDirName(0), "image.bin"),
		path.Join(LocalDirName(1), LocalMetaFile),
	} {
		if _, ok := meta.Checksums[want]; !ok {
			t.Errorf("checksum manifest missing %s (have %v)", want, meta.Checksums)
		}
	}
	if _, err := VerifyInterval(ref, 0); err != nil {
		t.Fatalf("VerifyInterval on a pristine commit: %v", err)
	}
}

func TestReadGlobalRefusesUncommitted(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	// An interval directory without a marker: what a crash between rename
	// and marker write leaves behind.
	if err := fsys.WriteFile(path.Join(ref.IntervalDir(0), GlobalMetaFile), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGlobal(ref, 0); !errors.Is(err, ErrUncommitted) {
		t.Fatalf("ReadGlobal = %v, want ErrUncommitted", err)
	}
	ivs, err := Intervals(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 0 {
		t.Errorf("Intervals lists uncommitted dirs: %v", ivs)
	}
}

func TestReadGlobalDetectsMetadataTamper(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	stageInterval(t, ref, 0, 2)

	metaPath := path.Join(ref.IntervalDir(0), GlobalMetaFile)
	data, err := fsys.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the app name: still valid JSON, but the digest no longer
	// matches the COMMITTED marker.
	tampered := strings.Replace(string(data), `"ring"`, `"rung"`, 1)
	if tampered == string(data) {
		t.Fatal("tamper had no effect; fixture changed?")
	}
	if err := fsys.WriteFile(metaPath, []byte(tampered)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGlobal(ref, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGlobal after tamper = %v, want ErrCorrupt", err)
	}

	// Truncated metadata is also refused.
	if err := fsys.WriteFile(metaPath, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGlobal(ref, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGlobal after truncation = %v, want ErrCorrupt", err)
	}
}

func TestVerifyIntervalDetectsPayloadDamage(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	stageInterval(t, ref, 0, 2)

	img := path.Join(ref.IntervalDir(0), LocalDirName(1), "image.bin")
	if err := fsys.WriteFile(img, []byte("bitrot")); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyInterval(ref, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyInterval after payload tamper = %v, want ErrCorrupt", err)
	}
	if err := fsys.Remove(img); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyInterval(ref, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyInterval after payload removal = %v, want ErrCorrupt", err)
	}
}

func TestUncommittedListsDebris(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	stageInterval(t, ref, 0, 2)
	// Debris: an abandoned stage and an unmarked interval dir.
	if err := fsys.WriteFile(path.Join(ref.StageDir(1), "partial"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(path.Join(ref.IntervalDir(2), GlobalMetaFile), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	got, err := Uncommitted(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{".stage_1": true, "2": true}
	if len(got) != len(want) {
		t.Fatalf("Uncommitted = %v, want %v", got, want)
	}
	for _, d := range got {
		if !want[d] {
			t.Errorf("unexpected debris entry %q", d)
		}
	}
	ivs, err := Intervals(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0] != 0 {
		t.Errorf("Intervals = %v, want [0]", ivs)
	}
}

func TestLatestValidIntervalSkipsDamagedNewest(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	stageInterval(t, ref, 0, 2)
	stageInterval(t, ref, 1, 2)
	// Damage the newest interval's payload; recovery must fall back.
	if err := fsys.WriteFile(path.Join(ref.IntervalDir(1), LocalDirName(0), "image.bin"), []byte("zap")); err != nil {
		t.Fatal(err)
	}
	res := &Resolver{Ref: ref} // primary-only resolution
	iv, meta, _, err := res.LatestValid()
	if err != nil {
		t.Fatal(err)
	}
	if iv != 0 || meta.Interval != 0 {
		t.Errorf("LatestValid = %d (meta %d), want 0", iv, meta.Interval)
	}
	// With every interval damaged, the error says so.
	if err := fsys.Remove(path.Join(ref.IntervalDir(0), GlobalMetaFile)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := res.LatestValid(); err == nil {
		t.Error("LatestValid found a valid interval in a fully damaged reference")
	}
}

func TestCommitOverCrashDebris(t *testing.T) {
	// Re-checkpointing interval N after a crash left an unmarked interval
	// directory of the same number must succeed identically on both vfs
	// backends. Before the fix the OS backend failed the commit rename
	// (ENOTEMPTY) while Mem silently replaced the tree.
	backends := map[string]func(t *testing.T) vfs.FS{
		"mem": func(t *testing.T) vfs.FS { return vfs.NewMem() },
		"os": func(t *testing.T) vfs.FS {
			fsys, err := vfs.NewOS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fsys
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			fsys := mk(t)
			ref := GlobalRef{FS: fsys, Dir: "g"}
			// Crash debris: interval 0 renamed into place but the marker
			// write never happened, plus a stale partial payload.
			if err := fsys.WriteFile(path.Join(ref.IntervalDir(0), GlobalMetaFile), []byte("{}")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile(path.Join(ref.IntervalDir(0), LocalDirName(0), "image.bin"), []byte("stale")); err != nil {
				t.Fatal(err)
			}
			stageInterval(t, ref, 0, 2)
			meta, err := VerifyInterval(ref, 0)
			if err != nil {
				t.Fatalf("VerifyInterval after commit over debris: %v", err)
			}
			if meta.Interval != 0 {
				t.Errorf("interval = %d, want 0", meta.Interval)
			}
			// The stale payload must be gone, replaced by the fresh stage.
			data, err := fsys.ReadFile(path.Join(ref.IntervalDir(0), LocalDirName(0), "image.bin"))
			if err != nil || string(data) == "stale" {
				t.Errorf("debris payload survived the commit: %q, %v", data, err)
			}
		})
	}
}

func TestByChecksumInvertsManifest(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	stageInterval(t, ref, 0, 2)
	meta, err := ReadGlobal(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := meta.ByChecksum()
	if len(idx) == 0 {
		t.Fatal("ByChecksum returned an empty index")
	}
	for sum, rel := range idx {
		if meta.Checksums[rel] != sum {
			t.Errorf("index maps %s -> %s but manifest says %s", sum[:8], rel, meta.Checksums[rel][:8])
		}
	}
	// Identical content under two paths maps to one (deterministic) path.
	var empty GlobalMeta
	if empty.ByChecksum() != nil {
		t.Error("empty manifest should invert to nil")
	}
}

func TestWriteGlobalRefusesRecommit(t *testing.T) {
	fsys := vfs.NewMem()
	ref := GlobalRef{FS: fsys, Dir: "g"}
	meta := stageInterval(t, ref, 0, 2)
	if err := WriteGlobal(ref, meta); err == nil {
		t.Fatal("WriteGlobal overwrote a committed interval")
	}
}
