package snapshot

import (
	"encoding/json"
	"errors"
	"path"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/vfs"
)

// countingFS counts the file reads and bytes read below prefix.
type countingFS struct {
	vfs.FS
	prefix string
	reads  atomic.Int64
	bytes  atomic.Int64
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.FS.ReadFile(name)
	if strings.HasPrefix(name, c.prefix) {
		c.reads.Add(1)
		c.bytes.Add(int64(len(data)))
	}
	return data, err
}

// stageRanks hand-stages nprocs local snapshots of size payload bytes
// each in interval iv's stage and returns metadata carrying the
// manifest the gather would have computed from the same bytes.
func stageRanks(tb testing.TB, ref GlobalRef, iv, nprocs, size int) GlobalMeta {
	tb.Helper()
	meta := validGlobalMeta(nprocs)
	meta.Interval = iv
	stage := ref.StageDir(iv)
	for _, pe := range meta.Procs {
		dir := path.Join(stage, pe.LocalDir)
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*7 + pe.Vpid)
		}
		for name, data := range map[string][]byte{LocalMetaFile: stubLocalMeta, "image.bin": payload} {
			if err := ref.FS.WriteFile(path.Join(dir, name), data); err != nil {
				tb.Fatal(err)
			}
			meta.Checksums[path.Join(pe.LocalDir, name)] = vfs.HashBytes(data)
		}
	}
	return meta
}

func TestWriteGlobalReadsNoPayload(t *testing.T) {
	cfs := &countingFS{FS: vfs.NewMem(), prefix: "g/"}
	ref := GlobalRef{FS: cfs, Dir: "g"}
	meta := stageRanks(t, ref, 0, 4, 4096)
	cfs.reads.Store(0)
	cfs.bytes.Store(0)
	if err := WriteGlobal(ref, meta); err != nil {
		t.Fatalf("WriteGlobal: %v", err)
	}
	if n, b := cfs.reads.Load(), cfs.bytes.Load(); n != 0 {
		t.Errorf("WriteGlobal read %d files (%d bytes) of the stage, want none", n, b)
	}
	// The manifest the commit sealed unread still verifies end to end.
	if _, err := VerifyInterval(ref, 0); err != nil {
		t.Fatalf("VerifyInterval: %v", err)
	}
}

func TestWriteGlobalRefusesManifestStageMismatch(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ref GlobalRef, m *GlobalMeta)
		want   string
	}{
		{"unlisted staged file", func(ref GlobalRef, m *GlobalMeta) {
			_ = ref.FS.WriteFile(path.Join(ref.StageDir(0), LocalDirName(1), "stray.bin"), []byte("x"))
		}, "opal_snapshot_1.ckpt/stray.bin is not in the manifest"},
		{"listed file not staged", func(ref GlobalRef, m *GlobalMeta) {
			m.Checksums[path.Join(LocalDirName(0), "extra.bin")] = vfs.HashBytes(nil)
		}, "manifest names opal_snapshot_0.ckpt/extra.bin, which is not staged"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := GlobalRef{FS: vfs.NewMem(), Dir: "g"}
			meta := stageRanks(t, ref, 0, 2, 16)
			tc.mutate(ref, &meta)
			err := WriteGlobal(ref, meta)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("WriteGlobal = %v, want an error naming %q", err, tc.want)
			}
			if vfs.Exists(ref.FS, ref.IntervalDir(0)) {
				t.Error("a refused commit left an interval directory")
			}
		})
	}
}

func TestVerifyDirNamesTheSameDamageEveryTime(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g"}
	meta := stageRanks(t, ref, 0, 4, 64)
	if err := WriteGlobal(ref, meta); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 3} {
		corrupt(t, ref.FS, path.Join(ref.IntervalDir(0), LocalDirName(v), "image.bin"))
	}
	_, first := VerifyInterval(ref, 0)
	if !errors.Is(first, ErrCorrupt) || !strings.Contains(first.Error(), LocalDirName(1)) {
		t.Fatalf("VerifyInterval = %v, want ErrCorrupt naming the first damaged file in path order", first)
	}
	for i := 0; i < 50; i++ {
		if _, err := VerifyInterval(ref, 0); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: %v, want %v", i, err, first)
		}
	}
}

// FuzzGlobalMeta feeds arbitrary bytes to ReadGlobalDir as an interval's
// global metadata, sealed by a matching COMMITTED marker. Whatever it
// accepts must validate, re-marshal, and keep every manifest key inside
// the interval directory, so VerifyDir never reads outside it.
func FuzzGlobalMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := vfs.NewMem()
		const dir = "g/0"
		if err := fsys.WriteFile(path.Join(dir, GlobalMetaFile), data); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile(path.Join(dir, CommittedFile), []byte(checksum(data)+"\n")); err != nil {
			t.Fatal(err)
		}
		meta, err := ReadGlobalDir(fsys, dir)
		if err != nil {
			return
		}
		if err := meta.Validate(); err != nil {
			t.Fatalf("accepted metadata fails Validate: %v", err)
		}
		if _, err := json.Marshal(&meta); err != nil {
			t.Fatalf("accepted metadata does not re-marshal: %v", err)
		}
		for rel := range meta.Checksums {
			p := path.Join(dir, rel)
			if !strings.HasPrefix(p, dir+"/") || p == path.Join(dir, GlobalMetaFile) || p == path.Join(dir, CommittedFile) {
				t.Fatalf("manifest key %q resolves to %q, outside the interval's payload", rel, p)
			}
		}
		if _, err := VerifyDir(fsys, dir); err == nil && len(meta.Procs) > 0 {
			t.Fatal("VerifyDir passed an interval with no payload on disk")
		}
	})
}

// BenchmarkSnapshotCommit measures WriteGlobal alone on 8 staged ranks
// of 1 MiB each: the commit step of the paper's quiesce → capture →
// gather → commit decomposition. stage-read-B/op counts the bytes the
// commit reads back from stable storage.
func BenchmarkSnapshotCommit(b *testing.B) {
	const ranks, size = 8, 1 << 20
	cfs := &countingFS{FS: vfs.NewMem(), prefix: "g/"}
	ref := GlobalRef{FS: cfs, Dir: "g"}
	b.ReportAllocs()
	var read int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		meta := stageRanks(b, ref, i, ranks, size)
		before := cfs.bytes.Load()
		b.StartTimer()
		if err := WriteGlobal(ref, meta); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		read += cfs.bytes.Load() - before
		if err := ref.FS.Remove(ref.IntervalDir(i)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(read)/float64(b.N), "stage-read-B/op")
}
