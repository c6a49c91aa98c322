package snapc

import (
	"errors"
	"path"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/snapshot"
	"repro/internal/orte/filem"
	"repro/internal/vfs"
)

// treeChecksums hashes every payload file of an interval directory the
// way the commit did before the gather's digests became the manifest:
// by re-reading the bytes that landed on stable storage.
func treeChecksums(t *testing.T, fsys vfs.FS, dir string) map[string]string {
	t.Helper()
	sums := make(map[string]string)
	err := vfs.Walk(fsys, dir, func(name string, _ vfs.FileInfo) error {
		rel := strings.TrimPrefix(name, dir+"/")
		if rel == snapshot.GlobalMetaFile || rel == snapshot.CommittedFile {
			return nil
		}
		data, err := fsys.ReadFile(name)
		if err != nil {
			return err
		}
		sums[rel] = vfs.HashBytes(data)
		return nil
	})
	if err != nil {
		t.Fatalf("checksum %s: %v", dir, err)
	}
	return sums
}

func TestGatherDigestsAreTheManifest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params map[string]string
	}{
		{"dedup", nil},
		{"filem_dedup=0", map[string]string{"filem_dedup": "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 4)
			h.job.imageBody = staticImage
			h.job.params = tc.params
			dir := snapshot.GlobalDirName(7)
			// Interval 0 is the lineage's first (no baseline); interval 1
			// dedups unless filem_dedup=0.
			for iv := 0; iv < 2; iv++ {
				res, err := h.checkpoint(dir, iv, Options{})
				if err != nil {
					t.Fatalf("interval %d: %v", iv, err)
				}
				want := treeChecksums(t, h.stable, res.Ref.IntervalDir(iv))
				if !reflect.DeepEqual(res.Meta.Checksums, want) {
					t.Errorf("interval %d manifest = %v, want the stage's checksums %v", iv, res.Meta.Checksums, want)
				}
				if len(res.GatherStats.Digests) != len(want) {
					t.Errorf("interval %d: gather returned %d digests for %d files", iv, len(res.GatherStats.Digests), len(want))
				}
			}
		})
	}
}

// flipFS flips one byte of the first rank image written under prefix:
// a byte damaged on its way to stable storage.
type flipFS struct {
	vfs.FS
	prefix string
	mu     sync.Mutex
	hit    string
}

func (f *flipFS) WriteFile(name string, data []byte) error {
	f.mu.Lock()
	if f.hit == "" && strings.HasPrefix(name, f.prefix) && path.Base(name) == "process_image.bin" {
		f.hit = name
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	f.mu.Unlock()
	return f.FS.WriteFile(name, data)
}

func TestByteDamagedInGatherFailsVerify(t *testing.T) {
	h := newHarness(t, 4)
	dir := snapshot.GlobalDirName(7)
	ref := snapshot.GlobalRef{FS: h.stable, Dir: dir}
	if _, err := h.checkpoint(dir, 0, Options{}); err != nil {
		t.Fatalf("interval 0: %v", err)
	}
	// Only the gather writes through the flipping store: it sits behind
	// FILEM's stable node, so commit and verify see the real one.
	flip := &flipFS{FS: h.stable, prefix: ref.StageDir(1) + "/"}
	resolve := h.env.FilemEnv.Resolve
	h.env.FilemEnv.Resolve = func(node string) (vfs.FS, error) {
		if node == filem.StableNode {
			return flip, nil
		}
		return resolve(node)
	}
	if _, err := h.checkpoint(dir, 1, Options{}); err != nil {
		t.Fatalf("interval 1: %v", err)
	}
	if flip.hit == "" {
		t.Fatal("no rank image was written to stable storage")
	}
	if _, err := snapshot.VerifyInterval(ref, 1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("VerifyInterval(1) = %v, want ErrCorrupt: the manifest must carry the source bytes' digest", err)
	}
	iv, _, _, err := (&snapshot.Resolver{Ref: ref}).LatestValid()
	if err != nil || iv != 0 {
		t.Errorf("LatestValid = %d, %v; want the previous interval 0", iv, err)
	}
}

func TestReplicaPushesHashNothing(t *testing.T) {
	h := newReplicaHarness(t, 2, 4, "2")
	h.job.imageBody = staticImage
	dir := snapshot.GlobalDirName(7)
	for iv := 0; iv < 2; iv++ {
		res, err := h.checkpoint(dir, iv, Options{})
		if err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
		if res.ReplicasPlaced != 2 {
			t.Fatalf("interval %d: ReplicasPlaced = %d, want 2", iv, res.ReplicasPlaced)
		}
		if st := res.ReplicaStats; st.BytesHashed != 0 || st.Digests != nil {
			t.Errorf("interval %d replica pushes hashed %d bytes (%d digests), want none", iv, st.BytesHashed, len(st.Digests))
		}
		// The second push still dedups against the holder's previous
		// replica, by the committed manifest.
		if iv == 1 && res.ReplicaStats.BytesDeduped == 0 {
			t.Errorf("interval 1 replica pushes deduped nothing: %+v", res.ReplicaStats)
		}
	}
}
