package snapshot

import (
	"errors"
	"path"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// verifyInPlace is the check a ShareLadder's caller makes of a copy it
// reads where it lies.
func verifyInPlace(src Source) (LocalMeta, error) { return VerifyShare(src.FS, src.Dir, src.Sums) }

// TestShareLadderChecksEachShareWhereRead walks rank 1 (captured on n1)
// of a committed interval through a ShareLadder, whose copies nobody
// verified whole: each rung's copy is hashed where it lies, and a
// damaged one is skipped like a missing one.
func TestShareLadderChecksEachShareWhereRead(t *testing.T) {
	const job, iv, rank, origin = 7, 0, 1, "n1"
	stage := func(t *testing.T, ref GlobalRef, node vfs.FS) string {
		base := LocalStageBase(job, iv)
		dir := path.Join(base, LocalDirName(rank))
		if _, err := vfs.CopyTree(ref.FS, path.Join(ref.IntervalDir(iv), LocalDirName(rank)), node, dir); err != nil {
			t.Fatal(err)
		}
		sealStage(t, node, base)
		return dir
	}
	rows := []struct {
		name     string
		target   string
		setup    func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS)
		wantKind SourceKind
		wantNode string
		wantErr  error
	}{
		{
			name: "intact stage in place", target: origin,
			setup:    func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS) { stage(t, ref, nodes[origin]) },
			wantKind: FromStage, wantNode: origin,
		},
		{
			name: "damaged stage falls through to stable", target: origin,
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS) {
				corrupt(t, nodes[origin], path.Join(stage(t, ref, nodes[origin]), "image.bin"))
			},
			wantKind: FromStable,
		},
		{
			name: "replica on the target node first", target: "n3",
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS) {
				replicate(t, ref, iv, nodes["n2"])
				replicate(t, ref, iv, nodes["n3"])
			},
			wantKind: FromReplica, wantNode: "n3",
		},
		{
			name: "damaged replica skipped for another", target: "n0",
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS) {
				replicate(t, ref, iv, nodes["n2"])
				replicate(t, ref, iv, nodes["n3"])
				corrupt(t, nodes["n2"], path.Join(ReplicaDir(ref.Dir, iv), LocalDirName(rank), "image.bin"))
			},
			wantKind: FromReplica, wantNode: "n3",
		},
		{
			name: "every copy damaged", target: origin,
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS) {
				corrupt(t, nodes[origin], path.Join(stage(t, ref, nodes[origin]), "image.bin"))
				corrupt(t, ref.FS, path.Join(ref.IntervalDir(iv), LocalDirName(rank), "image.bin"))
			},
			wantErr: ErrNoCopy,
		},
		{
			name: "a copy missing a file", target: origin,
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS) {
				if err := nodes[origin].Remove(path.Join(stage(t, ref, nodes[origin]), "image.bin")); err != nil {
					t.Fatal(err)
				}
			},
			wantKind: FromStable,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref := GlobalRef{FS: vfs.NewMem(), Dir: GlobalDirName(job)}
			writeInterval(t, ref, iv, 2, 'a')
			nodes := map[string]vfs.FS{"n0": vfs.NewMem(), "n1": vfs.NewMem(), "n2": vfs.NewMem(), "n3": vfs.NewMem()}
			res := &Resolver{Ref: ref, Nodes: []string{"n0", "n1", "n2", "n3"},
				NodeFS: func(n string) (vfs.FS, error) { return nodes[n], nil }}
			row.setup(t, ref, nodes)
			meta, cp, err := res.Committed(iv)
			if err != nil {
				t.Fatal(err)
			}
			src, err := res.ShareLadder(meta, cp).Walk(rank, origin, row.target, verifyInPlace)
			if row.wantErr != nil {
				if !errors.Is(err, row.wantErr) || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Walk = %+v, %v; want %v after a corrupt copy", src, err, row.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Walk: %v", err)
			}
			if src.Kind != row.wantKind || src.Node != row.wantNode {
				t.Fatalf("Walk = kind %d on %q, want kind %d on %q", src.Kind, src.Node, row.wantKind, row.wantNode)
			}
			if src.Meta.JobID != job || src.Meta.Vpid != rank || len(src.Sums) != 2 {
				t.Fatalf("Walk = meta %+v, sums %v; want rank %d's identity and its two digests", src.Meta, src.Sums, rank)
			}
		})
	}
}

// TestShareLadderWalkStopsOnAForeignError: an error from the caller
// that says nothing about the copy (the target cannot be written, say)
// ends the walk instead of moving to the next rung.
func TestShareLadderWalkStopsOnAForeignError(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: GlobalDirName(7)}
	writeInterval(t, ref, 0, 2, 'a')
	res := &Resolver{Ref: ref}
	meta, cp, err := res.Committed(0)
	if err != nil {
		t.Fatal(err)
	}
	down := errors.New("target node is down")
	calls := 0
	_, err = res.ShareLadder(meta, cp).Walk(1, "n1", "n0", func(Source) (LocalMeta, error) {
		calls++
		return LocalMeta{}, down
	})
	if !errors.Is(err, down) || errors.Is(err, ErrNoCopy) || calls != 1 {
		t.Fatalf("Walk = %v after %d calls, want the caller's error after one", err, calls)
	}
}

// payloadReads counts the payload reads made through it: every file but
// global metadata and commit markers.
type payloadReads struct {
	vfs.FS
	payload int
}

func (c *payloadReads) ReadFile(name string) ([]byte, error) {
	if base := path.Base(name); base != GlobalMetaFile && base != CommittedFile {
		c.payload++
	}
	return c.FS.ReadFile(name)
}

// TestLatestRestorableWalksFromMetadata: the recovery frontier is the
// newest interval whose metadata checks out and that the caller can
// restore. Finding it reads no payload; an interval the caller finds a
// share missing from (ErrNoCopy) gives way to the next older one, any
// other failure ends the walk, and a primary whose metadata does not
// check out gives way to a replica's.
func TestLatestRestorableWalksFromMetadata(t *testing.T) {
	mem := vfs.NewMem()
	ref := GlobalRef{FS: mem, Dir: GlobalDirName(7)}
	writeInterval(t, ref, 0, 2, 'a')
	writeInterval(t, ref, 1, 2, 'b')
	counted := &payloadReads{FS: mem}
	res := &Resolver{Ref: GlobalRef{FS: counted, Dir: ref.Dir}}

	var tried []int
	iv, meta, cp, err := res.LatestRestorable(func(m GlobalMeta, _ Copy) error {
		tried = append(tried, m.Interval)
		if m.Interval == 1 {
			return ErrNoCopy
		}
		return nil
	})
	if err != nil || iv != 0 || meta.Interval != 0 || !cp.Primary() {
		t.Fatalf("LatestRestorable = %d (meta %d, %s), %v; want interval 0 on the primary", iv, meta.Interval, cp, err)
	}
	if len(tried) != 2 || counted.payload != 0 {
		t.Fatalf("tried %v and read %d payload files, want intervals [1 0] and no payload", tried, counted.payload)
	}

	stop := errors.New("session aborted")
	tried = nil
	if _, _, _, err := res.LatestRestorable(func(m GlobalMeta, _ Copy) error {
		tried = append(tried, m.Interval)
		return stop
	}); !errors.Is(err, stop) || len(tried) != 1 {
		t.Fatalf("LatestRestorable = %v after trying %v, want the abort after interval 1 alone", err, tried)
	}

	node := vfs.NewMem()
	replicate(t, ref, 1, node)
	if err := mem.WriteFile(path.Join(ref.IntervalDir(1), GlobalMetaFile), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	res.Nodes = []string{"n0"}
	res.NodeFS = func(string) (vfs.FS, error) { return node, nil }
	iv, _, cp, err = res.LatestRestorable(func(GlobalMeta, Copy) error { return nil })
	if err != nil || iv != 1 || cp.Node != "n0" {
		t.Fatalf("LatestRestorable = %d on %s, %v; want interval 1 on the n0 replica", iv, cp, err)
	}

	empty := &Resolver{Ref: GlobalRef{FS: vfs.NewMem(), Dir: ref.Dir}}
	if _, _, _, err := empty.LatestRestorable(func(GlobalMeta, Copy) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "no committed checkpoint intervals") {
		t.Fatalf("LatestRestorable on an empty lineage = %v", err)
	}
}

// TestCommittedFailsWithNoCopy: an interval no copy of whose metadata
// checks out fails with ErrNoCopy.
func TestCommittedFailsWithNoCopy(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: GlobalDirName(7)}
	writeInterval(t, ref, 0, 2, 'a')
	if err := ref.FS.Remove(path.Join(ref.IntervalDir(0), CommittedFile)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&Resolver{Ref: ref}).Committed(0); !errors.Is(err, ErrNoCopy) || !errors.Is(err, ErrUncommitted) {
		t.Fatalf("Committed = %v, want ErrNoCopy for an uncommitted interval", err)
	}
}

// TestVerifyShare reads each listed file of a share once and decodes
// the local metadata from the bytes it hashed.
func TestVerifyShare(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: GlobalDirName(7)}
	meta := writeInterval(t, ref, 0, 2, 'a')
	dir := path.Join(ref.IntervalDir(0), LocalDirName(1))
	sums := make(map[string]string)
	for rel, sum := range meta.Checksums {
		if f, ok := strings.CutPrefix(rel, LocalDirName(1)+"/"); ok {
			sums[f] = sum
		}
	}
	counted := &payloadReads{FS: ref.FS}
	lm, err := VerifyShare(counted, dir, sums)
	if err != nil || lm.Vpid != 1 || counted.payload != len(sums) {
		t.Fatalf("VerifyShare = %+v, %v after %d reads; want rank 1 after %d", lm, err, counted.payload, len(sums))
	}
	noMeta := map[string]string{"image.bin": sums["image.bin"]}
	if _, err := VerifyShare(ref.FS, dir, noMeta); !errors.Is(err, ErrCorrupt) {
		t.Errorf("VerifyShare without local metadata = %v, want ErrCorrupt", err)
	}
	if _, err := VerifyShare(ref.FS, path.Join(ref.IntervalDir(0), "nowhere"), sums); !errors.Is(err, ErrCorrupt) {
		t.Errorf("VerifyShare of a missing share = %v, want ErrCorrupt", err)
	}
}
