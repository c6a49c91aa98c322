package snapshot

import (
	"errors"
	"path"
	"testing"

	"repro/internal/vfs"
)

// writeShare fabricates rank's local snapshot of job/interval at dir,
// sealing the stage at base when base is not empty.
func writeShare(t *testing.T, fsys vfs.FS, base, dir string, job, interval, rank int) {
	t.Helper()
	lm := validLocalMeta()
	lm.JobID, lm.Interval, lm.Vpid = job, interval, rank
	if _, err := WriteLocal(fsys, dir, lm); err != nil {
		t.Fatal(err)
	}
	if base != "" {
		sealStage(t, fsys, base)
	}
}

// TestLadderRungs walks one rank (rank 1, captured on n1) through every
// rung of the restore-source ladder, one row per rung or skip rule.
func TestLadderRungs(t *testing.T) {
	const job, iv, rank, origin = 7, 0, 1, "n1"
	stageDir := path.Join(LocalStageBase(job, iv), LocalDirName(rank))
	replicaBase := StageReplicaBase(job, iv, origin)
	rows := []struct {
		name   string
		held   bool
		target string
		dead   []string
		// setup fabricates the surviving copies; it may return the
		// copy the stable rung reads in place of the primary.
		setup    func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, res *Resolver) *Copy
		wantKind SourceKind
		wantNode string
		wantErr  bool
	}{
		{
			name: "stage in place", target: origin,
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				writeShare(t, nodes[origin], LocalStageBase(job, iv), stageDir, job, iv, rank)
				return nil
			},
			wantKind: FromStage, wantNode: origin,
		},
		{
			name: "stage replica of a held interval", held: true, target: origin, dead: []string{origin},
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				writeShare(t, nodes["n2"], replicaBase, path.Join(replicaBase, LocalDirName(rank)), job, iv, rank)
				return nil
			},
			wantKind: FromStageReplica, wantNode: "n2",
		},
		{
			name: "interval replica of a committed interval", target: "n0",
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				// The stage on n1 is not in place for a rank restarting on n0.
				writeShare(t, nodes[origin], LocalStageBase(job, iv), stageDir, job, iv, rank)
				replicate(t, ref, iv, nodes["n3"])
				return nil
			},
			wantKind: FromReplica, wantNode: "n3",
		},
		{
			name: "stable primary", target: origin,
			setup:    func(*testing.T, GlobalRef, map[string]vfs.FS, *Resolver) *Copy { return nil },
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "repaired stable primary", target: origin, dead: []string{"n3"},
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, res *Resolver) *Copy {
				replicate(t, ref, iv, nodes["n3"])
				corrupt(t, ref.FS, path.Join(ref.IntervalDir(iv), LocalDirName(rank), "image.bin"))
				alive := res.Nodes
				res.Nodes = []string{"n3"}
				_, cp, err := res.Resolve(iv)
				if err != nil || cp.Primary() {
					t.Fatalf("Resolve = %v, %v; want the n3 replica", cp, err)
				}
				if err := res.Repair(iv, cp); err != nil {
					t.Fatal(err)
				}
				res.Nodes = alive // n3 dies after the repair
				return nil
			},
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "alternate stable copy", target: origin,
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				// The resolver verified a copy the replica rung does not
				// walk (its holder is not a listed live node).
				replicate(t, ref, iv, nodes["n4"])
				if err := ref.FS.Remove(ref.IntervalDir(iv)); err != nil {
					t.Fatal(err)
				}
				return &Copy{Node: "n4", FS: nodes["n4"], Dir: ReplicaDir(ref.Dir, iv)}
			},
			wantKind: FromStable, wantNode: "n4",
		},
		{
			name: "dead stage-replica holder skipped", held: true, target: origin, dead: []string{origin, "n2"},
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				for _, h := range []string{"n2", "n3"} {
					writeShare(t, nodes[h], replicaBase, path.Join(replicaBase, LocalDirName(rank)), job, iv, rank)
				}
				return nil
			},
			wantKind: FromStageReplica, wantNode: "n3",
		},
		{
			name: "dead interval-replica holder skipped", target: "n0", dead: []string{"n2"},
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				replicate(t, ref, iv, nodes["n2"])
				replicate(t, ref, iv, nodes["n3"])
				return nil
			},
			wantKind: FromReplica, wantNode: "n3",
		},
		{
			name: "corrupt interval replica falls through to stable", target: "n0",
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				// The rank's own metadata still names the right job,
				// interval and rank; only verification sees the rot.
				replicate(t, ref, iv, nodes["n2"])
				corrupt(t, nodes["n2"], path.Join(ReplicaDir(ref.Dir, iv), LocalDirName(rank), "image.bin"))
				return nil
			},
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "corrupt interval replica skipped for an intact one", target: "n0",
			setup: func(t *testing.T, ref GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				replicate(t, ref, iv, nodes["n2"])
				replicate(t, ref, iv, nodes["n3"])
				corrupt(t, nodes["n2"], path.Join(ReplicaDir(ref.Dir, iv), LocalDirName(rank), "image.bin"))
				return nil
			},
			wantKind: FromReplica, wantNode: "n3",
		},
		{
			name: "another job's stage falls through", target: origin,
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				writeShare(t, nodes[origin], LocalStageBase(job, iv), stageDir, job+1, iv, rank)
				return nil
			},
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "another interval's stage falls through", target: origin,
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				writeShare(t, nodes[origin], LocalStageBase(job, iv), stageDir, job, iv+1, rank)
				return nil
			},
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "another rank's stage falls through", target: origin,
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				writeShare(t, nodes[origin], LocalStageBase(job, iv), stageDir, job, iv, rank-1)
				return nil
			},
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "unsealed stage falls through", target: origin,
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				writeShare(t, nodes[origin], "", stageDir, job, iv, rank)
				return nil
			},
			wantKind: FromStable, wantNode: "",
		},
		{
			name: "held interval with no surviving share", held: true, target: origin, dead: []string{origin},
			setup: func(t *testing.T, _ GlobalRef, nodes map[string]vfs.FS, _ *Resolver) *Copy {
				// A replica of another origin's share is no help.
				other := StageReplicaBase(job, iv, "n0")
				writeShare(t, nodes["n2"], other, path.Join(other, LocalDirName(rank)), job, iv, rank)
				return nil
			},
			wantErr: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref := GlobalRef{FS: vfs.NewMem(), Dir: GlobalDirName(job)}
			meta := writeInterval(t, ref, iv, 2, 'a')
			nodes := make(map[string]vfs.FS)
			dead := make(map[string]bool)
			for _, n := range row.dead {
				dead[n] = true
			}
			res := &Resolver{Ref: ref, NodeFS: func(n string) (vfs.FS, error) {
				if dead[n] {
					return nil, errors.New("node is down")
				}
				return nodes[n], nil
			}}
			for _, n := range []string{"n0", "n1", "n2", "n3", "n4"} {
				nodes[n] = vfs.NewMem()
				if !dead[n] && n != "n4" {
					res.Nodes = append(res.Nodes, n)
				}
			}
			// The fixtures are written before the dead nodes "die".
			fs := res.NodeFS
			res.NodeFS = func(n string) (vfs.FS, error) { return nodes[n], nil }
			cp := row.setup(t, ref, nodes, res)
			res.NodeFS = fs

			var ladder *Ladder
			if row.held {
				ladder = res.HeldLadder(levelEntry(job, iv, "n0", origin))
			} else {
				stable := Copy{FS: ref.FS, Dir: ref.IntervalDir(iv)}
				if cp != nil {
					stable = *cp
				}
				ladder = res.CommittedLadder(meta, stable)
			}
			src, err := ladder.Source(rank, origin, row.target)
			if row.wantErr {
				if err == nil {
					t.Fatalf("Source = %+v, want an error", src)
				}
				return
			}
			if err != nil {
				t.Fatalf("Source: %v", err)
			}
			if src.Kind != row.wantKind || src.Node != row.wantNode {
				t.Fatalf("Source = kind %d on %q, want kind %d on %q", src.Kind, src.Node, row.wantKind, row.wantNode)
			}
			if src.Meta.JobID != job || src.Meta.Interval != iv || src.Meta.Vpid != rank {
				t.Fatalf("Source meta = %+v, want job %d interval %d rank %d", src.Meta, job, iv, rank)
			}
			if _, err := src.FS.ReadFile(path.Join(src.Dir, LocalMetaFile)); err != nil {
				t.Fatalf("source dir %q unreadable: %v", src.Dir, err)
			}
		})
	}
}
