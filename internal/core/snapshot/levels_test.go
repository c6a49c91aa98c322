package snapshot

import (
	"path"
	"testing"

	"repro/internal/vfs"
)

// sealStage fabricates a sealed node-local stage share: the base dir
// plus the LOCAL_COMMITTED marker the drain and restart paths trust.
func sealStage(t *testing.T, fsys vfs.FS, base string) {
	t.Helper()
	if err := fsys.MkdirAll(base); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(path.Join(base, LocalCommittedFile), []byte("ok\n")); err != nil {
		t.Fatal(err)
	}
}

func levelEntry(jobID, interval int, nodes ...string) JournalEntry {
	return JournalEntry{
		Interval: interval, State: StateCaptured,
		JobID: jobID, NumProcs: len(nodes), Nodes: nodes,
		LocalBase: LocalStageBase(jobID, interval),
	}
}

func TestStagePathConventions(t *testing.T) {
	if got, want := LocalStageBase(7, 3), "tmp/ckpt/job7/3"; got != want {
		t.Errorf("LocalStageBase = %q, want %q", got, want)
	}
	if got, want := StageReplicaBase(7, 3, "node1"), "tmp/ckpt_stage_replicas/job7/3/node1"; got != want {
		t.Errorf("StageReplicaBase = %q, want %q", got, want)
	}
}

// The level survey across all three rungs at once: a stable commit is
// L3, fully-staged entries are L1, an entry whose lost share survives
// only as a peer's stage replica is L2, and an entry with a share gone
// both ways is not restorable at all.
func TestSurveyLevels(t *testing.T) {
	const jobID = 7
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	writeInterval(t, ref, 0, 2, 'a')

	nodes := map[string]vfs.FS{"n0": vfs.NewMem(), "n1": vfs.NewMem(), "n2": vfs.NewMem()}
	res := &Resolver{
		Ref:   ref,
		Nodes: []string{"n0", "n1", "n2"},
		NodeFS: func(n string) (vfs.FS, error) {
			return nodes[n], nil
		},
	}

	// Interval 1: both origins hold their own sealed stage — pure L1.
	sealStage(t, nodes["n0"], LocalStageBase(jobID, 1))
	sealStage(t, nodes["n1"], LocalStageBase(jobID, 1))
	// Interval 2: n0 holds its stage, n1's share survives only as a
	// stage replica on n2 — the L2 rung carries it.
	sealStage(t, nodes["n0"], LocalStageBase(jobID, 2))
	sealStage(t, nodes["n2"], StageReplicaBase(jobID, 2, "n1"))
	// Interval 3: n1's share is gone everywhere — unrestorable.
	sealStage(t, nodes["n0"], LocalStageBase(jobID, 3))

	entries := []JournalEntry{
		levelEntry(jobID, 1, "n0", "n1"),
		levelEntry(jobID, 2, "n0", "n1"),
		levelEntry(jobID, 3, "n0", "n1"),
	}
	entries[1].Level = 2

	infos := res.SurveyLevels(jobID, entries)
	if len(infos) != 4 {
		t.Fatalf("survey found %d intervals, want 4: %+v", len(infos), infos)
	}
	byIv := make(map[int]LevelInfo, len(infos))
	for _, info := range infos {
		byIv[info.Interval] = info
	}
	if i := byIv[0]; i.Best != LevelStable || !i.Stable || i.Label != "L3" || !i.Restorable {
		t.Errorf("stable interval: %+v", i)
	}
	if i := byIv[1]; i.Best != LevelLocal || i.Label != "L1" || len(i.L1Nodes) != 2 || !i.Restorable {
		t.Errorf("L1 interval: %+v", i)
	}
	if i := byIv[2]; i.Best != LevelReplica || i.Label != "L2" || i.L2Held["n1"] != "n2" || !i.Restorable {
		t.Errorf("L2 interval: %+v", i)
	}
	if i := byIv[3]; i.Best != 0 || i.Restorable {
		t.Errorf("lost interval still restorable: %+v", i)
	}

	// The multilevel restart rule: the newest restorable interval wins
	// whatever rung holds it — here the L2-held interval 2, beating the
	// older stable commit.
	if iv, level := newestRestorable(infos); iv != 2 || level != LevelReplica {
		t.Fatalf("newest restorable = (%d, %d), want (2, L2)", iv, level)
	}
}

// newestRestorable returns the newest surveyed interval some level can
// restore, and that level; (-1, 0) when there is none.
func newestRestorable(infos []LevelInfo) (int, int) {
	for i := len(infos) - 1; i >= 0; i-- {
		if infos[i].Best > 0 {
			return infos[i].Interval, infos[i].Best
		}
	}
	return -1, 0
}

// Terminal journal entries drop out of the survey; a parked entry keeps
// its distinct label so the stats table never renders backlog as L1.
func TestSurveyLevelsLabelsAndTerminals(t *testing.T) {
	const jobID = 9
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	node := vfs.NewMem()
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n0"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
	}
	sealStage(t, node, LocalStageBase(jobID, 1))
	parked := levelEntry(jobID, 1, "n0")
	parked.Parked = true
	discarded := levelEntry(jobID, 2, "n0")
	discarded.State = StateDiscarded
	infos := res.SurveyLevels(jobID, []JournalEntry{parked, discarded})
	if len(infos) != 1 {
		t.Fatalf("survey = %+v, want only the parked interval", infos)
	}
	if infos[0].Label != "parked" || infos[0].Best != LevelLocal {
		t.Fatalf("parked interval: %+v", infos[0])
	}
}

// An empty lineage has nothing to restore at any level.
func TestSurveyLevelsEmpty(t *testing.T) {
	res := &Resolver{Ref: GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}}
	if infos := res.SurveyLevels(1, nil); len(infos) != 0 {
		t.Fatalf("survey of an empty lineage = %+v, want none", infos)
	}
}

// A corrupt stable copy is not LevelStable — but the same interval's
// surviving sealed stages still carry it at L1 (the level survey never
// lets a bad rung hide a good lower one).
func TestSurveyLevelsCorruptStableFallsBack(t *testing.T) {
	const jobID = 5
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "g.ckpt"}
	meta := writeInterval(t, ref, 0, 2, 'x')
	corrupt(t, ref.FS, path.Join(ref.IntervalDir(0), meta.Procs[0].LocalDir, "image.bin"))
	node := vfs.NewMem()
	res := &Resolver{
		Ref:    ref,
		Nodes:  []string{"n0"},
		NodeFS: func(string) (vfs.FS, error) { return node, nil },
	}
	sealStage(t, node, LocalStageBase(jobID, 0))
	infos := res.SurveyLevels(jobID, []JournalEntry{levelEntry(jobID, 0, "n0")})
	if len(infos) != 1 || infos[0].Best != LevelLocal || infos[0].Stable {
		t.Fatalf("corrupt stable + sealed stage: %+v", infos)
	}
}
