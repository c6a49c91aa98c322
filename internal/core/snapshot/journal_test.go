package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/vfs"
)

func testJournal(t *testing.T) *Journal {
	t.Helper()
	return OpenJournal(GlobalRef{FS: vfs.NewMem(), Dir: "stable/ompi_global_snapshot_1.ckpt"})
}

func captured(interval int) JournalEntry {
	return JournalEntry{
		Interval: interval, State: StateCaptured,
		JobID: 1, NumProcs: 2, Nodes: []string{"node0"},
		LocalBase: "tmp/ckpt/job1/0",
		Procs: []JournalProc{
			{Vpid: 0, Node: "node0", Component: "self", Dir: "tmp/ckpt/job1/0/0"},
			{Vpid: 1, Node: "node0", Component: "self", Dir: "tmp/ckpt/job1/0/1"},
		},
		StagedBytes: 128,
	}
}

// The lifecycle machine, edge by edge: every (from, to) pair has a
// defined verdict, including the re-entrant DRAINING edge recovery
// re-drains take and the immobility of terminal states.
func TestValidTransitionMatrix(t *testing.T) {
	states := []IntervalState{"", StateCaptured, StateDraining, StateCommitted, StateDiscarded}
	legal := map[[2]IntervalState]bool{
		{"", StateCaptured}:             true,
		{StateCaptured, StateDraining}:  true,
		{StateCaptured, StateDiscarded}: true,
		{StateDraining, StateDraining}:  true, // recovery re-drain
		{StateDraining, StateCommitted}: true,
		{StateDraining, StateDiscarded}: true,
	}
	for _, from := range states {
		for _, to := range states {
			want := legal[[2]IntervalState{from, to}]
			if got := ValidTransition(from, to); got != want {
				t.Errorf("ValidTransition(%q, %q) = %v, want %v", from, to, got, want)
			}
		}
	}
}

func TestTerminal(t *testing.T) {
	for s, want := range map[IntervalState]bool{
		StateCaptured: false, StateDraining: false,
		StateCommitted: true, StateDiscarded: true,
	} {
		if got := s.Terminal(); got != want {
			t.Errorf("%s.Terminal() = %v, want %v", s, got, want)
		}
	}
}

func TestJournalMissingIsEmpty(t *testing.T) {
	j := testJournal(t)
	entries, err := j.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("missing journal loaded %d entries", len(entries))
	}
	und, err := j.Undrained()
	if err != nil || len(und) != 0 {
		t.Fatalf("Undrained on missing journal: %v, %v", und, err)
	}
	if _, ok, err := j.HighestCommitted(); err != nil || ok {
		t.Fatalf("HighestCommitted on missing journal: ok=%v err=%v", ok, err)
	}
}

func TestRecordAndEntry(t *testing.T) {
	j := testJournal(t)
	if err := j.Record(captured(1)); err != nil {
		t.Fatalf("Record: %v", err)
	}
	e, ok, err := j.Entry(1)
	if err != nil || !ok {
		t.Fatalf("Entry(1): ok=%v err=%v", ok, err)
	}
	if e.State != StateCaptured || e.StagedBytes != 128 || len(e.Procs) != 2 {
		t.Fatalf("entry round-trip mangled: %+v", e)
	}
	if e.CapturedAt.IsZero() || e.UpdatedAt.IsZero() {
		t.Fatalf("Record left timestamps zero: %+v", e)
	}
	if _, ok, _ := j.Entry(99); ok {
		t.Fatal("Entry(99) found a phantom entry")
	}
}

func TestRecordRejectsNonCaptured(t *testing.T) {
	j := testJournal(t)
	for _, s := range []IntervalState{StateDraining, StateCommitted, StateDiscarded} {
		e := captured(1)
		e.State = s
		if err := j.Record(e); err == nil {
			t.Errorf("Record accepted initial state %s", s)
		}
	}
}

// Journal progress is monotone: a new interval must be beyond every
// recorded one, including terminal ones — duplicates and regressions are
// both rejected.
func TestRecordMonotone(t *testing.T) {
	j := testJournal(t)
	if err := j.Record(captured(5)); err != nil {
		t.Fatalf("Record(5): %v", err)
	}
	if err := j.Record(captured(5)); err == nil {
		t.Fatal("Record accepted duplicate interval 5")
	}
	if err := j.Record(captured(3)); err == nil {
		t.Fatal("Record accepted regressed interval 3")
	}
	if _, err := j.Transition(5, StateDraining, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Transition(5, StateCommitted, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(captured(5)); err == nil {
		t.Fatal("Record accepted re-capture of committed interval 5")
	}
	if err := j.Record(captured(6)); err != nil {
		t.Fatalf("Record(6) after commit of 5: %v", err)
	}
}

func TestTransitionFullLifecycle(t *testing.T) {
	j := testJournal(t)
	if err := j.Record(captured(1)); err != nil {
		t.Fatal(err)
	}
	e, err := j.Transition(1, StateDraining, "")
	if err != nil || e.State != StateDraining {
		t.Fatalf("-> DRAINING: %+v, %v", e, err)
	}
	// Re-entering DRAINING (the recovery re-drain edge) is legal.
	if _, err := j.Transition(1, StateDraining, ""); err != nil {
		t.Fatalf("DRAINING -> DRAINING: %v", err)
	}
	e, err = j.Transition(1, StateCommitted, "")
	if err != nil || e.State != StateCommitted {
		t.Fatalf("-> COMMITTED: %+v, %v", e, err)
	}
	// Terminal: nothing moves it again.
	for _, to := range []IntervalState{StateCaptured, StateDraining, StateCommitted, StateDiscarded} {
		if _, err := j.Transition(1, to, ""); err == nil {
			t.Errorf("COMMITTED moved to %s", to)
		}
	}
}

func TestTransitionIllegalEdges(t *testing.T) {
	j := testJournal(t)
	if err := j.Record(captured(1)); err != nil {
		t.Fatal(err)
	}
	// CAPTURED cannot jump straight to COMMITTED: the drain must run.
	if _, err := j.Transition(1, StateCommitted, ""); err == nil {
		t.Fatal("CAPTURED -> COMMITTED accepted")
	}
	// No entry at all: every interval must be Recorded first.
	if _, err := j.Transition(7, StateDraining, ""); err == nil {
		t.Fatal("Transition on missing entry accepted")
	}
	if _, err := j.Transition(7, StateCommitted, ""); err == nil {
		t.Fatal("COMMITTED-from-nothing accepted")
	}
}

func TestDiscardRecordsCause(t *testing.T) {
	j := testJournal(t)
	if err := j.Record(captured(1)); err != nil {
		t.Fatal(err)
	}
	e, err := j.Transition(1, StateDiscarded, "node0 died mid-capture")
	if err != nil {
		t.Fatal(err)
	}
	if e.Cause != "node0 died mid-capture" {
		t.Fatalf("Cause = %q", e.Cause)
	}
	got, _, _ := j.Entry(1)
	if got.Cause != "node0 died mid-capture" {
		t.Fatalf("persisted Cause = %q", got.Cause)
	}
}

func TestUndrainedAndDiscardUndrained(t *testing.T) {
	j := testJournal(t)
	for i := 1; i <= 4; i++ {
		if err := j.Record(captured(i)); err != nil {
			t.Fatal(err)
		}
		if i <= 2 { // drain 1 and 2 fully
			if _, err := j.Transition(i, StateDraining, ""); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Transition(i, StateCommitted, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := j.Transition(3, StateDraining, ""); err != nil {
		t.Fatal(err)
	}
	und, err := j.Undrained()
	if err != nil {
		t.Fatal(err)
	}
	if len(und) != 2 || und[0].Interval != 3 || und[1].Interval != 4 {
		t.Fatalf("Undrained = %+v", und)
	}
	n, err := j.DiscardUndrained("tool recovery")
	if err != nil || n != 2 {
		t.Fatalf("DiscardUndrained = %d, %v", n, err)
	}
	und, _ = j.Undrained()
	if len(und) != 0 {
		t.Fatalf("entries still undrained after discard: %+v", und)
	}
	for _, iv := range []int{3, 4} {
		e, _, _ := j.Entry(iv)
		if e.State != StateDiscarded || e.Cause != "tool recovery" {
			t.Fatalf("interval %d after discard: %+v", iv, e)
		}
	}
	// Idempotent: nothing left to discard.
	if n, err := j.DiscardUndrained("again"); err != nil || n != 0 {
		t.Fatalf("second DiscardUndrained = %d, %v", n, err)
	}
}

func TestHighestCommitted(t *testing.T) {
	j := testJournal(t)
	for i := 1; i <= 3; i++ {
		if err := j.Record(captured(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Transition(i, StateDraining, ""); err != nil {
			t.Fatal(err)
		}
		to, cause := StateCommitted, ""
		if i == 3 { // newest interval failed its drain
			to, cause = StateDiscarded, "gather failed"
		}
		if _, err := j.Transition(i, to, cause); err != nil {
			t.Fatal(err)
		}
	}
	best, ok, err := j.HighestCommitted()
	if err != nil || !ok || best != 2 {
		t.Fatalf("HighestCommitted = %d, %v, %v (want 2)", best, ok, err)
	}
}

// The journal is bounded: once entries beyond the cap are terminal, the
// oldest terminal ones are trimmed — but mid-lifecycle entries are never
// dropped, no matter how old.
func TestJournalTrimsOldestTerminal(t *testing.T) {
	j := testJournal(t)
	total := maxJournalEntries + 10
	for i := 1; i <= total; i++ {
		if err := j.Record(captured(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			continue // leave interval 1 CAPTURED: undrained forever
		}
		if _, err := j.Transition(i, StateDraining, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Transition(i, StateCommitted, ""); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > maxJournalEntries {
		t.Fatalf("journal holds %d entries, cap is %d", len(entries), maxJournalEntries)
	}
	// The undrained entry survived the trim; the oldest terminal ones
	// went first.
	if e, ok, _ := j.Entry(1); !ok || e.State != StateCaptured {
		t.Fatalf("undrained interval 1 was trimmed: ok=%v %+v", ok, e)
	}
	if _, ok, _ := j.Entry(2); ok {
		t.Fatal("oldest terminal interval 2 survived the trim")
	}
	if e, ok, _ := j.Entry(total); !ok || e.State != StateCommitted {
		t.Fatal("newest interval was trimmed")
	}
}

// Level and Parked ride beside the lifecycle state machine: SetLevel
// records an L1→L2 promotion durably, SetParked flags degraded-mode
// backlog, and any terminal transition clears the parked flag (a
// committed interval is L3, a discarded one is gone).
func TestSetLevelAndSetParked(t *testing.T) {
	j := testJournal(t)
	if err := j.Record(captured(1)); err != nil {
		t.Fatal(err)
	}
	e, err := j.SetLevel(1, 2)
	if err != nil || e.Level != 2 {
		t.Fatalf("SetLevel: %+v, %v", e, err)
	}
	got, _, _ := j.Entry(1)
	if got.Level != 2 || got.State != StateCaptured {
		t.Fatalf("persisted: %+v", got)
	}
	if _, err := j.SetLevel(9, 2); err == nil {
		t.Fatal("SetLevel created a phantom entry")
	}
	e, err = j.SetParked(1, true)
	if err != nil || !e.Parked {
		t.Fatalf("SetParked: %+v, %v", e, err)
	}
	if _, err := j.SetParked(9, true); err == nil {
		t.Fatal("SetParked created a phantom entry")
	}
	// Commit path clears Parked.
	if _, err := j.Transition(1, StateDraining, ""); err != nil {
		t.Fatal(err)
	}
	e, err = j.Transition(1, StateCommitted, "")
	if err != nil || e.Parked {
		t.Fatalf("commit left Parked set: %+v, %v", e, err)
	}
	// Discard path clears Parked too.
	if err := j.Record(captured(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.SetParked(2, true); err != nil {
		t.Fatal(err)
	}
	e, err = j.Transition(2, StateDiscarded, "nodes gone")
	if err != nil || e.Parked {
		t.Fatalf("discard left Parked set: %+v, %v", e, err)
	}
}

// The stats label: parked intervals must NOT render as L1 even though
// they share the CAPTURED state and LOCAL_COMMITTED stages (the
// degraded-mode regression ISSUE 10 satellite d fixes).
func TestLevelLabel(t *testing.T) {
	cases := []struct {
		name string
		e    JournalEntry
		want string
	}{
		{"legacy-captured", JournalEntry{State: StateCaptured}, "L1"},
		{"l1-held", JournalEntry{State: StateCaptured, Level: 1}, "L1"},
		{"l2-held", JournalEntry{State: StateCaptured, Level: 2}, "L2"},
		{"parked", JournalEntry{State: StateCaptured, Parked: true}, "parked"},
		{"parked-wins-over-level", JournalEntry{State: StateCaptured, Level: 2, Parked: true}, "parked"},
		{"draining", JournalEntry{State: StateDraining}, "L1"},
		{"committed", JournalEntry{State: StateCommitted}, "L3"},
		{"committed-ignores-stale-level", JournalEntry{State: StateCommitted, Level: 2}, "L3"},
		{"discarded", JournalEntry{State: StateDiscarded}, "-"},
	}
	for _, tc := range cases {
		if got := tc.e.LevelLabel(); got != tc.want {
			t.Errorf("%s: LevelLabel() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// A journal rewrite is atomic: the temp file never survives a store. A
// corrupt or version-skewed journal is quarantined — moved aside under
// JournalCorruptFile for post-mortem, the journal restarts empty — so
// one torn file never wedges every later drain operation. The sealed
// LOCAL_COMMITTED stage markers remain the recoverable ground truth
// (snapc.RebuildJournal reconstructs the lost entries from them).
func TestJournalStoreAtomicityAndCorruption(t *testing.T) {
	fs := vfs.NewMem()
	j := OpenJournal(GlobalRef{FS: fs, Dir: "lineage"})
	if err := j.Record(captured(1)); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(fs, "lineage/"+journalTmp) {
		t.Fatal("temp journal left behind after store")
	}
	if err := fs.WriteFile("lineage/"+JournalFile, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Load()
	if err != nil || len(entries) != 0 {
		t.Fatalf("corrupt journal: %d entries, err %v; want empty after quarantine", len(entries), err)
	}
	if !vfs.Exists(fs, "lineage/"+JournalCorruptFile) {
		t.Fatal("corrupt journal was not moved to the quarantine name")
	}
	if vfs.Exists(fs, "lineage/"+JournalFile) {
		t.Fatal("corrupt journal left in place after quarantine")
	}
	if got := j.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}
	// The journal restarts empty and immediately usable.
	if err := j.Record(captured(5)); err != nil {
		t.Fatalf("record after quarantine: %v", err)
	}
	// Version skew quarantines the same way.
	if err := fs.WriteFile("lineage/"+JournalFile, []byte(`{"version": 99, "entries": []}`)); err != nil {
		t.Fatal(err)
	}
	if entries, err := j.Load(); err != nil || len(entries) != 0 {
		t.Fatalf("version-skew journal: %d entries, err %v; want empty after quarantine", len(entries), err)
	}
	if got := j.Quarantined(); got != 2 {
		t.Fatalf("Quarantined() = %d, want 2", got)
	}
}

// A crash mid-write on a non-atomic backend can leave the journal
// truncated at ANY byte offset. Sweep every prefix of a real journal:
// each one must load without error — either parsing cleanly (only the
// full document does) or quarantining — and the journal must accept new
// records immediately afterwards. No offset may wedge the lineage.
func TestJournalTruncationAtEveryByte(t *testing.T) {
	fs := vfs.NewMem()
	j := OpenJournal(GlobalRef{FS: fs, Dir: "lineage"})
	for iv := 0; iv < 3; iv++ {
		e := captured(iv)
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Transition(iv, StateDraining, "test"); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Transition(iv, StateCommitted, "test"); err != nil {
			t.Fatal(err)
		}
	}
	intact, err := fs.ReadFile("lineage/" + JournalFile)
	if err != nil {
		t.Fatal(err)
	}
	full, err := j.Load()
	if err != nil || len(full) != 3 {
		t.Fatalf("intact journal: %d entries, err %v", len(full), err)
	}

	for cut := 0; cut < len(intact); cut++ {
		torn := append([]byte(nil), intact[:cut]...)
		if err := fs.WriteFile("lineage/"+JournalFile, torn); err != nil {
			t.Fatal(err)
		}
		jt := OpenJournal(GlobalRef{FS: fs, Dir: "lineage"})
		entries, err := jt.Load()
		if err != nil {
			t.Fatalf("cut at byte %d: Load error %v", cut, err)
		}
		switch len(entries) {
		case 0:
			// Quarantined: the torn file was moved aside.
			if !vfs.Exists(fs, "lineage/"+JournalCorruptFile) {
				t.Fatalf("cut at byte %d: empty load but no quarantine file", cut)
			}
			if jt.Quarantined() != 1 {
				t.Fatalf("cut at byte %d: Quarantined() = %d", cut, jt.Quarantined())
			}
		case 3:
			// The prefix happened to still be a complete document
			// (e.g. only trailing whitespace was cut).
		default:
			t.Fatalf("cut at byte %d: %d entries, want 0 (quarantine) or 3 (intact)", cut, len(entries))
		}
		// Whatever happened, the lineage keeps working.
		if err := jt.Record(captured(9)); err != nil {
			t.Fatalf("cut at byte %d: record after load: %v", cut, err)
		}
		// Reset for the next offset.
		if vfs.Exists(fs, "lineage/"+JournalCorruptFile) {
			if err := fs.Remove("lineage/" + JournalCorruptFile); err != nil {
				t.Fatal(err)
			}
		}
		if vfs.Exists(fs, "lineage/"+JournalCorruptFile+".cause") {
			if err := fs.Remove("lineage/" + JournalCorruptFile + ".cause"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// wideEntry is a CAPTURED entry of the shape a 32-rank job records:
// every field set, including the slices and map a caller could mutate
// and text that JSON escapes.
func wideEntry(interval, procs int) JournalEntry {
	e := JournalEntry{
		Interval: interval, State: StateCaptured,
		JobID: 1, NumProcs: procs, AppName: "stencil",
		AppArgs:   []string{"-steps", "0", "-note", "<a&b>"},
		MCAParams: map[string]string{"snapc": "tree", "filter": "<x>&y"},
		LocalBase: fmt.Sprintf("tmp/ckpt/job1/%d", interval),
		Terminate: interval%5 == 0, StagedBytes: int64(512 * procs),
	}
	for v := 0; v < procs; v++ {
		node := fmt.Sprintf("node%d", v%8)
		if v < 8 {
			e.Nodes = append(e.Nodes, node)
		}
		e.Procs = append(e.Procs, JournalProc{Vpid: v, Node: node, Component: "self",
			Dir: fmt.Sprintf("%s/%d", e.LocalBase, v), QuiesceNS: int64(1000 + v), CaptureNS: int64(2000 + v)})
	}
	return e
}

// readCounter counts ReadFile calls: each one is a journal the handle
// read and parsed instead of serving from its copy.
type readCounter struct {
	vfs.FS
	reads int
}

func (r *readCounter) ReadFile(name string) ([]byte, error) {
	r.reads++
	return r.FS.ReadFile(name)
}

// While the file keeps the stamp of the handle's own last rewrite, every
// operation is served from the handle's copy: the journal is neither
// read back nor parsed.
func TestJournalCopyServesUnchangedFile(t *testing.T) {
	rc := &readCounter{FS: vfs.NewMem()}
	j := OpenJournal(GlobalRef{FS: rc, Dir: "lineage"})
	for iv := 1; iv <= 3; iv++ {
		if err := j.Record(wideEntry(iv, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Transition(iv, StateDraining, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := j.SetLevel(iv, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Transition(1, StateCommitted, ""); err != nil {
		t.Fatal(err)
	}
	if entries, err := j.Load(); err != nil || len(entries) != 3 {
		t.Fatalf("Load: %d entries, err %v", len(entries), err)
	}
	if _, ok, err := j.Entry(2); err != nil || !ok {
		t.Fatalf("Entry(2): %v %v", ok, err)
	}
	if und, err := j.Undrained(); err != nil || len(und) != 2 {
		t.Fatalf("Undrained: %d, err %v", len(und), err)
	}
	if hc, ok, err := j.HighestCommitted(); err != nil || !ok || hc != 1 {
		t.Fatalf("HighestCommitted = %d %v %v", hc, ok, err)
	}
	if rc.reads != 0 {
		t.Fatalf("journal read back %d times; the handle's copy should serve every operation", rc.reads)
	}
}

// Another handle on the same lineage (snapc.Recover, RebuildJournal,
// runtime recovery, the cmd tools) may rewrite the journal between two
// operations of this one. The changed stamp makes this handle read the
// file again, so none of the other handle's updates is lost.
func TestJournalSeesOtherHandlesWrites(t *testing.T) {
	ref := GlobalRef{FS: vfs.NewMem(), Dir: "lineage"}
	a, b := OpenJournal(ref), OpenJournal(ref)
	steps := []func() error{
		func() error { return a.Record(captured(1)) },
		func() error { _, err := a.Transition(1, StateDraining, ""); return err },
		func() error { _, err := b.Transition(1, StateCommitted, ""); return err },
		func() error { return b.Record(captured(2)) },
		// A stale copy in a would accept interval 3 without interval 2
		// and write interval 1 back as DRAINING.
		func() error { return a.Record(captured(3)) },
		func() error { _, err := b.SetLevel(3, 2); return err },
		// A stale copy in a would not know interval 2 at all.
		func() error { _, err := a.Transition(2, StateDiscarded, "superseded"); return err },
		func() error { _, err := b.SetParked(3, true); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	want := map[int]string{1: "COMMITTED/L3", 2: "DISCARDED/-", 3: "CAPTURED/parked"}
	for name, j := range map[string]*Journal{"a": a, "b": b, "fresh": OpenJournal(ref)} {
		entries, err := j.Load()
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		got := map[int]string{}
		for _, e := range entries {
			got[e.Interval] = string(e.State) + "/" + e.LevelLabel()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s sees %v, want %v", name, got, want)
		}
	}
	if e, _, _ := a.Entry(3); e.Level != 2 {
		t.Errorf("interval 3 level = %d, want 2 (set through the other handle)", e.Level)
	}
}

// A rewrite that fails partway leaves the handle without a copy: the
// next operation reads the file, which still holds the state before the
// failed edit, and never a copy the failed edit changed. A rewrite that
// lands but cannot be stamped is read back the same way.
func TestJournalStoreFailureDropsCopy(t *testing.T) {
	for _, c := range []struct {
		name   string
		after  int // store operations of the Transition let through
		landed bool
	}{
		{"temp write", 1, false},
		{"rename", 2, false},
		{"stamp", 3, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			inj := faultsim.New(1)
			rc := &readCounter{FS: faultsim.WrapFS(vfs.NewMem(), inj, "stable")}
			j := OpenJournal(GlobalRef{FS: rc, Dir: "lineage"})
			if err := j.Record(captured(1)); err != nil {
				t.Fatal(err)
			}
			// Transition takes Stat, temp write, rename, Stat: fail one.
			inj.AddRule(faultsim.Rule{Point: "fs.outage:stable", After: c.after, Times: 1})
			_, err := j.Transition(1, StateDraining, "")
			if c.landed != (err == nil) {
				t.Fatalf("Transition under outage: err %v, want landed=%v", err, c.landed)
			}
			if err != nil && !faultsim.IsOutage(err) {
				t.Fatalf("Transition error %v is not an outage", err)
			}
			before := rc.reads
			e, ok, err := j.Entry(1)
			if err != nil || !ok {
				t.Fatalf("Entry after outage: %v %v", ok, err)
			}
			if rc.reads != before+1 {
				t.Fatalf("Entry after outage read the file %d times, want 1", rc.reads-before)
			}
			want := StateCaptured
			if c.landed {
				want = StateDraining
			}
			if e.State != want {
				t.Fatalf("interval 1 is %s after the outage, want %s as on disk", e.State, want)
			}
			if _, err := j.Transition(1, StateDraining, ""); err != nil {
				t.Fatalf("Transition after the outage: %v", err)
			}
		})
	}
}

// What the journal hands out, and what it is handed, never aliases the
// handle's copy: a caller mutating the slices or the map of an entry
// does not change the next Load.
func TestJournalReturnedEntriesDoNotAliasCopy(t *testing.T) {
	j := testJournal(t)
	mutate := func(e JournalEntry) {
		e.Procs[0].Node = "mutated"
		e.Nodes[0] = "mutated"
		e.AppArgs[0] = "mutated"
		e.MCAParams["snapc"] = "mutated"
		e.MCAParams["added"] = "mutated"
	}
	in := wideEntry(1, 4)
	if err := j.Record(in); err != nil {
		t.Fatal(err)
	}
	mutate(in)
	loaded, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	mutate(loaded[0])
	e, _, err := j.Entry(1)
	if err != nil {
		t.Fatal(err)
	}
	mutate(e)
	und, err := j.Undrained()
	if err != nil {
		t.Fatal(err)
	}
	mutate(und[0])
	tr, err := j.Transition(1, StateDraining, "")
	if err != nil {
		t.Fatal(err)
	}
	mutate(tr)
	lv, err := j.SetLevel(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mutate(lv)

	got, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := wideEntry(1, 4)
	g := got[0]
	if !reflect.DeepEqual(g.Procs, want.Procs) || !reflect.DeepEqual(g.Nodes, want.Nodes) ||
		!reflect.DeepEqual(g.AppArgs, want.AppArgs) || !reflect.DeepEqual(g.MCAParams, want.MCAParams) {
		t.Fatalf("a caller's mutation reached the journal:\n got %+v\nwant %+v", g, want)
	}
}

// The rewrite reuses the encodings of unchanged entries, yet its output
// is byte for byte json.Marshal of the whole document — including after
// the cap trims old entries and when a handle starts from a file it
// parsed rather than wrote.
func TestJournalStoreMatchesMarshal(t *testing.T) {
	fs := vfs.NewMem()
	ref := GlobalRef{FS: fs, Dir: "lineage"}
	check := func(j *Journal) {
		t.Helper()
		data, err := fs.ReadFile("lineage/" + JournalFile)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := j.Load()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&journalDoc{Version: FormatVersion, Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("journal file differs from json.Marshal of its entries:\n got %s\nwant %s", data, want)
		}
		var gotDoc, wantDoc journalDoc
		if err := json.Unmarshal(data, &gotDoc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantDoc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotDoc, wantDoc) {
			t.Fatal("journal file decodes differently from json.Marshal of its entries")
		}
	}
	j := OpenJournal(ref)
	for iv := 1; iv <= maxJournalEntries+4; iv++ {
		if err := j.Record(wideEntry(iv, 3)); err != nil {
			t.Fatal(err)
		}
		check(j)
		if _, err := j.Transition(iv, StateDraining, ""); err != nil {
			t.Fatal(err)
		}
		to, cause := StateCommitted, ""
		if iv%3 == 0 {
			to, cause = StateDiscarded, "drain failed: <store> & co"
		}
		if _, err := j.Transition(iv, to, cause); err != nil {
			t.Fatal(err)
		}
		check(j)
	}
	fresh := OpenJournal(ref)
	if err := fresh.Record(wideEntry(100, 3)); err != nil {
		t.Fatal(err)
	}
	check(fresh)
	if _, err := fresh.SetParked(100, true); err != nil {
		t.Fatal(err)
	}
	check(fresh)
}

// One handle is shared by the drain worker, the capture path and the
// stats readers; its copy is reached from all of them at once.
func TestJournalConcurrentHandleUse(t *testing.T) {
	j := testJournal(t)
	const intervals = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iv := 1; iv <= intervals; iv++ {
			if err := j.Record(wideEntry(iv, 4)); err != nil {
				t.Error(err)
				return
			}
			if _, err := j.Transition(iv, StateDraining, ""); err != nil {
				t.Error(err)
				return
			}
			if _, err := j.Transition(iv, StateCommitted, ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < intervals; i++ {
				entries, err := j.Load()
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					e.Procs[0].Node = "reader"
				}
				if _, err := j.Undrained(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hc, ok, err := j.HighestCommitted()
	if err != nil || !ok || hc != intervals {
		t.Fatalf("HighestCommitted = %d %v %v, want %d", hc, ok, err, intervals)
	}
	if e, _, _ := j.Entry(intervals); e.Procs[0].Node != "node0" {
		t.Fatalf("a reader's mutation reached the journal: node %q", e.Procs[0].Node)
	}
}

// FuzzJournalLoad feeds arbitrary bytes to a handle as the journal file.
// Load either parses it or quarantines it, and never fails on a healthy
// store; the next Record lands; and what the handle then holds agrees
// with a fresh read of the file it wrote.
func FuzzJournalLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		ref := GlobalRef{FS: fs, Dir: "lineage"}
		if err := fs.WriteFile("lineage/"+JournalFile, data); err != nil {
			t.Fatal(err)
		}
		j := OpenJournal(ref)
		entries, err := j.Load()
		if err != nil {
			t.Fatalf("Load on a healthy store: %v", err)
		}
		switch j.Quarantined() {
		case 0:
		case 1:
			if len(entries) != 0 || !vfs.Exists(fs, "lineage/"+JournalCorruptFile) || vfs.Exists(fs, "lineage/"+JournalFile) {
				t.Fatalf("quarantine left %d entries, corrupt file %v, journal %v", len(entries),
					vfs.Exists(fs, "lineage/"+JournalCorruptFile), vfs.Exists(fs, "lineage/"+JournalFile))
			}
		default:
			t.Fatalf("Quarantined() = %d after one Load", j.Quarantined())
		}
		next := 0
		for _, e := range entries {
			if e.Interval == math.MaxInt {
				return // no interval can follow
			}
			next = max(next, e.Interval+1)
		}
		if err := j.Record(captured(next)); err != nil {
			t.Fatalf("Record(%d) after Load: %v", next, err)
		}
		held, err := j.Load()
		if err != nil {
			t.Fatal(err)
		}
		read, err := OpenJournal(ref).Load()
		if err != nil {
			t.Fatal(err)
		}
		hb, _ := json.Marshal(held)
		rb, _ := json.Marshal(read)
		if !bytes.Equal(hb, rb) {
			t.Fatalf("handle holds\n%s\nbut the file reads\n%s", hb, rb)
		}
	})
}

// BenchmarkJournalLifecycle times one interval's journal edges —
// Record, DRAINING, COMMITTED — on a full journal of 32-rank entries,
// the drain worker's bookkeeping per checkpoint.
func BenchmarkJournalLifecycle(b *testing.B) {
	j := OpenJournal(GlobalRef{FS: vfs.NewMem(), Dir: "lineage"})
	iv := 0
	edges := func() {
		iv++
		if err := j.Record(wideEntry(iv, 32)); err != nil {
			b.Fatal(err)
		}
		if _, err := j.Transition(iv, StateDraining, ""); err != nil {
			b.Fatal(err)
		}
		if _, err := j.Transition(iv, StateCommitted, ""); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < maxJournalEntries; i++ {
		edges()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges()
	}
}
