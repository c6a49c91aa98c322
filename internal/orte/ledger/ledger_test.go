package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strings"
	"testing"

	"repro/internal/reclog"
	"repro/internal/vfs"
)

// The record types ledgers held before interval state moved to the
// drain journal. Replay skips them; scribe still writes them so that
// every test also proves an old ledger keeps folding.
const (
	legacyCaptured  = "interval.captured"
	legacyCommitted = "interval.committed"
	legacyDiscarded = "interval.discarded"
	legacyReplicas  = "replicas.placed"
)

type legacyInterval struct {
	Interval int      `json:"interval"`
	Nodes    []string `json:"nodes,omitempty"`
}

// scribe appends a representative control-plane history to l.
func scribe(t *testing.T, l *Ledger) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must(l.Append(TypeJobLaunch, 1, JobLaunch{Name: "app", NP: 4,
		Placement: map[int]string{0: "n0", 1: "n0", 2: "n1", 3: "n1"}}))
	must(l.Append(legacyCaptured, 1, legacyInterval{Interval: 0}))
	must(l.Append(legacyCommitted, 1, legacyInterval{Interval: 0}))
	must(l.Append(legacyReplicas, 1, legacyInterval{Interval: 0, Nodes: []string{"n1"}}))
	must(l.Append(legacyCaptured, 1, legacyInterval{Interval: 1}))
	must(l.Append(legacyDiscarded, 1, legacyInterval{Interval: 1}))
	must(l.Append(TypeNodeDead, 1, NodeDead{Node: "n1"}))
	must(l.Append(TypeRecoveryBegin, 1, RecoveryEvent{Node: "n1"}))
	must(l.Append(TypePlacement, 1, Placement{Rank: 2, Node: "n0"}))
	must(l.Append(TypePlacement, 1, Placement{Rank: 3, Node: "n0"}))
	must(l.Append(TypeRecoveryComplete, 1, nil))
	must(l.Append(legacyCaptured, 1, legacyInterval{Interval: 2}))
}

func TestAppendReplayRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	l, st, err := Open(fs, "hnp")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(st.Jobs) != 0 || st.Seq != 0 {
		t.Fatalf("fresh ledger not empty: %+v", st)
	}
	scribe(t, l)
	if l.Lag() != 0 {
		t.Fatalf("lag = %d on healthy store", l.Lag())
	}

	st, dropped, err := Replay(fs, "hnp")
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("replay dropped %d records from an intact log", dropped)
	}
	js := st.Jobs[1]
	if js == nil {
		t.Fatal("job 1 missing from replayed state")
	}
	if js.Name != "app" || js.NP != 4 {
		t.Fatalf("job identity wrong: %+v", js)
	}
	if got := js.Placement; got[2] != "n0" || got[3] != "n0" || got[0] != "n0" {
		t.Fatalf("placement not re-knit: %v", got)
	}
	if js.RecoveryActive != "" {
		t.Fatalf("recovery still active after complete: %q", js.RecoveryActive)
	}
	if len(js.DeadNodes) != 1 || js.DeadNodes[0] != "n1" {
		t.Fatalf("dead nodes = %v", js.DeadNodes)
	}
	if live := st.Live(); len(live) != 1 || live[0] != 1 {
		t.Fatalf("live = %v", live)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	seq := l.Seq()

	l2, st, err := Open(fs, "hnp")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.Seq != seq {
		t.Fatalf("reopened seq = %d, want %d", st.Seq, seq)
	}
	if err := l2.Append(TypeJobDone, 1, nil); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if l2.Seq() != seq+1 {
		t.Fatalf("sequence did not continue: %d", l2.Seq())
	}
	st2, _, err := Replay(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Jobs[1].Done {
		t.Fatal("job.done not replayed")
	}
	if live := st2.Live(); len(live) != 0 {
		t.Fatalf("finished job still live: %v", live)
	}
}

func TestCrashReattachFolding(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "") // default dir
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(TypeHNPCrashed, 0, CrashEvent{Cause: "injected"}); err != nil {
		t.Fatal(err)
	}
	st, _, err := Replay(fs, DefaultDir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Headless || st.Crashes != 1 {
		t.Fatalf("crash not folded: %+v", st)
	}
	if err := l.Append(TypeHNPReattached, 0, nil); err != nil {
		t.Fatal(err)
	}
	st = l.State()
	if st.Headless || st.Reattaches != 1 {
		t.Fatalf("reattach not folded: %+v", st)
	}
}

// TestTornTailQuarantine truncates the on-disk ledger at several byte
// offsets and checks that Open always recovers the intact prefix, that
// the first append after it compacts the file to that prefix with the
// cut bytes set aside, and that the ledger keeps accepting appends.
func TestTornTailQuarantine(t *testing.T) {
	build := func() (*vfs.Mem, []byte) {
		fs := vfs.NewMem()
		l, _, err := Open(fs, "hnp")
		if err != nil {
			t.Fatal(err)
		}
		scribe(t, l)
		data, err := fs.ReadFile("hnp/" + File)
		if err != nil {
			t.Fatal(err)
		}
		return fs, data
	}
	_, full := build()
	offsets := []int{len(full) - 2, len(full) - 7, len(full) / 2, len(full) / 3, 11, 1}
	for _, off := range offsets {
		t.Run(fmt.Sprintf("truncate@%d", off), func(t *testing.T) {
			fs, data := build()
			if err := fs.WriteFile("hnp/"+File, data[:off]); err != nil {
				t.Fatal(err)
			}
			l, st, err := Open(fs, "hnp")
			if err != nil {
				t.Fatalf("open on torn ledger: %v", err)
			}
			if l.DroppedOnLoad() != 1 {
				t.Fatalf("dropped %d lines from a torn tail, want 1", l.DroppedOnLoad())
			}
			// Every record wholly before the cut survives.
			if want := bytes.Count(data[:off], []byte{'\n'}); st.Seq != want {
				t.Fatalf("replayed through seq %d, want %d", st.Seq, want)
			}
			if got, _ := fs.ReadFile("hnp/" + File); !bytes.Equal(got, data[:off]) {
				t.Fatal("Open rewrote the ledger; only a landing may")
			}
			// The survivor accepts appends and replays cleanly.
			if err := l.Append(TypeJobDone, 1, nil); err != nil {
				t.Fatalf("append after the cut: %v", err)
			}
			st2, dropped, err := Replay(fs, "hnp")
			if err != nil {
				t.Fatalf("replay after the cut: %v", err)
			}
			if dropped != 0 || st2.Seq != st.Seq+1 || !st2.Jobs[1].Done {
				t.Fatalf("replay after the cut: dropped %d, seq %d (want %d), state %+v", dropped, st2.Seq, st.Seq+1, st2.Jobs[1])
			}
			torn, err := fs.ReadFile(fmt.Sprintf("hnp/%s.torn-%d", File, st2.Seq))
			if err != nil || !bytes.Equal(torn, data[bytes.LastIndexByte(data[:off], '\n')+1:off]) {
				t.Fatalf("cut bytes not set aside: %q, %v", torn, err)
			}
		})
	}
}

func TestChecksumRejectsBitrot(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	name := "hnp/" + File
	data, _ := fs.ReadFile(name)
	// Flip a byte inside the middle record's body.
	mid := len(data) / 2
	data[mid] ^= 0x40
	if err := fs.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatalf("open on bitrotted ledger: %v", err)
	}
	if l2.DroppedOnLoad() == 0 {
		t.Fatal("bitrot not detected")
	}
}

// Compaction needs no cap: appends alone trigger it once the bytes
// appended since the last fold outgrow the fold plus reclog.Floor, and
// the file never holds much more than that.
func TestCompaction(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	name := "hnp/" + File
	compactions := 0
	for i := 0; i < 200; i++ {
		scribe(t, l)
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		first := data[:bytes.IndexByte(data, '\n')+1]
		if bytes.Contains(first, []byte(`"type":"`+TypeSnapshot+`"`)) {
			compactions++
			if rest := len(data) - len(first); rest > len(first)+reclog.Floor+1024 {
				t.Fatalf("after %d appends the file holds %d bytes past a %d-byte fold", 12*(i+1), rest, len(first))
			}
		}
	}
	if compactions == 0 {
		t.Fatal("log never compacted")
	}
	st, dropped, err := Replay(fs, "hnp")
	if err != nil {
		t.Fatalf("replay compacted ledger: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("compacted ledger dropped %d", dropped)
	}
	got, _ := json.Marshal(st)
	want, _ := json.Marshal(l.State())
	if !bytes.Equal(got, want) {
		t.Fatalf("state lost through compaction:\n got %s\nwant %s", got, want)
	}
	// Sequence numbers keep climbing across the fold.
	if st.Seq != 200*12 {
		t.Fatalf("seq = %d, want %d", st.Seq, 200*12)
	}
}

// outageFS fails writes, appends and renames while down, simulating a
// stable-store outage for the buffering path.
type outageFS struct {
	vfs.FS
	down bool
}

var errDown = errors.New("store down")

func (o *outageFS) WriteFile(name string, data []byte) error {
	if o.down {
		return errDown
	}
	return o.FS.WriteFile(name, data)
}

func (o *outageFS) Append(name string, data []byte) error {
	if o.down {
		return errDown
	}
	return o.FS.Append(name, data)
}

func (o *outageFS) Rename(oldName, newName string) error {
	if o.down {
		return errDown
	}
	return o.FS.Rename(oldName, newName)
}

func TestAppendBuffersThroughOutage(t *testing.T) {
	mem := vfs.NewMem()
	ofs := &outageFS{FS: mem}
	l, _, err := Open(ofs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(TypeJobLaunch, 1, JobLaunch{Name: "app", NP: 2,
		Placement: map[int]string{0: "n0", 1: "n1"}}); err != nil {
		t.Fatalf("append before outage: %v", err)
	}

	ofs.down = true
	err = l.Append(TypeNodeDead, 1, NodeDead{Node: "n1"})
	if err == nil {
		t.Fatal("append during outage reported success")
	}
	if !errors.Is(err, errDown) {
		t.Fatalf("append error does not wrap cause: %v", err)
	}
	_ = l.Append(TypePlacement, 1, Placement{Rank: 1, Node: "n0"})
	if l.Lag() != 2 {
		t.Fatalf("lag = %d during outage, want 2", l.Lag())
	}
	if l.FlushErrors() == 0 {
		t.Fatal("flush errors not counted")
	}
	// In-memory state is authoritative regardless.
	if st := l.State(); len(st.Jobs[1].DeadNodes) != 1 || st.Jobs[1].Placement[1] != "n0" {
		t.Fatalf("in-memory state stale during outage: %+v", st.Jobs[1])
	}
	// Durable view still shows only the pre-outage record.
	st, _, err := Replay(mem, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs[1].DeadNodes) != 0 || st.Jobs[1].Placement[1] != "n1" {
		t.Fatal("outage write reached the store")
	}

	ofs.down = false
	if err := l.Flush(); err != nil {
		t.Fatalf("flush after outage: %v", err)
	}
	if l.Lag() != 0 {
		t.Fatalf("lag = %d after flush", l.Lag())
	}
	st, _, err = Replay(mem, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs[1].DeadNodes) != 1 || st.Jobs[1].Placement[1] != "n0" {
		t.Fatal("backlog did not land after outage cleared")
	}
}

func TestNilLedgerIsInert(t *testing.T) {
	var l *Ledger
	if err := l.Append(TypeJobDone, 1, nil); err != nil {
		t.Fatalf("nil append: %v", err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("nil flush: %v", err)
	}
	if l.Lag() != 0 || l.Seq() != 0 || l.FlushErrors() != 0 || l.DroppedOnLoad() != 0 {
		t.Fatal("nil ledger reported nonzero counters")
	}
	if st := l.State(); len(st.Jobs) != 0 {
		t.Fatal("nil ledger state not empty")
	}
}

func TestSequenceBreakEndsPrefix(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	name := "hnp/" + File
	data, _ := fs.ReadFile(name)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// Duplicate an early line at position 3: valid JSON, valid checksum,
	// but the sequence regresses.
	lines = append(lines[:3], append([]string{lines[0]}, lines[3:]...)...)
	if err := fs.WriteFile(name, []byte(strings.Join(lines, "\n")+"\n")); err != nil {
		t.Fatal(err)
	}
	l2, st, err := Open(fs, "hnp")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if l2.DroppedOnLoad() == 0 {
		t.Fatal("sequence break not detected")
	}
	if st.Seq != 3 {
		t.Fatalf("prefix seq = %d, want 3", st.Seq)
	}
}

func TestStateCloneIsDeep(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	st := l.State()
	st.Jobs[1].Placement[0] = "poisoned"
	st.Jobs[1].DeadNodes[0] = "poisoned"
	st2 := l.State()
	if st2.Jobs[1].Placement[0] == "poisoned" || st2.Jobs[1].DeadNodes[0] == "poisoned" {
		t.Fatal("State() shares memory with the ledger")
	}
}

// A record's checksum survives a JSON round trip of its line: the file
// re-encoded line by line still replays whole.
func TestRecordChecksumCanonical(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	data, _ := fs.ReadFile("hnp/" + File)
	var out bytes.Buffer
	for _, r := range fileRecords(t, data) {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(line, '\n'))
	}
	if err := fs.WriteFile("hnp/"+File, out.Bytes()); err != nil {
		t.Fatal(err)
	}
	st, dropped, err := Replay(fs, "hnp")
	if err != nil || dropped != 0 || st.Seq != l.Seq() {
		t.Fatalf("re-encoded ledger: seq %d (want %d), dropped %d, err %v", st.Seq, l.Seq(), dropped, err)
	}
}

// A checksummed fold record may still hold a null job or a job with
// no placement: replay cuts the first and repairs the second, and
// neither panics.
func TestFoldRecordWithHollowJobs(t *testing.T) {
	for data, want := range map[string]int{
		`{"seq":1,"jobs":{"1":null}}`: 0,
		`{"seq":1,"jobs":{"1":{}}}`:   1,
	} {
		fs := vfs.NewMem()
		log := reclog.New(fs, "hnp/"+File)
		log.Issue(TypeJobLaunch, 1, nil)
		if err := log.Compact(func() (json.RawMessage, error) { return json.RawMessage(data), nil }); err != nil {
			t.Fatal(err)
		}
		l, st, err := Open(fs, "hnp")
		if err != nil {
			t.Fatalf("%s: Open: %v", data, err)
		}
		if len(st.Jobs) != want || len(st.Live()) != want {
			t.Fatalf("%s: %d jobs, want %d", data, len(st.Jobs), want)
		}
		if err := l.Append(TypePlacement, 1, Placement{Rank: 0, Node: "n0"}); err != nil {
			t.Fatalf("%s: append: %v", data, err)
		}
		if got := l.State().Jobs[1].Placement[0]; got != "n0" {
			t.Fatalf("%s: placement %q", data, got)
		}
	}
}

func TestOpenMissingDirIsEmpty(t *testing.T) {
	fs := vfs.NewMem()
	st, dropped, err := Replay(fs, "nowhere")
	if err != nil || dropped != 0 || len(st.Jobs) != 0 {
		t.Fatalf("replay of missing ledger: st=%+v dropped=%d err=%v", st, dropped, err)
	}
}

// A ledger that is garbage from its first byte opens empty, and the
// first landing sets the garbage aside under a name carrying the
// sequence number the fold replaced it at.
func TestQuarantineFileNamedBySeq(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	name := path.Join("hnp", File)
	garbage := []byte("garbage that is not json\n")
	if err := fs.WriteFile(name, garbage); err != nil {
		t.Fatal(err)
	}
	l2, st, err := Open(fs, "hnp")
	if err != nil {
		t.Fatalf("open over garbage: %v", err)
	}
	if st.Seq != 0 || l2.DroppedOnLoad() != 1 {
		t.Fatalf("garbage file: seq=%d dropped=%d", st.Seq, l2.DroppedOnLoad())
	}
	if err := l2.Append(TypeJobDone, 1, nil); err != nil {
		t.Fatal(err)
	}
	if q, err := fs.ReadFile(name + ".torn-1"); err != nil || !bytes.Equal(q, garbage) {
		t.Fatalf("garbage not set aside: %q, %v", q, err)
	}
}

// fileRecords decodes every line of ledger text.
func fileRecords(t *testing.T, data []byte) []Record {
	t.Helper()
	var recs []Record
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// countFS counts the store operations that write.
type countFS struct {
	vfs.FS
	appends, writes, renames int
}

func (c *countFS) Append(name string, data []byte) error {
	c.appends++
	return c.FS.Append(name, data)
}

func (c *countFS) WriteFile(name string, data []byte) error {
	c.writes++
	return c.FS.WriteFile(name, data)
}

func (c *countFS) Rename(oldName, newName string) error {
	c.renames++
	return c.FS.Rename(oldName, newName)
}

// Each record is encoded once and lands as exactly its own line: one
// Append, no rewrite, unless the append is a compaction (one temp
// write and one rename). After appends, compactions and a reopen, the
// file replays to the live state.
func TestAppendEncodesOnce(t *testing.T) {
	cfs := &countFS{FS: vfs.NewMem()}
	name := "hnp/" + File
	l, _, err := Open(cfs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	compactions := 0
	for i := 0; i < 400; i++ {
		before, _ := cfs.FS.ReadFile(name)
		a, w, r := cfs.appends, cfs.writes, cfs.renames
		if err := l.Append(TypePlacement, 1, Placement{Rank: i % 8, Node: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
		after, _ := cfs.FS.ReadFile(name)
		switch {
		case cfs.appends == a+1 && cfs.writes == w && cfs.renames == r:
			recs := fileRecords(t, after[len(before):])
			if !bytes.HasPrefix(after, before) || len(recs) != 1 || recs[0].Seq != l.Seq() {
				t.Fatalf("append %d did not add exactly its own line", i)
			}
		case cfs.appends == a && cfs.writes == w+1 && cfs.renames == r+1:
			compactions++
			if recs := fileRecords(t, after); len(recs) != 1 || recs[0].Type != TypeSnapshot {
				t.Fatalf("compaction %d left %d records", compactions, len(recs))
			}
		default:
			t.Fatalf("append %d: %d appends, %d writes, %d renames", i, cfs.appends-a, cfs.writes-w, cfs.renames-r)
		}
	}
	if compactions == 0 {
		t.Fatal("400 appends never compacted")
	}
	_, st, err := Open(cfs, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st)
	want, _ := json.Marshal(l.State())
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed state\n%s\nwant live state\n%s", got, want)
	}
}

// FuzzLedgerLoad feeds arbitrary bytes to Open as the ledger file. Open
// keeps the intact prefix of records and writes nothing; the first
// append lands (as a compaction when anything was cut, which sets the
// cut bytes aside), and the file then replays clean to the live state.
func FuzzLedgerLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		name := "hnp/" + File
		if err := fs.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		l, st, err := Open(fs, "hnp")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if live, _ := fs.ReadFile(name); !bytes.Equal(live, data) {
			t.Fatal("Open rewrote the ledger")
		}
		cold, dropped, err := Replay(fs, "hnp")
		if err != nil || dropped != l.DroppedOnLoad() {
			t.Fatalf("Replay: dropped %d (Open %d), err %v", dropped, l.DroppedOnLoad(), err)
		}
		a, _ := json.Marshal(st)
		b, _ := json.Marshal(cold)
		if !bytes.Equal(a, b) {
			t.Fatalf("Replay folds to\n%s\nOpen to\n%s", b, a)
		}
		if err := l.Append(TypeJobDone, 1, nil); err != nil {
			t.Fatalf("append after Open: %v", err)
		}
		st2, d2, err := Replay(fs, "hnp")
		if err != nil || d2 != 0 || st2.Seq != st.Seq+1 {
			t.Fatalf("replay after append: seq %d (want %d), dropped %d, err %v", st2.Seq, st.Seq+1, d2, err)
		}
		a, _ = json.Marshal(st2)
		b, _ = json.Marshal(l.State())
		if !bytes.Equal(a, b) {
			t.Fatalf("file replays to\n%s\nlive state is\n%s", a, b)
		}
		if dropped > 0 {
			if q, err := fs.ReadFile(fmt.Sprintf("%s.torn-%d", name, st2.Seq)); err != nil || !bytes.HasSuffix(data, q) || len(q) == 0 {
				t.Fatalf("cut bytes not set aside: %q, %v", q, err)
			}
		}
	})
}

// BenchmarkLedgerAppend times one control-plane append to a ledger of
// 256 records.
func BenchmarkLedgerAppend(b *testing.B) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := l.Append(TypePlacement, 1, Placement{Rank: i, Node: "n0"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(TypePlacement, 1, Placement{Rank: i, Node: "n1"}); err != nil {
			b.Fatal(err)
		}
	}
}
