package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strings"
	"testing"

	"repro/internal/vfs"
)

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
	must(l.Append(TypeIntervalCaptured, 1, IntervalEvent{Interval: 0}))
	must(l.Append(TypeIntervalCommitted, 1, IntervalEvent{Interval: 0}))
	must(l.Append(TypeReplicasPlaced, 1, ReplicasPlaced{Interval: 0, Nodes: []string{"n1"}}))
	must(l.Append(TypeIntervalCaptured, 1, IntervalEvent{Interval: 1}))
	must(l.Append(TypeIntervalDiscarded, 1, IntervalEvent{Interval: 1}))
	must(l.Append(TypeNodeDead, 1, NodeDead{Node: "n1"}))
	must(l.Append(TypeRecoveryBegin, 1, RecoveryEvent{Node: "n1"}))
	must(l.Append(TypePlacement, 1, Placement{Rank: 2, Node: "n0"}))
	must(l.Append(TypePlacement, 1, Placement{Rank: 3, Node: "n0"}))
	must(l.Append(TypeRecoveryComplete, 1, nil))
	must(l.Append(TypeIntervalCaptured, 1, IntervalEvent{Interval: 2}))
}

func TestAppendReplayRoundtrip(t *testing.T) {
	fs := vfs.NewMem()
	l, st, err := Open(fs, "hnp", Options{})
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
	if len(js.Committed) != 1 || js.Committed[0] != 0 {
		t.Fatalf("committed = %v, want [0]", js.Committed)
	}
	if js.Inflight != 2 {
		t.Fatalf("inflight = %d, want 2 (last captured unresolved)", js.Inflight)
	}
	if js.NextInterval != 3 {
		t.Fatalf("next interval = %d, want 3", js.NextInterval)
	}
	if js.RecoveryActive != "" {
		t.Fatalf("recovery still active after complete: %q", js.RecoveryActive)
	}
	if len(js.DeadNodes) != 1 || js.DeadNodes[0] != "n1" {
		t.Fatalf("dead nodes = %v", js.DeadNodes)
	}
	if nodes := js.Replicas[0]; len(nodes) != 1 || nodes[0] != "n1" {
		t.Fatalf("replicas[0] = %v", nodes)
	}
	if live := st.Live(); len(live) != 1 || live[0] != 1 {
		t.Fatalf("live = %v", live)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	seq := l.Seq()

	l2, st, err := Open(fs, "hnp", Options{})
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
	l, _, err := Open(fs, "", Options{}) // default dir
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
// offsets and checks that Open always recovers the intact prefix,
// quarantines the damaged generation, and keeps accepting appends.
func TestTornTailQuarantine(t *testing.T) {
	build := func() (*vfs.Mem, []byte, int) {
		fs := vfs.NewMem()
		l, _, err := Open(fs, "hnp", Options{})
		if err != nil {
			t.Fatal(err)
		}
		scribe(t, l)
		data, err := fs.ReadFile("hnp/" + File)
		if err != nil {
			t.Fatal(err)
		}
		return fs, data, l.Seq()
	}
	_, full, _ := build()
	offsets := []int{len(full) - 2, len(full) - 7, len(full) / 2, len(full) / 3, 11, 1}
	for _, off := range offsets {
		t.Run(fmt.Sprintf("truncate@%d", off), func(t *testing.T) {
			fs, data, _ := build()
			if err := fs.WriteFile("hnp/"+File, data[:off]); err != nil {
				t.Fatal(err)
			}
			l, st, err := Open(fs, "hnp", Options{})
			if err != nil {
				t.Fatalf("open on torn ledger: %v", err)
			}
			if l.DroppedOnLoad() == 0 {
				t.Fatal("no records reported dropped from torn tail")
			}
			// The quarantined generation must exist alongside.
			entries, err := fs.ReadDir("hnp")
			if err != nil {
				t.Fatal(err)
			}
			foundQ := false
			for _, e := range entries {
				if strings.HasPrefix(e.Name, File+".quarantine-") {
					foundQ = true
				}
			}
			if !foundQ {
				t.Fatalf("no quarantine file; dir = %v", entries)
			}
			// The survivor must still accept appends and replay cleanly.
			if err := l.Append(TypeJobDone, 1, nil); err != nil {
				t.Fatalf("append after quarantine: %v", err)
			}
			st2, dropped, err := Replay(fs, "hnp")
			if err != nil {
				t.Fatalf("replay after quarantine: %v", err)
			}
			if dropped != 0 {
				t.Fatalf("rewritten prefix still damaged: dropped %d", dropped)
			}
			if st2.Seq < st.Seq {
				t.Fatalf("replay lost records: %d < %d", st2.Seq, st.Seq)
			}
		})
	}
}

func TestChecksumRejectsBitrot(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp", Options{})
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
	l2, _, err := Open(fs, "hnp", Options{})
	if err != nil {
		t.Fatalf("open on bitrotted ledger: %v", err)
	}
	if l2.DroppedOnLoad() == 0 {
		t.Fatal("bitrot not detected")
	}
}

func TestCompaction(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp", Options{CompactAt: 8})
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l) // 12 appends with cap 8 → at least one compaction
	if l.Len() >= 12 {
		t.Fatalf("log never compacted: len = %d", l.Len())
	}
	st, dropped, err := Replay(fs, "hnp")
	if err != nil {
		t.Fatalf("replay compacted ledger: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("compacted ledger dropped %d", dropped)
	}
	js := st.Jobs[1]
	if js == nil || len(js.Committed) != 1 || js.Committed[0] != 0 || js.Inflight != 2 {
		t.Fatalf("state lost through compaction: %+v", js)
	}
	// Sequence numbers keep climbing across the snapshot record.
	if st.Seq <= 12 {
		t.Fatalf("seq did not advance past snapshot: %d", st.Seq)
	}
}

// outageFS fails writes and renames while down, simulating a stable-
// store outage for the buffering path.
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

func (o *outageFS) Rename(oldName, newName string) error {
	if o.down {
		return errDown
	}
	return o.FS.Rename(oldName, newName)
}

func TestAppendBuffersThroughOutage(t *testing.T) {
	mem := vfs.NewMem()
	ofs := &outageFS{FS: mem}
	l, _, err := Open(ofs, "hnp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(TypeJobLaunch, 1, JobLaunch{Name: "app", NP: 2,
		Placement: map[int]string{0: "n0", 1: "n1"}}); err != nil {
		t.Fatalf("append before outage: %v", err)
	}

	ofs.down = true
	err = l.Append(TypeIntervalCaptured, 1, IntervalEvent{Interval: 0})
	if err == nil {
		t.Fatal("append during outage reported success")
	}
	if !errors.Is(err, errDown) {
		t.Fatalf("append error does not wrap cause: %v", err)
	}
	_ = l.Append(TypeIntervalCommitted, 1, IntervalEvent{Interval: 0})
	if l.Lag() != 2 {
		t.Fatalf("lag = %d during outage, want 2", l.Lag())
	}
	if l.FlushErrors() == 0 {
		t.Fatal("flush errors not counted")
	}
	// In-memory state is authoritative regardless.
	if st := l.State(); len(st.Jobs[1].Committed) != 1 {
		t.Fatalf("in-memory state stale during outage: %+v", st.Jobs[1])
	}
	// Durable view still shows only the pre-outage record.
	st, _, err := Replay(mem, "hnp")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs[1].Committed) != 0 {
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
	if len(st.Jobs[1].Committed) != 1 {
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
	if l.Lag() != 0 || l.Len() != 0 || l.Seq() != 0 || l.FlushErrors() != 0 || l.DroppedOnLoad() != 0 {
		t.Fatal("nil ledger reported nonzero counters")
	}
	if st := l.State(); len(st.Jobs) != 0 {
		t.Fatal("nil ledger state not empty")
	}
}

func TestSequenceBreakEndsPrefix(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp", Options{})
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
	l2, st, err := Open(fs, "hnp", Options{})
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
	l, _, err := Open(fs, "hnp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	st := l.State()
	st.Jobs[1].Placement[0] = "poisoned"
	st.Jobs[1].Committed = append(st.Jobs[1].Committed, 99)
	st.Jobs[1].Replicas[0][0] = "poisoned"
	st2 := l.State()
	if st2.Jobs[1].Placement[0] == "poisoned" || containsInt(st2.Jobs[1].Committed, 99) ||
		st2.Jobs[1].Replicas[0][0] == "poisoned" {
		t.Fatal("State() shares memory with the ledger")
	}
}

func TestRecordChecksumCanonical(t *testing.T) {
	data, _ := json.Marshal(IntervalEvent{Interval: 7})
	r := Record{Seq: 3, Type: TypeIntervalCaptured, Job: 2, Data: data}
	r.Sum = r.checksum()
	// Round-trip through JSON must preserve the checksum.
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var r2 Record
	if err := json.Unmarshal(b, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Sum != r2.checksum() {
		t.Fatal("checksum not stable across JSON round-trip")
	}
}

func TestOpenMissingDirIsEmpty(t *testing.T) {
	fs := vfs.NewMem()
	st, dropped, err := Replay(fs, "nowhere")
	if err != nil || dropped != 0 || len(st.Jobs) != 0 {
		t.Fatalf("replay of missing ledger: st=%+v dropped=%d err=%v", st, dropped, err)
	}
}

func TestQuarantineFileNamedBySeq(t *testing.T) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	name := path.Join("hnp", File)
	if err := fs.WriteFile(name, []byte("garbage that is not json\n")); err != nil {
		t.Fatal(err)
	}
	l2, st, err := Open(fs, "hnp", Options{})
	if err != nil {
		t.Fatalf("open over garbage: %v", err)
	}
	if st.Seq != 0 || l2.DroppedOnLoad() != 1 {
		t.Fatalf("garbage file: seq=%d dropped=%d", st.Seq, l2.DroppedOnLoad())
	}
	if !vfs.Exists(fs, name+".quarantine-0") {
		t.Fatal("quarantine file missing")
	}
}

// legacyFile is the ledger file writeAll produced before records were
// encoded once: every record marshalled afresh, one per line.
func legacyFile(t *testing.T, recs []Record) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// fileRecords decodes every non-blank line of ledger text.
func fileRecords(t *testing.T, data []byte) []Record {
	t.Helper()
	var recs []Record
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
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

// Each record is encoded once, yet after appends, a compaction and a
// reopen the file is byte for byte what marshalling every record on
// every rewrite produced, and it replays to the live state.
func TestAppendEncodesOnce(t *testing.T) {
	fs := vfs.NewMem()
	name := "hnp/" + File
	check := func(l *Ledger) {
		t.Helper()
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := fileRecords(t, data)
		if len(recs) != l.Len() {
			t.Fatalf("file holds %d records, ledger %d", len(recs), l.Len())
		}
		if want := legacyFile(t, recs); !bytes.Equal(data, want) {
			t.Fatalf("ledger file differs from marshalling every record:\n got %s\nwant %s", data, want)
		}
		_, st, err := Open(fs, "hnp", Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(st)
		want, _ := json.Marshal(l.State())
		if !bytes.Equal(got, want) {
			t.Fatalf("replayed state\n%s\nwant live state\n%s", got, want)
		}
	}
	l, _, err := Open(fs, "hnp", Options{CompactAt: 16})
	if err != nil {
		t.Fatal(err)
	}
	scribe(t, l)
	check(l)
	scribe(t, l) // 24 appends, cap 16: one compaction, then 8 more records
	if l.Len() != 9 {
		t.Fatalf("len = %d after one compaction, want 9", l.Len())
	}
	check(l)
	l2, _, err := Open(fs, "hnp", Options{CompactAt: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(TypeJobDone, 1, nil); err != nil {
		t.Fatal(err)
	}
	check(l2)
}

// FuzzLedgerLoad feeds arbitrary bytes to Open as the ledger file. Open
// keeps the intact prefix of records and quarantines the original file
// when anything follows it; what survives replays clean to the same
// state and keeps accepting appends.
func FuzzLedgerLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		name := "hnp/" + File
		if err := fs.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		l, st, err := Open(fs, "hnp", Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var lines [][]byte
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) != "" {
				lines = append(lines, []byte(line))
			}
		}
		kept, dropped := l.Len(), l.DroppedOnLoad()
		if kept+dropped != len(lines) {
			t.Fatalf("kept %d + dropped %d records of %d lines", kept, dropped, len(lines))
		}
		live, err := fs.ReadFile(name)
		switch {
		case dropped == 0:
			if !bytes.Equal(live, data) {
				t.Fatalf("intact ledger rewritten: err %v", err)
			}
		default:
			q, qerr := fs.ReadFile(fmt.Sprintf("%s.quarantine-%d", name, st.Seq))
			if qerr != nil || !bytes.Equal(q, data) {
				t.Fatalf("damaged ledger not quarantined intact: %v", qerr)
			}
			if kept == 0 {
				if !errors.Is(err, vfs.ErrNotExist) {
					t.Fatalf("no record survived, yet the live ledger reads err %v", err)
				}
				break
			}
			prefix := fileRecords(t, bytes.Join(lines[:kept], []byte("\n")))
			if err != nil || !bytes.Equal(live, legacyFile(t, prefix)) {
				t.Fatalf("live ledger is not the intact prefix: err %v\n got %s", err, live)
			}
		}
		st2, d2, err := Replay(fs, "hnp")
		if err != nil || d2 != 0 {
			t.Fatalf("replay of the survivor: dropped %d, err %v", d2, err)
		}
		a, _ := json.Marshal(st)
		b, _ := json.Marshal(st2)
		if !bytes.Equal(a, b) {
			t.Fatalf("survivor replays to\n%s\nwant\n%s", b, a)
		}
		if err := l.Append(TypeJobDone, 1, nil); err != nil {
			t.Fatalf("append after Open: %v", err)
		}
		if st3, _, err := Replay(fs, "hnp"); err != nil || st3.Seq != st.Seq+1 {
			t.Fatalf("replay after append: err %v", err)
		}
	})
}

// BenchmarkLedgerAppend times one capture-path append to a ledger of
// 256 records. The ledger is reloaded from its 256-record file every 16
// appends, outside the timer, so each append rewrites 257–272 records.
func BenchmarkLedgerAppend(b *testing.B) {
	fs := vfs.NewMem()
	l, _, err := Open(fs, "hnp", Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := l.Append(TypeIntervalCaptured, 1, IntervalEvent{Interval: i}); err != nil {
			b.Fatal(err)
		}
	}
	base, err := fs.ReadFile("hnp/" + File)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			b.StopTimer()
			fs = vfs.NewMem()
			if err := fs.WriteFile("hnp/"+File, base); err != nil {
				b.Fatal(err)
			}
			if l, _, err = Open(fs, "hnp", Options{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := l.Append(TypeIntervalCaptured, 1, IntervalEvent{Interval: 256 + i}); err != nil {
			b.Fatal(err)
		}
	}
}
