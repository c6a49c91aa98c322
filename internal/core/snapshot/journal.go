// Drain journal: the crash-safe record of every checkpoint interval's
// position in the two-phase lifecycle introduced by the asynchronous
// drain engine (DESIGN.md §5c).
//
// The synchronous capture phase ends with the interval's payload staged
// on the participating nodes' local stores (under a LOCAL_COMMITTED
// marker); the asynchronous drain phase later gathers, commits and
// replicates it onto stable storage. Between the two, the only durable
// record that the interval exists at all is this journal, kept beside
// the committed intervals in the global snapshot lineage directory.
// Recovery reads it to decide, per interval: already drained (the
// COMMITTED marker exists — fast-forward), re-drainable (every captured
// node still alive and locally committed — drain it now), or lost
// (discard the entry and whatever debris remains).
//
// The journal is a record log (internal/reclog), one per lineage. A
// capture record carries one interval's capture context. The fields
// every interval of a lineage shares (job, size, application, MCA
// parameters) ride along only on the first capture and again when they
// change. A lifecycle edge, a level promotion or a parked flag is an
// amend record with a payload of a few dozen bytes. A handle replays the log once
// and then only appends; it reads the file again only when Stat shows a
// size or modification time it did not leave. A crash in the middle of
// an append leaves a torn tail, which replay cuts: the journal keeps
// every record wholly before it, and the LOCAL_COMMITTED markers on the
// nodes stay the ground truth for the rest (snapc.RebuildJournal
// re-records a sealed interval the journal lost).
//
// Through a store outage the journal follows the record log's one
// write-behind rule, as the HNP ledger does: a coordinator log keeps
// what it cannot land, and lands it with the next compaction. An edit
// that fails to land stays applied in the handle, Lag counts it, and
// the handle's readers see it; the next edit that lands, or Flush,
// lands it. A handle that has never read the file keeps its edits
// until the first read that succeeds, and its readers get the read
// error: reading an unread journal as empty would lose every entry.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"path"
	"slices"
	"sync"
	"time"

	"repro/internal/reclog"
	"repro/internal/vfs"
)

const (
	// JournalFile is the drain journal's name inside a global snapshot
	// lineage directory on stable storage.
	JournalFile = "drain_journal.json"
	// LocalCommittedFile marks a node-local interval stage as complete:
	// every rank on the node captured successfully and wrote its local
	// snapshot metadata. The drain phase and the restart fast path trust
	// a local stage only under this marker.
	LocalCommittedFile = "LOCAL_COMMITTED"
	// maxJournalEntries bounds the journal: once every entry is terminal
	// beyond this count, the oldest terminal entries are dropped. Keeps
	// the folded state, and so each compaction, O(1) over long supervised
	// runs. Terminal entries are history for ompi-snapshot stats; only
	// the undrained tail (which trim always pins) is needed for recovery.
	maxJournalEntries = 16

	// The journal's record types (the fold is reclog.TypeFold).
	recCapture = "capture"
	recAmend   = "amend"
)

// IntervalState is one interval's position in the capture/drain
// lifecycle.
type IntervalState string

const (
	// StateCaptured: every rank's local snapshot is staged node-local
	// under a LOCAL_COMMITTED marker; nothing is on stable storage yet.
	StateCaptured IntervalState = "CAPTURED"
	// StateDraining: the background drain (gather → commit → replicate)
	// has started; stable storage may hold a partial stage directory.
	StateDraining IntervalState = "DRAINING"
	// StateCommitted: the interval's COMMITTED marker exists on stable
	// storage; the drain finished.
	StateCommitted IntervalState = "COMMITTED"
	// StateDiscarded: the interval was abandoned (drain failure, or
	// recovery found the captured nodes gone). Terminal.
	StateDiscarded IntervalState = "DISCARDED"
)

// Terminal reports whether the state ends the lifecycle.
func (s IntervalState) Terminal() bool {
	return s == StateCommitted || s == StateDiscarded
}

// ValidTransition reports whether from → to is a legal lifecycle edge.
// The empty state is "no entry yet". Re-entering DRAINING is legal: a
// recovery pass re-drains an interval whose first drain crashed midway.
func ValidTransition(from, to IntervalState) bool {
	switch from {
	case "":
		return to == StateCaptured
	case StateCaptured:
		return to == StateDraining || to == StateDiscarded
	case StateDraining:
		return to == StateDraining || to == StateCommitted || to == StateDiscarded
	default: // terminal states never move
		return false
	}
}

// JournalProc is one rank's capture record: everything a recovery
// re-drain needs to rebuild the gather request and the global metadata
// without a live job.
type JournalProc struct {
	Vpid      int    `json:"vpid"`
	Node      string `json:"node"`
	Component string `json:"crs_component"`
	Dir       string `json:"dir,omitempty"` // node-local snapshot dir; encoded only when not stageDir
	QuiesceNS int64  `json:"quiesce_ns,omitempty"`
	CaptureNS int64  `json:"capture_ns,omitempty"`
}

// JournalEntry records one interval's lifecycle state plus the full
// capture context, so a drain can be replayed from the entry alone. The
// fields a lineage shares are encoded in its lineage header, not with
// the entry.
type JournalEntry struct {
	Interval int           `json:"interval"`
	State    IntervalState `json:"state"`

	JobID     int               `json:"-"`
	NumProcs  int               `json:"-"`
	AppName   string            `json:"-"`
	AppArgs   []string          `json:"-"`
	MCAParams map[string]string `json:"-"`
	Nodes     []string          `json:"nodes"`      // nodes holding local stages
	LocalBase string            `json:"local_base"` // node-local stage base dir
	Terminate bool              `json:"terminate,omitempty"`

	Procs []JournalProc `json:"procs"`

	StagedBytes int64     `json:"staged_bytes"`
	CapturedAt  time.Time `json:"captured_at"`
	UpdatedAt   time.Time `json:"updated_at"`
	// Cause explains a DISCARDED entry.
	Cause string `json:"cause,omitempty"`

	// Level is the interval's checkpoint level while it is held short of
	// a stable commit (DESIGN.md §5g): 1 = sealed node-local stages
	// only, 2 = stages plus per-node stage replicas on peer nodes. Zero
	// on entries written before multilevel checkpointing (and on entries
	// that went straight into the stable drain pipeline) — level-wise
	// those are L1 until the drain commits them.
	Level int `json:"level,omitempty"`
	// Parked marks a degraded-mode interval: the stable store was out
	// when its drain came due, so the drain engine parked it node-local
	// (with stage replicas) for the catch-up pass. Parked intervals
	// share the CAPTURED state and LOCAL_COMMITTED stages with L1-held
	// intervals but are *backlog*, not cadence policy — stats must not
	// conflate them. Cleared on any terminal transition.
	Parked bool `json:"parked,omitempty"`
}

// LevelLabel renders the interval's durability rung for the stats
// table: "parked" for degraded-mode backlog, "L3" once committed
// stable, "L2" for replica-held, "L1" for stages-only (including
// legacy entries recorded before levels existed), "-" for discards.
func (e JournalEntry) LevelLabel() string {
	switch {
	case e.State == StateDiscarded:
		return "-"
	case e.State == StateCommitted:
		return "L3"
	case e.Parked:
		return "parked"
	case e.Level >= 2:
		return fmt.Sprintf("L%d", e.Level)
	}
	return "L1"
}

// lineage is the part of a JournalEntry that every interval of a
// lineage shares, encoded once in a lineage header.
type lineage struct {
	JobID     int               `json:"job_id"`
	NumProcs  int               `json:"num_procs"`
	AppName   string            `json:"app_name,omitempty"`
	AppArgs   []string          `json:"app_args,omitempty"`
	MCAParams map[string]string `json:"mca_params,omitempty"`
}

func lineageOf(e JournalEntry) lineage {
	return lineage{e.JobID, e.NumProcs, e.AppName, e.AppArgs, e.MCAParams}
}

// key is the header's encoding: a header is due where it changes.
func (l lineage) key() string {
	b, _ := json.Marshal(l)
	return string(b)
}

// capture is a capture record's payload and one element of a fold: an
// entry, led by a lineage header where the shared fields change.
type capture struct {
	Lineage *lineage `json:"lineage,omitempty"`
	JournalEntry
}

// stageDir is where a rank's snapshot sits in a node-local stage (base
// is clean, so this is path.Join without the cost of cleaning again).
func stageDir(base string, vpid int) string { return base + "/" + LocalDirName(vpid) }

// captureOf encodes e's procs without each Dir that stageDir implies
// (a third of a capture record's bytes); add restores it.
func captureOf(e JournalEntry) capture {
	e.Procs = slices.Clone(e.Procs)
	for i, p := range e.Procs {
		if p.Dir == stageDir(e.LocalBase, p.Vpid) {
			e.Procs[i].Dir = ""
		}
	}
	return capture{JournalEntry: e}
}

// amend is an amend record's payload: one interval's lifecycle edge,
// level or parked flag.
type amend struct {
	Interval int           `json:"interval"`
	State    IntervalState `json:"state,omitempty"`
	Cause    string        `json:"cause,omitempty"`
	Level    *int          `json:"level,omitempty"`
	Parked   *bool         `json:"parked,omitempty"`
	At       time.Time     `json:"at"`
}

// journalState is what a journal's records fold to. An edit builds a
// new entries slice and never writes through the old one.
type journalState struct {
	lin     lineage        // the shared fields of the newest capture
	entries []JournalEntry // intervals ascending
}

func (st *journalState) index(interval int) int {
	return slices.IndexFunc(st.entries, func(e JournalEntry) bool { return e.Interval == interval })
}

// apply folds one record into the state, which it leaves untouched on
// error. Unknown record types are ignored.
func (st *journalState) apply(r reclog.Record) error {
	_, err := st.edit(r)
	return err
}

// edit is apply, returning the entry a capture or amend record left
// (which the trim may already have dropped from the state).
func (st *journalState) edit(r reclog.Record) (JournalEntry, error) {
	next := journalState{lin: st.lin, entries: slices.Clone(st.entries)}
	var touched JournalEntry
	switch r.Type {
	case reclog.TypeFold:
		var caps []capture
		if err := json.Unmarshal(r.Data, &caps); err != nil {
			return touched, err
		}
		next = journalState{}
		for _, c := range caps {
			if err := next.add(c); err != nil {
				return touched, err
			}
		}
	case recCapture:
		var c capture
		if err := json.Unmarshal(r.Data, &c); err != nil {
			return touched, err
		}
		if c.State != StateCaptured {
			return touched, fmt.Errorf("snapshot: new journal entries start CAPTURED, got %s", c.State)
		}
		if err := next.add(c); err != nil {
			return touched, err
		}
		touched = next.entries[len(next.entries)-1]
	case recAmend:
		var a amend
		if err := json.Unmarshal(r.Data, &a); err != nil {
			return touched, err
		}
		i := next.index(a.Interval)
		if i < 0 {
			return touched, fmt.Errorf("snapshot: drain journal has no entry for interval %d", a.Interval)
		}
		e := &next.entries[i]
		if a.State != "" {
			if !ValidTransition(e.State, a.State) {
				return touched, fmt.Errorf("snapshot: drain journal interval %d: illegal transition %s -> %s",
					a.Interval, e.State, a.State)
			}
			e.State = a.State
			if a.State == StateDiscarded {
				e.Cause = a.Cause
			}
			if a.State.Terminal() {
				// Whatever rung held it, the lifecycle is over: a committed
				// interval is stable (L3), a discarded one is gone.
				e.Parked = false
			}
		}
		if a.Level != nil {
			e.Level = *a.Level
		}
		if a.Parked != nil {
			e.Parked = *a.Parked
		}
		e.UpdatedAt = a.At
		touched = *e
	default:
		return touched, nil
	}
	next.trim()
	*st = next
	return touched, nil
}

// add appends a captured entry, which must be beyond every recorded
// interval (journal progress is monotone).
func (st *journalState) add(c capture) error {
	if n := len(st.entries); n > 0 && c.Interval <= st.entries[n-1].Interval {
		return fmt.Errorf("snapshot: drain journal interval %d not beyond recorded interval %d (journal progress is monotone)",
			c.Interval, st.entries[n-1].Interval)
	}
	if c.Lineage != nil {
		st.lin = *c.Lineage
	}
	e := c.JournalEntry
	e.JobID, e.NumProcs, e.AppName, e.AppArgs, e.MCAParams =
		st.lin.JobID, st.lin.NumProcs, st.lin.AppName, st.lin.AppArgs, st.lin.MCAParams
	for i, p := range e.Procs {
		if p.Dir == "" {
			e.Procs[i].Dir = stageDir(e.LocalBase, p.Vpid)
		}
	}
	st.entries = append(st.entries, e)
	return nil
}

// trim bounds the journal: past the cap, the oldest terminal entries go.
func (st *journalState) trim() {
	excess := len(st.entries) - maxJournalEntries
	if excess <= 0 {
		return
	}
	kept := st.entries[:0:0]
	for _, e := range st.entries {
		if excess > 0 && e.State.Terminal() {
			excess--
			continue
		}
		kept = append(kept, e)
	}
	st.entries = kept
}

// fold encodes the state as one fold record's payload: the entries in
// order, each led by a lineage header where the shared fields change.
func (st *journalState) fold() (json.RawMessage, error) {
	caps := make([]capture, len(st.entries))
	prev := ""
	for i, e := range st.entries {
		caps[i] = captureOf(e)
		if lin := lineageOf(e); lin.key() != prev {
			caps[i].Lineage, prev = &lin, lin.key()
		}
	}
	return json.Marshal(caps)
}

// ErrUnlanded marks a journal edit the handle applied and keeps but
// could not land: the handle lands it with its next compaction, so the
// edit is made, only not yet on the store.
var ErrUnlanded = errors.New("edit kept, lands with the next compaction")

// Journal is the drain journal of one global snapshot lineage. A handle
// holds the journal as it last replayed or wrote it, plus the edits
// that have not landed; see the package comment for when it reads the
// file again.
type Journal struct {
	FS  vfs.FS
	Dir string // the global snapshot lineage directory

	mu  sync.Mutex
	log *reclog.Log // nil until the first operation
	st  journalState
}

// OpenJournal returns the journal handle for a global snapshot lineage.
// No file is created until the first Record.
func OpenJournal(ref GlobalRef) *Journal {
	return &Journal{FS: ref.FS, Dir: ref.Dir}
}

// clone returns a deep copy of e, so that what a caller holds and what
// the handle holds never share a slice or map.
func (e JournalEntry) clone() JournalEntry {
	e.AppArgs = slices.Clone(e.AppArgs)
	e.MCAParams = maps.Clone(e.MCAParams)
	e.Nodes = slices.Clone(e.Nodes)
	e.Procs = slices.Clone(e.Procs)
	return e
}

// load brings the handle up to date with the journal file. A handle
// that cannot read the file keeps the view it has. Only one that has
// never read it has no view, and then the failure is surfaced: only a
// journal that is not there is an empty one.
func (j *Journal) load() error {
	if j.log == nil {
		j.log = reclog.New(j.FS, path.Join(j.Dir, JournalFile))
	}
	if _, err := j.log.Refresh(func() { j.st = journalState{} }, j.st.apply); err != nil && !j.log.Loaded() {
		return fmt.Errorf("snapshot: read drain journal: %w", err)
	}
	return nil
}

// land applies one record to the handle's state and lands it, and
// returns the entry it left. A record that applies stays in the state
// whether or not it lands; one that does not land fails wrapping
// ErrUnlanded. lerr is the caller's load error: when the
// handle has no view, a record that does not apply to its edits alone
// fails with it.
func (j *Journal) land(typ string, payload any, lerr error) (JournalEntry, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return JournalEntry{}, fmt.Errorf("snapshot: marshal drain journal record: %w", err)
	}
	r := j.log.Issue(typ, 0, data)
	e, err := j.st.edit(r)
	if err != nil {
		if lerr != nil {
			return JournalEntry{}, lerr
		}
		return JournalEntry{}, err
	}
	if err := j.log.Land(r, j.st.fold); err != nil {
		return e.clone(), fmt.Errorf("snapshot: write drain journal: %w (%w)", err, ErrUnlanded)
	}
	return e.clone(), nil
}

// Lag reports how many of the handle's edits have not landed.
func (j *Journal) Lag() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return 0
	}
	return j.log.Lag()
}

// Flush lands the handle's pending edits as one compaction.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil || j.log.Lag() == 0 {
		return nil
	}
	if err := j.load(); err != nil {
		return err
	}
	if err := j.log.Flush(j.st.fold); err != nil {
		return fmt.Errorf("snapshot: write drain journal: %w", err)
	}
	return nil
}

// entries runs fn over the handle's view, intervals ascending.
func (j *Journal) entries(fn func(JournalEntry)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.load(); err != nil {
		return err
	}
	for _, e := range j.st.entries {
		fn(e)
	}
	return nil
}

// Load returns every journal entry, intervals ascending. A missing
// journal is an empty one.
func (j *Journal) Load() ([]JournalEntry, error) {
	var out []JournalEntry
	err := j.entries(func(e JournalEntry) { out = append(out, e.clone()) })
	return out, err
}

// Entry returns the journal entry for one interval.
func (j *Journal) Entry(interval int) (JournalEntry, bool, error) {
	var out JournalEntry
	found := false
	err := j.entries(func(e JournalEntry) {
		if e.Interval == interval {
			out, found = e.clone(), true
		}
	})
	return out, found, err
}

// Record appends a new CAPTURED entry. The interval must be new and —
// for monotone journal progress — greater than every recorded interval.
func (j *Journal) Record(e JournalEntry) error {
	if e.State != StateCaptured {
		return fmt.Errorf("snapshot: new journal entries start CAPTURED, got %s", e.State)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	if e.CapturedAt.IsZero() {
		e.CapturedAt = now
	}
	e.UpdatedAt = now
	lerr := j.load()
	c := captureOf(e)
	if lin := lineageOf(e); lin.key() != j.st.lin.key() {
		c.Lineage = &lin
	}
	_, err := j.land(recCapture, c, lerr)
	return err
}

// Transition moves one interval to a new state, validating the edge.
// cause annotates DISCARDED entries. Transitioning an interval with no
// entry is an error: every interval must be Recorded first.
func (j *Journal) Transition(interval int, to IntervalState, cause string) (JournalEntry, error) {
	if to == "" {
		return JournalEntry{}, fmt.Errorf("snapshot: drain journal interval %d: transition to no state", interval)
	}
	a := amend{Interval: interval, State: to}
	if to == StateDiscarded {
		a.Cause = cause
	}
	return j.amend(a)
}

// amend lands one amend record and returns the entry it changed —
// the one edit path for the lifecycle state machine and for the fields
// orthogonal to it (level, parked flag). Missing intervals are an
// error: amend never creates entries.
func (j *Journal) amend(a amend) (JournalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	a.At = time.Now()
	return j.land(recAmend, a, j.load())
}

// SetLevel records an interval's held checkpoint level (1 or 2) — the
// durable record of an L1→L2 promotion. Lifecycle state is untouched.
func (j *Journal) SetLevel(interval, level int) (JournalEntry, error) {
	return j.amend(amend{Interval: interval, Level: &level})
}

// SetParked flags (or unflags) an interval as degraded-mode backlog so
// stats can tell parked intervals from cadence-held L1/L2 ones.
func (j *Journal) SetParked(interval int, parked bool) (JournalEntry, error) {
	return j.amend(amend{Interval: interval, Parked: &parked})
}

// Undrained returns the entries still mid-lifecycle (CAPTURED or
// DRAINING), intervals ascending — what a recovery pass must resolve.
func (j *Journal) Undrained() ([]JournalEntry, error) {
	var out []JournalEntry
	err := j.entries(func(e JournalEntry) {
		if !e.State.Terminal() {
			out = append(out, e.clone())
		}
	})
	return out, err
}

// DiscardUndrained marks every mid-lifecycle entry DISCARDED — the
// standalone-tool recovery path (ompi-restart): the simulated nodes did
// not survive the original process, so captured-but-undrained intervals
// are unrecoverable by construction. Returns how many were discarded.
func (j *Journal) DiscardUndrained(cause string) (int, error) {
	und, err := j.Undrained()
	if err != nil {
		return 0, err
	}
	for _, e := range und {
		if _, err := j.Transition(e.Interval, StateDiscarded, cause); err != nil {
			return 0, err
		}
	}
	return len(und), nil
}

// HighestCommitted returns the newest interval the journal records as
// fully drained, and whether any exists.
func (j *Journal) HighestCommitted() (int, bool, error) {
	best, ok := 0, false
	err := j.entries(func(e JournalEntry) {
		if e.State == StateCommitted {
			best, ok = e.Interval, true
		}
	})
	return best, ok, err
}
