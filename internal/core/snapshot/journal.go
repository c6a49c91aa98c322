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
// The journal is rewritten atomically (temp file + rename) on every
// transition, so a crash between any two lifecycle edges leaves either
// the old or the new state — never a torn file.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"path"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/vfs"
)

const (
	// JournalFile is the drain journal's name inside a global snapshot
	// lineage directory on stable storage.
	JournalFile = "drain_journal.json"
	// journalTmp is the staging name for atomic journal rewrites.
	journalTmp = ".drain_journal.tmp"
	// LocalCommittedFile marks a node-local interval stage as complete:
	// every rank on the node captured successfully and wrote its local
	// snapshot metadata. The drain phase and the restart fast path trust
	// a local stage only under this marker.
	LocalCommittedFile = "LOCAL_COMMITTED"
	// JournalCorruptFile is where a torn or garbage journal is
	// quarantined: a journal that fails to parse is renamed aside (for
	// post-mortem inspection) rather than wedging every drain operation,
	// and the journal restarts empty. The LOCAL_COMMITTED markers on the
	// nodes remain the ground truth; snapc.RebuildJournal reconstructs
	// the lost entries from them.
	JournalCorruptFile = "drain_journal.corrupt"
	// maxJournalEntries bounds the journal: once every entry is terminal
	// beyond this count, the oldest terminal entries are dropped. Keeps
	// the file O(1) over long supervised runs. The cap is deliberately
	// small: every Record/Transition rewrites the whole file through
	// the stable store, so with many jobs checkpointing the journal
	// traffic competes with the snapshot data itself for store
	// bandwidth — terminal entries are history for ompi-snapshot stats,
	// and only the undrained tail (which trim always pins) is needed
	// for recovery.
	maxJournalEntries = 16
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
	Dir       string `json:"dir"` // node-local snapshot dir
	QuiesceNS int64  `json:"quiesce_ns,omitempty"`
	CaptureNS int64  `json:"capture_ns,omitempty"`
}

// JournalEntry records one interval's lifecycle state plus the full
// capture context, so a drain can be replayed from the entry alone.
type JournalEntry struct {
	Interval int           `json:"interval"`
	State    IntervalState `json:"state"`

	JobID     int               `json:"job_id"`
	NumProcs  int               `json:"num_procs"`
	AppName   string            `json:"app_name,omitempty"`
	AppArgs   []string          `json:"app_args,omitempty"`
	MCAParams map[string]string `json:"mca_params,omitempty"`
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

// Journal is the drain journal of one global snapshot lineage.
//
// A handle keeps a copy of the journal file it last read or wrote,
// stamped with that file's size and modification time. While Stat
// still reports the stamp, the copy is the journal and the file is
// neither read nor parsed; any other stamp (another handle rewrote the
// file, or it was replaced or damaged) makes the next operation read it
// again. The copy also holds each entry's encoding, so a rewrite
// re-encodes only the entry that changed.
type Journal struct {
	FS  vfs.FS
	Dir string // the global snapshot lineage directory

	mu          sync.Mutex
	quarantined int          // corrupt journal files moved aside by load()
	cached      *journalCopy // nil: the next load reads the file
}

// journalCopy is the journal file as one handle last read or wrote it.
// Its slices are never mutated in place and never handed to callers:
// an edit builds new slices, and a rewrite that lands replaces the copy.
type journalCopy struct {
	size    int64
	modTime time.Time
	entries []JournalEntry // intervals ascending
	enc     [][]byte       // enc[i] is entries[i]'s JSON; nil until first stored
}

// Quarantined reports how many corrupt journal files this handle has
// moved aside.
func (j *Journal) Quarantined() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.quarantined
}

// OpenJournal returns the journal handle for a global snapshot lineage.
// No file is created until the first Record.
func OpenJournal(ref GlobalRef) *Journal {
	return &Journal{FS: ref.FS, Dir: ref.Dir}
}

// journalDoc is the on-disk shape.
type journalDoc struct {
	Version int            `json:"version"`
	Entries []JournalEntry `json:"entries"`
}

func (j *Journal) path() string    { return path.Join(j.Dir, JournalFile) }
func (j *Journal) tmpPath() string { return path.Join(j.Dir, journalTmp) }

// clone returns a deep copy of e, so that what a caller holds and what
// the handle caches never share a slice or map.
func (e JournalEntry) clone() JournalEntry {
	e.AppArgs = slices.Clone(e.AppArgs)
	e.MCAParams = maps.Clone(e.MCAParams)
	e.Nodes = slices.Clone(e.Nodes)
	e.Procs = slices.Clone(e.Procs)
	return e
}

// Load returns every journal entry, intervals ascending. A missing
// journal is an empty one.
func (j *Journal) Load() ([]JournalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c, err := j.load()
	if err != nil {
		return nil, err
	}
	var out []JournalEntry
	for _, e := range c.entries {
		out = append(out, e.clone())
	}
	return out, nil
}

// load returns the current journal: the handle's copy while the file
// still carries its stamp, else the file read and parsed afresh. The
// result is shared with the handle; callers must not modify it.
func (j *Journal) load() (*journalCopy, error) {
	// Only a journal that is not there is an empty one. Any other Stat
	// failure (an unreachable store) is surfaced: reading it as empty
	// would lose every entry the next rewrite does not carry.
	fi, err := j.FS.Stat(j.path())
	if err != nil {
		j.cached = nil
		if errors.Is(err, vfs.ErrNotExist) {
			return &journalCopy{}, nil
		}
		return nil, fmt.Errorf("snapshot: stat drain journal: %w", err)
	}
	if c := j.cached; c != nil && c.size == fi.Size && c.modTime.Equal(fi.ModTime) {
		return c, nil
	}
	j.cached = nil
	data, err := j.FS.ReadFile(j.path())
	if err != nil {
		return nil, fmt.Errorf("snapshot: read drain journal: %w", err)
	}
	var doc journalDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		// A torn or garbage journal (crash mid-write on a non-atomic
		// backend, bitrot) must not wedge every future drain: quarantine
		// the damaged file and restart empty. The sealed LOCAL_COMMITTED
		// stage markers on the nodes are the recoverable ground truth.
		return j.quarantine(fmt.Sprintf("unparseable: %v", err))
	}
	if doc.Version != FormatVersion {
		return j.quarantine(fmt.Sprintf("version %d, want %d", doc.Version, FormatVersion))
	}
	sort.Slice(doc.Entries, func(a, b int) bool { return doc.Entries[a].Interval < doc.Entries[b].Interval })
	// Stamped with the Stat taken before the read: if another handle
	// rewrote the file in between, the next Stat differs and the file
	// is read again.
	j.cached = &journalCopy{size: fi.Size, modTime: fi.ModTime,
		entries: doc.Entries, enc: make([][]byte, len(doc.Entries))}
	return j.cached, nil
}

// quarantine moves a corrupt journal aside (JournalCorruptFile, plus a
// one-line cause file) and reports an empty journal. A rename failure —
// the store itself is failing — is surfaced instead: pretending the
// journal is empty while the corrupt file stays in place would let a
// later load read the damage again as if it were fresh.
func (j *Journal) quarantine(cause string) (*journalCopy, error) {
	dst := path.Join(j.Dir, JournalCorruptFile)
	if err := j.FS.Rename(j.path(), dst); err != nil {
		return nil, fmt.Errorf("snapshot: quarantine corrupt drain journal (%s): %w", cause, err)
	}
	_ = j.FS.WriteFile(dst+".cause", []byte(cause+"\n"))
	j.quarantined++
	return &journalCopy{}, nil
}

// store rewrites the journal atomically: write a temp file in the same
// directory, rename over the real name (rename(2) replaces files
// atomically on both vfs backends). entries and enc are parallel and
// owned by store; a nil enc[i] is encoded here, the others are reused.
// The output is byte for byte json.Marshal of the journalDoc (store is
// never handed an empty journal). The handle's copy becomes entries
// only once the rename has landed.
func (j *Journal) store(entries []JournalEntry, enc [][]byte) error {
	j.cached = nil
	// Bound growth: drop the oldest terminal entries once over the cap.
	if excess := len(entries) - maxJournalEntries; excess > 0 {
		keptE, keptB := entries[:0:0], enc[:0:0]
		for i, e := range entries {
			if excess > 0 && e.State.Terminal() {
				excess--
				continue
			}
			keptE, keptB = append(keptE, e), append(keptB, enc[i])
		}
		entries, enc = keptE, keptB
	}
	// Compact encoding: the journal is rewritten on every lifecycle
	// transition of every interval, so its byte size is a recurring
	// store-bandwidth cost, not a one-off (pipe through jq to inspect).
	size := 0
	for i := range entries {
		if enc[i] == nil {
			b, err := json.Marshal(&entries[i])
			if err != nil {
				return fmt.Errorf("snapshot: marshal drain journal: %w", err)
			}
			enc[i] = b
		}
		size += len(enc[i]) + 1
	}
	data := []byte(`{"version":` + strconv.Itoa(FormatVersion) + `,"entries":[`)
	data = slices.Grow(data, size+2)
	for i, b := range enc {
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, b...)
	}
	data = append(data, "]}"...)
	if err := j.FS.WriteFile(j.tmpPath(), data); err != nil {
		return fmt.Errorf("snapshot: stage drain journal: %w", err)
	}
	if err := j.FS.Rename(j.tmpPath(), j.path()); err != nil {
		return fmt.Errorf("snapshot: commit drain journal: %w", err)
	}
	// The rewrite has landed; without a stamp the next load reads it back.
	if fi, err := j.FS.Stat(j.path()); err == nil {
		j.cached = &journalCopy{size: fi.Size, modTime: fi.ModTime, entries: entries, enc: enc}
	}
	return nil
}

// Entry returns the journal entry for one interval.
func (j *Journal) Entry(interval int) (JournalEntry, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c, err := j.load()
	if err != nil {
		return JournalEntry{}, false, err
	}
	for _, e := range c.entries {
		if e.Interval == interval {
			return e.clone(), true, nil
		}
	}
	return JournalEntry{}, false, nil
}

// Record appends a new CAPTURED entry. The interval must be new and —
// for monotone journal progress — greater than every recorded interval.
func (j *Journal) Record(e JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.State != StateCaptured {
		return fmt.Errorf("snapshot: new journal entries start CAPTURED, got %s", e.State)
	}
	c, err := j.load()
	if err != nil {
		return err
	}
	for _, old := range c.entries {
		if old.Interval >= e.Interval {
			return fmt.Errorf("snapshot: drain journal interval %d not beyond recorded interval %d (journal progress is monotone)",
				e.Interval, old.Interval)
		}
	}
	e = e.clone()
	now := time.Now()
	if e.CapturedAt.IsZero() {
		e.CapturedAt = now
	}
	e.UpdatedAt = now
	return j.store(append(slices.Clip(c.entries), e), append(slices.Clip(c.enc), nil))
}

// Transition moves one interval to a new state, validating the edge.
// cause annotates DISCARDED entries. Transitioning an interval with no
// entry is an error except to COMMITTED-from-nothing, which is also an
// error: every interval must be Recorded first.
func (j *Journal) Transition(interval int, to IntervalState, cause string) (JournalEntry, error) {
	return j.amend(interval, func(e *JournalEntry) error {
		if !ValidTransition(e.State, to) {
			return fmt.Errorf("snapshot: drain journal interval %d: illegal transition %s -> %s",
				interval, e.State, to)
		}
		e.State = to
		if to == StateDiscarded {
			e.Cause = cause
		}
		if to.Terminal() {
			// Whatever rung held it, the lifecycle is over: a committed
			// interval is stable (L3), a discarded one is gone.
			e.Parked = false
		}
		return nil
	})
}

// amend rewrites one interval's entry via fn — the one edit path for
// the lifecycle state machine and for the fields orthogonal to it
// (level, parked flag). fn edits a shallow copy of the entry, so it
// may set scalar fields only. Missing intervals are an error: amend
// never creates entries.
func (j *Journal) amend(interval int, fn func(*JournalEntry) error) (JournalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c, err := j.load()
	if err != nil {
		return JournalEntry{}, err
	}
	for i, e := range c.entries {
		if e.Interval != interval {
			continue
		}
		if err := fn(&e); err != nil {
			return JournalEntry{}, err
		}
		e.UpdatedAt = time.Now()
		entries, enc := slices.Clone(c.entries), slices.Clone(c.enc)
		entries[i], enc[i] = e, nil
		if err := j.store(entries, enc); err != nil {
			return JournalEntry{}, err
		}
		return e.clone(), nil
	}
	return JournalEntry{}, fmt.Errorf("snapshot: drain journal has no entry for interval %d", interval)
}

// SetLevel records an interval's held checkpoint level (1 or 2) — the
// durable record of an L1→L2 promotion. Lifecycle state is untouched.
func (j *Journal) SetLevel(interval, level int) (JournalEntry, error) {
	return j.amend(interval, func(e *JournalEntry) error { e.Level = level; return nil })
}

// SetParked flags (or unflags) an interval as degraded-mode backlog so
// stats can tell parked intervals from cadence-held L1/L2 ones.
func (j *Journal) SetParked(interval int, parked bool) (JournalEntry, error) {
	return j.amend(interval, func(e *JournalEntry) error { e.Parked = parked; return nil })
}

// Undrained returns the entries still mid-lifecycle (CAPTURED or
// DRAINING), intervals ascending — what a recovery pass must resolve.
func (j *Journal) Undrained() ([]JournalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c, err := j.load()
	if err != nil {
		return nil, err
	}
	var out []JournalEntry
	for _, e := range c.entries {
		if !e.State.Terminal() {
			out = append(out, e.clone())
		}
	}
	return out, nil
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
	j.mu.Lock()
	defer j.mu.Unlock()
	c, err := j.load()
	if err != nil {
		return 0, false, err
	}
	best, ok := 0, false
	for _, e := range c.entries {
		if e.State == StateCommitted && (!ok || e.Interval > best) {
			best, ok = e.Interval, true
		}
	}
	return best, ok, nil
}
