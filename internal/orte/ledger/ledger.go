// Package ledger is the HNP's durable job ledger: the control-plane
// half of the paper's stable-storage discipline. The runtime's Cluster
// holds job membership, rank→node placement, interval lifecycle,
// replica placement, and recovery-session state purely in memory; this
// package persists every one of those mutations as an append-only,
// checksummed, atomically-rotated log on stable storage so that a
// crashed coordinator can be rebuilt (`ompi-run --reattach`) without
// losing track of any committed interval or running job.
//
// The log uses the same crash-safety discipline as the drain journal
// (PR 5): records live in memory and every append rewrites the whole
// file via write-temp-then-rename, so a torn write can never corrupt
// the previous generation. Each record carries a sha256 over its
// canonical body; replay stops at the first record that fails its
// checksum or breaks the sequence, quarantines the damaged file, and
// rebuilds from the intact prefix. When the log grows past a cap it is
// compacted: the accumulated state folds into a single snapshot record
// and the tail continues from there, keeping rewrite cost bounded.
//
// Stable storage can itself be out (the fs.outage fault class): an
// append that cannot reach the store buffers in memory and the ledger
// reports a non-zero Lag until a later append or explicit Flush lands
// the backlog. The in-memory view is always authoritative for a live
// HNP; durability lags at most Lag() records behind.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/vfs"
)

// Record types. Every control-plane mutation the reattach protocol
// needs to observe has one.
const (
	// TypeJobLaunch records a job entering the cluster: name, np, and
	// the initial rank→node placement.
	TypeJobLaunch = "job.launch"
	// TypeJobDone records a job finishing (all ranks complete).
	TypeJobDone = "job.done"
	// TypeIntervalCaptured records a checkpoint interval sealing its
	// local stages (capture phase complete, drain pending).
	TypeIntervalCaptured = "interval.captured"
	// TypeIntervalCommitted records an interval's global snapshot
	// landing on stable storage.
	TypeIntervalCommitted = "interval.committed"
	// TypeIntervalDiscarded records an interval abandoned before commit.
	TypeIntervalDiscarded = "interval.discarded"
	// TypeReplicasPlaced records which nodes hold an interval's replicas.
	TypeReplicasPlaced = "replicas.placed"
	// TypePlacement records one rank moving to a new node (recovery or
	// migration re-knit the placement map through these).
	TypePlacement = "placement.update"
	// TypeNodeDead records the failure detector declaring a node lost.
	TypeNodeDead = "node.dead"
	// TypeRecoveryBegin records an in-job recovery session opening.
	TypeRecoveryBegin = "recovery.begin"
	// TypeRecoveryComplete records the session re-knitting the job.
	TypeRecoveryComplete = "recovery.complete"
	// TypeRecoveryAbort records the session falling back to whole-job
	// restart.
	TypeRecoveryAbort = "recovery.abort"
	// TypeHNPCrashed records the coordinator going down (written by the
	// crashing HNP when it can, or by Reattach retroactively).
	TypeHNPCrashed = "hnp.crashed"
	// TypeHNPReattached records a successful reattach.
	TypeHNPReattached = "hnp.reattached"
	// TypeSnapshot is a compaction record: the full folded State of
	// every record before it. Replay treats it as a new baseline.
	TypeSnapshot = "state.snapshot"
)

// File is the ledger's filename inside its directory on stable storage.
const File = "ledger.jsonl"

// DefaultDir is the conventional ledger directory on stable storage.
const DefaultDir = "hnp"

// defaultCompactAt bounds the in-memory log (and so the rewrite cost of
// one append). Past it the log folds into a snapshot record.
const defaultCompactAt = 512

// Record is one ledger entry. Sum is the hex sha256 of the canonical
// body (seq|type|job|data); replay rejects any record whose stored sum
// disagrees, which catches torn tails and bitrot alike.
type Record struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Job  int             `json:"job,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
	Sum  string          `json:"sum"`
}

func (r Record) checksum() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%d|%s", r.Seq, r.Type, r.Job, r.Data)))
	return hex.EncodeToString(h[:])
}

// Payload shapes for the record types that carry data.

// JobLaunch is TypeJobLaunch's payload.
type JobLaunch struct {
	Name      string         `json:"name"`
	NP        int            `json:"np"`
	Placement map[int]string `json:"placement"`
}

// IntervalEvent is the payload for the interval lifecycle records.
type IntervalEvent struct {
	Interval int `json:"interval"`
}

// ReplicasPlaced is TypeReplicasPlaced's payload.
type ReplicasPlaced struct {
	Interval int      `json:"interval"`
	Nodes    []string `json:"nodes"`
}

// Placement is TypePlacement's payload: one rank's new home.
type Placement struct {
	Rank int    `json:"rank"`
	Node string `json:"node"`
}

// NodeDead is TypeNodeDead's payload.
type NodeDead struct {
	Node string `json:"node"`
}

// RecoveryEvent is the payload for the recovery lifecycle records.
type RecoveryEvent struct {
	Node   string `json:"node,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// CrashEvent is the payload for HNP crash/reattach records.
type CrashEvent struct {
	Cause string `json:"cause,omitempty"`
}

// JobState is the folded view of one job's ledger records: everything
// reattach needs to rebuild the job's control state.
type JobState struct {
	Job       int            `json:"job"`
	Name      string         `json:"name"`
	NP        int            `json:"np"`
	Placement map[int]string `json:"placement"`
	// NextInterval is one past the highest interval ever allocated.
	NextInterval int `json:"next_interval"`
	// Committed lists intervals whose global snapshots landed.
	Committed []int `json:"committed,omitempty"`
	// Inflight is a captured-but-unresolved interval, -1 when none:
	// exactly the interval a reattach must fence or recover.
	Inflight int `json:"inflight"`
	// Replicas maps committed intervals to their holder nodes.
	Replicas map[int][]string `json:"replicas,omitempty"`
	// DeadNodes lists nodes the detector declared lost.
	DeadNodes []string `json:"dead_nodes,omitempty"`
	// RecoveryActive is the failed node of an open recovery session,
	// "" when no session is in flight. A non-empty value at replay time
	// means the HNP died mid-recovery and reattach must abort it.
	RecoveryActive string `json:"recovery_active,omitempty"`
	Done           bool   `json:"done,omitempty"`
}

// State is the folded view of the whole ledger.
type State struct {
	// Seq is the highest sequence number applied.
	Seq int `json:"seq"`
	// Jobs maps job id to its folded state.
	Jobs map[int]*JobState `json:"jobs"`
	// Headless reports a trailing hnp.crashed without a matching
	// reattach: the previous coordinator died and nobody took over.
	Headless bool `json:"headless,omitempty"`
	// Crashes and Reattaches count coordinator deaths and recoveries
	// over the ledger's whole history.
	Crashes    int `json:"crashes,omitempty"`
	Reattaches int `json:"reattaches,omitempty"`
}

// NewState returns an empty folded state.
func NewState() *State {
	return &State{Jobs: make(map[int]*JobState)}
}

func (s *State) job(id int) *JobState {
	js, ok := s.Jobs[id]
	if !ok {
		js = &JobState{Job: id, Inflight: -1, Placement: make(map[int]string)}
		s.Jobs[id] = js
	}
	return js
}

// Live returns the ids of jobs that launched and never finished, in
// ascending order — the jobs a reattach must adopt.
func (s *State) Live() []int {
	var ids []int
	for id, js := range s.Jobs {
		if !js.Done {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// apply folds one record into the state. Unknown types are ignored so
// older replays tolerate newer writers.
func (s *State) apply(r Record) error {
	if r.Seq <= s.Seq && r.Type != TypeSnapshot {
		return fmt.Errorf("ledger: sequence regressed: %d after %d", r.Seq, s.Seq)
	}
	s.Seq = r.Seq
	switch r.Type {
	case TypeSnapshot:
		var snap State
		if err := json.Unmarshal(r.Data, &snap); err != nil {
			return fmt.Errorf("ledger: snapshot record: %w", err)
		}
		if snap.Jobs == nil {
			snap.Jobs = make(map[int]*JobState)
		}
		snap.Seq = r.Seq
		*s = snap
	case TypeJobLaunch:
		var p JobLaunch
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: job.launch record: %w", err)
		}
		js := s.job(r.Job)
		js.Name, js.NP = p.Name, p.NP
		js.Done = false
		for rank, node := range p.Placement {
			js.Placement[rank] = node
		}
	case TypeJobDone:
		s.job(r.Job).Done = true
	case TypeIntervalCaptured:
		var p IntervalEvent
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: interval record: %w", err)
		}
		js := s.job(r.Job)
		js.Inflight = p.Interval
		if p.Interval >= js.NextInterval {
			js.NextInterval = p.Interval + 1
		}
	case TypeIntervalCommitted, TypeIntervalDiscarded:
		var p IntervalEvent
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: interval record: %w", err)
		}
		js := s.job(r.Job)
		if js.Inflight == p.Interval {
			js.Inflight = -1
		}
		if r.Type == TypeIntervalCommitted && !containsInt(js.Committed, p.Interval) {
			js.Committed = append(js.Committed, p.Interval)
			sort.Ints(js.Committed)
		}
		if p.Interval >= js.NextInterval {
			js.NextInterval = p.Interval + 1
		}
	case TypeReplicasPlaced:
		var p ReplicasPlaced
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: replicas record: %w", err)
		}
		js := s.job(r.Job)
		if js.Replicas == nil {
			js.Replicas = make(map[int][]string)
		}
		js.Replicas[p.Interval] = p.Nodes
	case TypePlacement:
		var p Placement
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: placement record: %w", err)
		}
		s.job(r.Job).Placement[p.Rank] = p.Node
	case TypeNodeDead:
		var p NodeDead
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: node.dead record: %w", err)
		}
		js := s.job(r.Job)
		if !containsStr(js.DeadNodes, p.Node) {
			js.DeadNodes = append(js.DeadNodes, p.Node)
		}
	case TypeRecoveryBegin:
		var p RecoveryEvent
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return fmt.Errorf("ledger: recovery record: %w", err)
		}
		s.job(r.Job).RecoveryActive = p.Node
	case TypeRecoveryComplete, TypeRecoveryAbort:
		s.job(r.Job).RecoveryActive = ""
	case TypeHNPCrashed:
		s.Headless = true
		s.Crashes++
	case TypeHNPReattached:
		s.Headless = false
		s.Reattaches++
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Ledger is a live append handle. All methods are nil-safe: a nil
// *Ledger accepts every append as a no-op, so callers gate ledger
// write-through with a single nil check at construction
// (`hnp_ledger=off`).
type Ledger struct {
	mu  sync.Mutex
	fs  vfs.FS
	dir string
	// lines is the log: each record's JSON encoding, made once when the
	// record is appended (or replayed at Open) and reused by every
	// rewrite of the file.
	lines     [][]byte
	state     *State
	nextSeq   int
	compactAt int
	// durable is how many of recs have landed on stable storage; the
	// difference is the ledger lag surfaced by the health op.
	durable       int
	flushErrs     int
	quarantined   int
	droppedOnLoad int
}

// Options tunes Open.
type Options struct {
	// CompactAt caps the in-memory log length before compaction;
	// 0 means the default (512).
	CompactAt int
}

// Open replays the ledger at dir on fsys (quarantining a damaged tail
// if necessary) and returns a live handle positioned to append, plus
// the folded state at open time. A missing ledger file is an empty
// ledger, not an error.
func Open(fsys vfs.FS, dir string, opt Options) (*Ledger, *State, error) {
	if fsys == nil {
		return nil, nil, errors.New("ledger: nil filesystem")
	}
	if dir == "" {
		dir = DefaultDir
	}
	compactAt := opt.CompactAt
	if compactAt <= 0 {
		compactAt = defaultCompactAt
	}
	l := &Ledger{fs: fsys, dir: dir, compactAt: compactAt}
	recs, dropped, err := load(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	st := NewState()
	for _, r := range recs {
		if err := st.apply(r); err != nil {
			// A record that passes its checksum but won't fold is a
			// writer bug, not damage; fail loudly rather than silently
			// dropping control-plane history.
			return nil, nil, err
		}
	}
	if l.lines, err = encodeAll(recs); err != nil {
		return nil, nil, err
	}
	l.durable = len(recs)
	l.droppedOnLoad = dropped
	if dropped > 0 {
		l.quarantined++
	}
	l.state = st
	l.nextSeq = st.Seq + 1
	out := *st
	return l, &out, nil
}

// Replay folds the ledger at dir on fsys without opening it for
// appends: the cold-reattach read path. Returns the folded state and
// the number of damaged records dropped from the tail.
func Replay(fsys vfs.FS, dir string) (*State, int, error) {
	if dir == "" {
		dir = DefaultDir
	}
	recs, dropped, err := load(fsys, dir)
	if err != nil {
		return nil, 0, err
	}
	st := NewState()
	for _, r := range recs {
		if err := st.apply(r); err != nil {
			return nil, dropped, err
		}
	}
	return st, dropped, nil
}

// load reads and verifies the ledger file. Damaged records (bad JSON,
// bad checksum, sequence break) end the readable prefix: the original
// file is quarantined alongside, the intact prefix is rewritten in
// place, and the count of dropped records is returned.
func load(fsys vfs.FS, dir string) ([]Record, int, error) {
	name := path.Join(dir, File)
	data, err := fsys.ReadFile(name)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("ledger: read %s: %w", name, err)
	}
	lines := strings.Split(string(data), "\n")
	var recs []Record
	lastSeq := 0
	damaged := 0
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			damaged++
			break
		}
		if r.Sum != r.checksum() {
			damaged++
			break
		}
		if r.Seq <= lastSeq {
			damaged++
			break
		}
		lastSeq = r.Seq
		recs = append(recs, r)
	}
	// Count everything after the first damaged line as dropped too.
	if damaged > 0 {
		total := 0
		for _, line := range lines {
			if strings.TrimSpace(line) != "" {
				total++
			}
		}
		dropped := total - len(recs)
		// Quarantine the damaged generation, keep the intact prefix live.
		qname := fmt.Sprintf("%s.quarantine-%d", name, lastSeq)
		if err := fsys.Rename(name, qname); err != nil {
			return nil, 0, fmt.Errorf("ledger: quarantine %s: %w", name, err)
		}
		if len(recs) > 0 {
			lines, err := encodeAll(recs)
			if err == nil {
				err = writeAll(fsys, dir, lines)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("ledger: rewrite intact prefix: %w", err)
			}
		}
		return recs, dropped, nil
	}
	return recs, 0, nil
}

// encodeAll returns each record's log line, without the newline.
func encodeAll(recs []Record) ([][]byte, error) {
	lines := make([][]byte, len(recs))
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("ledger: marshal record %d: %w", r.Seq, err)
		}
		lines[i] = line
	}
	return lines, nil
}

// writeAll rewrites the whole log atomically: join the encoded records
// one per line, write a temp file, rename into place.
func writeAll(fsys vfs.FS, dir string, lines [][]byte) error {
	size := 0
	for _, line := range lines {
		size += len(line) + 1
	}
	data := make([]byte, 0, size)
	for _, line := range lines {
		data = append(data, line...)
		data = append(data, '\n')
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	name := path.Join(dir, File)
	tmp := name + ".tmp"
	if err := fsys.WriteFile(tmp, data); err != nil {
		return err
	}
	return fsys.Rename(tmp, name)
}

// Append folds a record into the ledger and attempts to land it on
// stable storage. When the store is unreachable the record stays
// buffered in memory (Lag grows) and the error is returned so callers
// can count it — the in-memory state is updated either way, and a
// later Append or Flush retries the whole backlog.
func (l *Ledger) Append(typ string, job int, payload any) error {
	if l == nil {
		return nil
	}
	var data json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("ledger: marshal %s payload: %w", typ, err)
		}
		data = b
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := Record{Seq: l.nextSeq, Type: typ, Job: job, Data: data}
	r.Sum = r.checksum()
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("ledger: marshal %s record: %w", typ, err)
	}
	if err := l.state.apply(r); err != nil {
		return err
	}
	l.nextSeq++
	l.lines = append(l.lines, line)
	l.maybeCompactLocked()
	if err := l.flushLocked(); err != nil {
		l.flushErrs++
		return fmt.Errorf("ledger: append %s buffered (store unreachable): %w", typ, err)
	}
	return nil
}

// maybeCompactLocked folds the log into a snapshot record when it
// outgrows the cap, bounding rewrite cost. Caller holds l.mu.
func (l *Ledger) maybeCompactLocked() {
	if len(l.lines) < l.compactAt {
		return
	}
	snap, err := json.Marshal(l.state)
	if err != nil {
		return // keep appending uncompacted; marshal of State cannot realistically fail
	}
	r := Record{Seq: l.nextSeq, Type: TypeSnapshot, Data: snap}
	r.Sum = r.checksum()
	line, err := json.Marshal(r)
	if err != nil {
		return
	}
	l.nextSeq++
	l.lines = [][]byte{line}
	l.durable = 0
}

// flushLocked rewrites the log if any records are not yet durable.
// Caller holds l.mu.
func (l *Ledger) flushLocked() error {
	if l.durable == len(l.lines) {
		return nil
	}
	if err := writeAll(l.fs, l.dir, l.lines); err != nil {
		return err
	}
	l.durable = len(l.lines)
	return nil
}

// Flush retries landing any buffered records; the catch-up path once a
// store outage clears.
func (l *Ledger) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		l.flushErrs++
		return err
	}
	return nil
}

// Lag reports how many applied records have not yet reached stable
// storage — zero in healthy operation, growing during a store outage.
func (l *Ledger) Lag() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines) - l.durable
}

// Len reports the current in-memory log length (post-compaction).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// Seq reports the highest sequence number applied.
func (l *Ledger) Seq() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FlushErrors counts appends/flushes that could not reach the store.
func (l *Ledger) FlushErrors() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushErrs
}

// DroppedOnLoad reports records quarantined off a damaged tail at Open.
func (l *Ledger) DroppedOnLoad() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.droppedOnLoad
}

// State returns a deep copy of the folded state.
func (l *Ledger) State() *State {
	if l == nil {
		return NewState()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.clone()
}

func (s *State) clone() *State {
	out := &State{Seq: s.Seq, Headless: s.Headless, Crashes: s.Crashes, Reattaches: s.Reattaches,
		Jobs: make(map[int]*JobState, len(s.Jobs))}
	for id, js := range s.Jobs {
		cp := *js
		cp.Placement = make(map[int]string, len(js.Placement))
		for k, v := range js.Placement {
			cp.Placement[k] = v
		}
		cp.Committed = append([]int(nil), js.Committed...)
		cp.DeadNodes = append([]string(nil), js.DeadNodes...)
		if js.Replicas != nil {
			cp.Replicas = make(map[int][]string, len(js.Replicas))
			for k, v := range js.Replicas {
				cp.Replicas[k] = append([]string(nil), v...)
			}
		}
		out.Jobs[id] = &cp
	}
	return out
}
