// Package ledger is the HNP's durable job ledger: the control-plane
// half of the paper's stable-storage discipline. The runtime's Cluster
// holds job membership, rank→node placement, node deaths, recovery
// sessions and coordinator crashes purely in memory; this package
// persists every one of those mutations as a checksummed record log on
// stable storage (internal/reclog, the drain journal's codec) so that a
// crashed coordinator can be rebuilt (`ompi-run --reattach`) without
// losing track of any running job.
//
// Interval state is not here: each lineage's drain journal is its one
// durable record, and reattach rebuilds it from there
// (snapc.RebuildJournal, then Cluster.RecoverDrains).
//
// Each mutation is one appended record. Replay stops at the first
// record that is torn, fails its checksum, breaks the sequence or does
// not fold, and keeps the intact prefix; the log compacts to a single
// folded-state record by the record log's derived rule.
//
// Stable storage can itself be out (the fs.outage fault class). The
// ledger follows the record log's one write-behind rule, as the drain
// journal does: a coordinator log keeps what it cannot land, and lands
// it with the next compaction. An append that cannot reach the store
// stays applied in memory, Lag counts it, and a later Append or Flush
// lands it (the runtime flushes on its heartbeat tick). The in-memory
// view is always authoritative for a live HNP; durability lags at most
// Lag() records behind.
package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"sync"

	"repro/internal/reclog"
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
	TypeSnapshot = reclog.TypeFold
)

// File is the ledger's filename inside its directory on stable storage.
const File = "ledger.jsonl"

// DefaultDir is the conventional ledger directory on stable storage.
const DefaultDir = "hnp"

// Record is one ledger entry.
type Record = reclog.Record

// Payload shapes for the record types that carry data.

// JobLaunch is TypeJobLaunch's payload.
type JobLaunch struct {
	Name      string         `json:"name"`
	NP        int            `json:"np"`
	Placement map[int]string `json:"placement"`
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
		js = &JobState{Job: id}
		s.Jobs[id] = js
	}
	if js.Placement == nil {
		// A fold record may carry a job with no placement.
		js.Placement = make(map[int]string)
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
// older replays tolerate newer writers, and a ledger written before
// interval state moved to the drain journal still folds. A record whose
// payload does not decode leaves the state untouched.
func (s *State) apply(r Record) error {
	switch r.Type {
	case TypeSnapshot:
		var snap State
		if err := json.Unmarshal(r.Data, &snap); err != nil {
			return fmt.Errorf("ledger: snapshot record: %w", err)
		}
		if snap.Jobs == nil {
			snap.Jobs = make(map[int]*JobState)
		}
		for id, js := range snap.Jobs {
			if js == nil {
				return fmt.Errorf("ledger: snapshot record: job %d is null", id)
			}
		}
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
		if !slices.Contains(js.DeadNodes, p.Node) {
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
	s.Seq = r.Seq
	return nil
}

// Ledger is a live append handle. All methods are nil-safe: a nil
// *Ledger accepts every append as a no-op, so callers gate ledger
// write-through with a single nil check at construction
// (`hnp_ledger=off`).
type Ledger struct {
	mu            sync.Mutex
	log           *reclog.Log
	state         *State
	flushErrs     int
	droppedOnLoad int
}

// replay folds the ledger file at dir into a fresh state.
func replay(fsys vfs.FS, dir string) (*reclog.Log, *State, int, error) {
	if fsys == nil {
		return nil, nil, 0, errors.New("ledger: nil filesystem")
	}
	if dir == "" {
		dir = DefaultDir
	}
	name := path.Join(dir, File)
	log, st := reclog.New(fsys, name), NewState()
	dropped, err := log.Refresh(func() { st = NewState() }, func(r Record) error { return st.apply(r) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("ledger: read %s: %w", name, err)
	}
	return log, st, dropped, nil
}

// Open replays the ledger at dir on fsys and returns a live handle
// positioned to append, plus the folded state at open time. A damaged
// tail is cut: the state is the intact prefix, and the first landing
// compacts the file to it (setting the cut bytes aside). A missing
// ledger file is an empty ledger, not an error.
func Open(fsys vfs.FS, dir string) (*Ledger, *State, error) {
	log, st, dropped, err := replay(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	return &Ledger{log: log, state: st, droppedOnLoad: dropped}, st.clone(), nil
}

// Replay folds the ledger at dir on fsys without opening it for
// appends: the cold-reattach read path. It writes nothing. Returns the
// folded state and the number of damaged lines cut from the tail.
func Replay(fsys vfs.FS, dir string) (*State, int, error) {
	_, st, dropped, err := replay(fsys, dir)
	return st, dropped, err
}

// Append folds a record into the ledger and attempts to land it on
// stable storage. When the store is unreachable the record stays
// applied in memory (Lag grows) and the error is returned so callers
// can count it; a later Append or Flush lands it.
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
	r := l.log.Issue(typ, job, data)
	if err := l.state.apply(r); err != nil {
		return fmt.Errorf("ledger: %s record: %w", typ, err)
	}
	if err := l.log.Land(r, l.fold); err != nil {
		l.flushErrs++
		return fmt.Errorf("ledger: append %s buffered (store unreachable): %w", typ, err)
	}
	return nil
}

func (l *Ledger) fold() (json.RawMessage, error) { return json.Marshal(l.state) }

// Flush retries landing any buffered records, as one compaction; the
// catch-up path once a store outage clears.
func (l *Ledger) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Flush(l.fold); err != nil {
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
	return l.log.Lag()
}

// Seq reports the highest sequence number applied.
func (l *Ledger) Seq() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.Seq
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

// DroppedOnLoad reports the damaged lines Open cut from the tail.
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
		cp.DeadNodes = slices.Clone(js.DeadNodes)
		out.Jobs[id] = &cp
	}
	return out
}
