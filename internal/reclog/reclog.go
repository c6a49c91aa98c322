// Package reclog is the append-only record log behind both of the
// coordinator's durable logs: the drain journal of each snapshot
// lineage (core/snapshot) and the HNP's job ledger (orte/ledger).
//
// A log is a JSONL file. Each line is one Record, sealed by a sha256
// over its canonical body and numbered by a strictly increasing
// sequence, and a record lands with one vfs Append. Replay applies the
// lines in order and ends the log at the first one that is torn, fails
// its checksum, breaks the sequence or does not apply: that line and
// every line after it are cut, and the handle's next landing is a
// compaction, which sets the cut bytes aside.
//
// A compaction rewrites the file, through a temp file and a rename, to
// a single fold record holding the owner's whole state, which replay
// takes as a new baseline. The rule is derived, not configured: a
// record lands as a compaction instead of an append once the bytes
// appended since the last fold would exceed that fold's size plus
// Floor, so a fresh handle replays at most about twice the folded state
// plus Floor.
//
// One write-behind rule serves both owners: a log keeps what it cannot
// land, and lands it with the next compaction. A handle's state is the
// file plus the records it issued that have not landed (Lag), and while
// any is pending the next landing, or Flush, is one compaction, which
// also overwrites whatever torn prefix a failed append left.
package reclog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/vfs"
)

const (
	// TypeFold is the type of a compaction record: the owner's folded
	// state as of the record's sequence number.
	TypeFold = "state.snapshot"
	// Floor keeps a small log from compacting on every record.
	Floor = 2048
)

// Record is one log line. Sum is the hex sha256 of the canonical body
// (seq|type|job|data); replay rejects any record whose stored sum
// disagrees, which catches torn tails and bitrot alike.
type Record struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Job  int             `json:"job,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
	Sum  string          `json:"sum"`
}

func (r Record) checksum() string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%d|", r.Seq, r.Type, r.Job)
	h.Write(r.Data)
	return hex.EncodeToString(h.Sum(nil))
}

// line returns r's log line, sealed with its checksum, newline included:
// the bytes json.Marshal makes of r, built without scanning Data again.
// Data must be compact JSON, as json.Marshal writes it.
func (r Record) line() ([]byte, error) {
	if bytes.IndexByte(r.Data, '\n') >= 0 {
		return nil, errors.New("reclog: record data spans lines")
	}
	typ, err := json.Marshal(r.Type)
	if err != nil {
		return nil, err
	}
	b := fmt.Appendf(nil, `{"seq":%d,"type":%s`, r.Seq, typ)
	if r.Job != 0 {
		b = fmt.Appendf(b, `,"job":%d`, r.Job)
	}
	if len(r.Data) > 0 {
		b = append(append(b, `,"data":`...), r.Data...)
	}
	return fmt.Appendf(b, `,"sum":%q}`+"\n", r.checksum()), nil
}

// Log is one handle on a log file: the file, plus the records this
// handle issued that have not landed. Its owner serializes calls.
type Log struct {
	fs   vfs.FS
	name string

	loaded  bool
	err     error         // why the last Refresh failed; landings wait for one that succeeds
	stamp   *vfs.FileInfo // the file as this handle last left it; nil: none
	seq     int           // the last sequence number replayed or issued
	base    int64         // size of the last fold line; 0 when there is none
	since   int64         // bytes appended after it
	torn    []byte        // bytes replay cut, set aside by the next compaction
	pending []Record      // issued and applied by the owner, not landed
}

var errNotLoaded = errors.New("reclog: log not read yet")

// New returns a handle on the log file name. Nothing is read until the
// first Refresh.
func New(fsys vfs.FS, name string) *Log {
	return &Log{fs: fsys, name: name, err: errNotLoaded}
}

// Refresh brings the owner's state up to date with the file. When Stat
// shows the file as this handle last left it, nothing is read.
// Otherwise (first use, or another handle wrote, replaced or damaged
// the file) reset clears the state, apply is called on every intact
// record in order, and then on each pending record, renumbered after
// the file's. apply must leave the state untouched when it fails; a
// file record that fails is cut with all after it, like damage, and a
// pending one is dropped. Returns the number of lines cut plus pending
// records dropped. A missing file is an empty log. A failed Refresh
// leaves the state as it was.
func (l *Log) Refresh(reset func(), apply func(Record) error) (dropped int, err error) {
	defer func() { l.err = err }()
	fi, err := l.fs.Stat(l.name)
	missing := errors.Is(err, vfs.ErrNotExist)
	if err != nil && !missing {
		return 0, err
	}
	if l.loaded && (missing && l.stamp == nil ||
		!missing && l.stamp != nil && fi.Size == l.stamp.Size && fi.ModTime.Equal(l.stamp.ModTime)) {
		return 0, nil
	}
	var data []byte
	if !missing {
		if data, err = l.fs.ReadFile(l.name); err != nil {
			return 0, err
		}
	}
	pending := l.pending
	*l = Log{fs: l.fs, name: l.name, loaded: true}
	reset()
	off := 0
	for {
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			break
		}
		var r Record
		if json.Unmarshal(data[off:off+end], &r) != nil || r.Sum != r.checksum() || r.Seq <= l.seq || apply(r) != nil {
			break
		}
		l.seq = r.Seq
		if n := int64(end + 1); r.Type == TypeFold {
			l.base, l.since = n, 0
		} else {
			l.since += n
		}
		off += end + 1
	}
	if off < len(data) {
		l.torn = data[off:]
		dropped = bytes.Count(l.torn, []byte{'\n'})
		if l.torn[len(l.torn)-1] != '\n' {
			dropped++
		}
	}
	for _, r := range pending {
		r.Seq = l.seq + 1
		if apply(r) != nil {
			dropped++
			continue
		}
		l.seq = r.Seq
		l.pending = append(l.pending, r)
	}
	// Stamped with the Stat taken before the read: if another handle
	// wrote in between, the next Refresh reads the file again.
	if !missing {
		l.stamp = &fi
	}
	return dropped, nil
}

// Loaded reports whether a Refresh has ever succeeded: whether the
// owner's state holds the file's records.
func (l *Log) Loaded() bool { return l.loaded }

// Issue seals the next record of the log. The owner applies it to its
// state and then lands it.
func (l *Log) Issue(typ string, job int, data json.RawMessage) Record {
	l.seq++
	return Record{Seq: l.seq, Type: typ, Job: job, Data: data}
}

// Land writes an issued record, which the owner has applied: one
// Append, or a compaction to fold (the owner's state) when records are
// pending, replay cut damage, or the rule calls for one. A record that
// does not land stays pending. While the last Refresh failed, or none
// has run, Land returns that failure and touches no store.
func (l *Log) Land(r Record, fold func() (json.RawMessage, error)) error {
	line, err := r.line()
	if err != nil {
		return err
	}
	l.pending = append(l.pending, r)
	if l.err != nil {
		return l.err
	}
	if len(l.pending) > 1 || l.torn != nil || l.since+int64(len(line)) > l.base+Floor {
		return l.Compact(fold)
	}
	if err := l.fs.Append(l.name, line); err != nil {
		return err
	}
	l.pending = nil
	l.since += int64(len(line))
	l.restamp()
	return nil
}

// Flush lands every pending record as one compaction to fold.
func (l *Log) Flush(fold func() (json.RawMessage, error)) error {
	if len(l.pending) == 0 {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return l.Compact(fold)
}

// Lag reports how many issued records have not landed.
func (l *Log) Lag() int { return len(l.pending) }

// Compact rewrites the file to one fold record of the owner's state,
// under the last issued sequence number, which lands every pending
// record. Bytes the last replay cut are first set aside beside the log,
// for post-mortem.
func (l *Log) Compact(fold func() (json.RawMessage, error)) error {
	data, err := fold()
	if err != nil {
		return err
	}
	l.seq = max(l.seq, 1)
	line, err := Record{Seq: l.seq, Type: TypeFold, Data: data}.line()
	if err != nil {
		return err
	}
	if l.torn != nil {
		if err := l.fs.WriteFile(fmt.Sprintf("%s.torn-%d", l.name, l.seq), l.torn); err != nil {
			return err
		}
		l.torn = nil
	}
	tmp := l.name + ".tmp"
	if err := l.fs.WriteFile(tmp, line); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, l.name); err != nil {
		return err
	}
	l.base, l.since, l.pending = int64(len(line)), 0, nil
	l.restamp()
	return nil
}

// restamp records the file as this handle just left it. A file that
// landed but cannot be stamped is read again by the next Refresh.
func (l *Log) restamp() {
	l.stamp = nil
	if fi, err := l.fs.Stat(l.name); err == nil {
		l.stamp = &fi
	}
}
