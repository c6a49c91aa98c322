package core

import (
	"errors"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core/snapshot"
	"repro/internal/errdef"
	"repro/internal/orte/ledger"
	"repro/internal/vfs"
)

// logFS counts the writes that reach the coordinator's two durable
// logs — every lineage's drain journal and the HNP ledger — on a
// stable store. A log's own name is only ever appended to or renamed
// onto; anything else written under a log's name is a rewrite.
type logFS struct {
	vfs.FS
	mu                                 sync.Mutex
	appends, compactions, rewrites     int
	journalBytes, ledgerBytes, pending int64
	stray                              []string
}

// logName reports whether name is a log file (or its compaction temp
// or set-aside file) and whether it is the journal.
func logName(name string) (isLog, journal bool) {
	base := path.Base(name)
	switch {
	case strings.HasPrefix(base, snapshot.JournalFile):
		return true, true
	case strings.HasPrefix(name, ledger.DefaultDir+"/"+ledger.File):
		return true, false
	}
	return false, false
}

func (c *logFS) book(name string, n int) {
	if _, journal := logName(name); journal {
		c.journalBytes += int64(n)
	} else {
		c.ledgerBytes += int64(n)
	}
}

func (c *logFS) Append(name string, data []byte) error {
	if isLog, _ := logName(name); isLog {
		c.mu.Lock()
		c.appends++
		c.book(name, len(data))
		c.mu.Unlock()
	}
	return c.FS.Append(name, data)
}

func (c *logFS) WriteFile(name string, data []byte) error {
	if isLog, _ := logName(name); isLog {
		c.mu.Lock()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			c.pending++
		case strings.Contains(path.Base(name), ".torn-"):
		default:
			c.rewrites++
			c.stray = append(c.stray, name)
		}
		c.book(name, len(data))
		c.mu.Unlock()
	}
	return c.FS.WriteFile(name, data)
}

func (c *logFS) Rename(oldName, newName string) error {
	if isLog, _ := logName(newName); isLog {
		c.mu.Lock()
		if oldName == newName+".tmp" && c.pending > 0 {
			c.pending--
			c.compactions++
		} else {
			c.rewrites++
			c.stray = append(c.stray, oldName+" -> "+newName)
		}
		c.mu.Unlock()
	}
	return c.FS.Rename(oldName, newName)
}

func (c *logFS) total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalBytes + c.ledgerBytes
}

// The coordinator's logs cost O(1) store bytes per checkpoint: at the
// ckpt-wide shape (32 ranks × 512 B on 8 nodes, asynchronous drain),
// every journal and ledger record lands as exactly one Append, a log
// file is rewritten only by a compaction (temp write, then rename), and
// the log bytes of checkpoints 31–40 are no more than those of
// checkpoints 1–10 — they do not grow with how full the journal is.
func TestCoordinatorLogBytesPerCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("40 checkpoints of a 32-rank job: skipped with -short")
	}
	const np, checkpoints = 32, 40
	store := &logFS{FS: vfs.NewMem()}
	sys, err := NewSystem(Options{Nodes: 8, SlotsPerNode: 6, Stable: store})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, err := apps.Lookup("stencil", []string{"-steps", "0", "-cells", "64", "-delay", "2ms"})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sys.Launch(JobSpec{Name: "stencil", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(terminate bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			p, err := job.CheckpointAsync(terminate)
			if err == nil {
				_, err = p.Wait()
			}
			if err == nil {
				return
			}
			if !errors.Is(err, errdef.ErrNotCheckpointable) || time.Now().After(deadline) {
				t.Fatalf("checkpoint: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// after[k] is the log bytes written once checkpoint k committed.
	after := []int64{store.total()}
	for k := 1; k <= checkpoints; k++ {
		checkpoint(k == checkpoints)
		after = append(after, store.total())
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	store.mu.Lock()
	defer store.mu.Unlock()
	if store.rewrites > 0 || store.pending > 0 {
		t.Fatalf("log files written other than by append or compaction: %v", store.stray)
	}
	// Each checkpoint is three journal records (CAPTURED, DRAINING,
	// COMMITTED); every ledger record is one sequence number.
	if records, landings := 3*checkpoints+sys.Cluster().Ledger().Seq(), store.appends+store.compactions; landings != records {
		t.Fatalf("%d records landed through %d appends and %d compactions", records, store.appends, store.compactions)
	}
	if store.compactions > store.appends/4 {
		t.Fatalf("%d compactions for %d appends", store.compactions, store.appends)
	}
	first, last := after[10]-after[0], after[checkpoints]-after[checkpoints-10]
	t.Logf("journal %.1f KiB + ledger %.1f KiB over %d checkpoints (%.2f KiB/checkpoint); checkpoints 1-10: %.1f KiB, 31-40: %.1f KiB; %d appends, %d compactions",
		float64(store.journalBytes)/1024, float64(store.ledgerBytes)/1024, checkpoints,
		float64(store.journalBytes+store.ledgerBytes)/1024/checkpoints,
		float64(first)/1024, float64(last)/1024, store.appends, store.compactions)
	if last > first {
		t.Fatalf("log bytes grew with the journal: %d over checkpoints 31-40, %d over 1-10", last, first)
	}
}
