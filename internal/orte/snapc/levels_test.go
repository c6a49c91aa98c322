// Multilevel hold tests: Seal keeps an interval at L1/L2 without ever
// touching stable storage, promotion lifts it level by level, a stable
// commit releases the holds it supersedes, and the recovery pass turns
// a held interval into a stable commit — the multilevel restart path.
package snapc

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// levelHarness is a harness with metrics and a node list, as the level
// machinery needs (stage replicas, level counters).
func levelHarness(t *testing.T, np int) *harness {
	h := newHarness(t, np)
	h.env.Ins = trace.New()
	h.env.Nodes = h.job.Nodes
	return h
}

func journalEntryAt(t *testing.T, h *harness, interval int) snapshot.JournalEntry {
	t.Helper()
	e, ok, err := snapshot.OpenJournal(globalRef(h)).Entry(interval)
	if err != nil || !ok {
		t.Fatalf("journal entry %d: ok=%v err=%v", interval, ok, err)
	}
	return e
}

// Seal journals the interval CAPTURED at its level and holds it: the
// node-local stages stay sealed, stable storage never sees the
// interval, and nothing drains.
func TestSealHoldsWithoutDrain(t *testing.T) {
	h := levelHarness(t, 4)
	d := NewDrainer(h.env, drainParams(), nil)
	defer d.Close()

	if err := d.Seal(captureInterval(t, h, 0), snapshot.LevelLocal); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	e := journalEntryAt(t, h, 0)
	if e.State != snapshot.StateCaptured || e.Level != snapshot.LevelLocal || e.LevelLabel() != "L1" {
		t.Fatalf("journal entry = state %s level %d label %q", e.State, e.Level, e.LevelLabel())
	}
	for _, nodeFS := range h.job.nodeFS {
		if !vfs.Exists(nodeFS, snapshot.LocalStageBase(int(h.job.JobID()), 0)+"/"+snapshot.LocalCommittedFile) {
			t.Fatal("sealed stage missing after Seal")
		}
	}
	if _, err := snapshot.VerifyInterval(globalRef(h), 0); err == nil {
		t.Fatal("L1 hold reached stable storage")
	}
	if hs := d.Health(); hs.Held != 1 || hs.QueueDepth != 0 {
		t.Fatalf("health = %+v, want 1 held and nothing queued", hs)
	}
	if got := d.Held(snapshot.GlobalDirName(7)); got[0] != snapshot.LevelLocal {
		t.Fatalf("Held = %v", got)
	}
	if got := h.env.Ins.Counter("ompi_ckpt_level1_captured_total").Value(); got != 1 {
		t.Errorf("ompi_ckpt_level1_captured_total = %d", got)
	}
	if got := d.DropHeld(snapshot.GlobalDirName(7)); got != 1 {
		t.Errorf("DropHeld = %d", got)
	}
	// Out-of-range levels are rejected before anything is journaled.
	if err := d.Seal(captureInterval(t, h, 1), snapshot.LevelStable); err == nil {
		t.Fatal("Seal at L3 succeeded; stable commits go through the drain queue")
	}
}

// The promotion ladder: PromoteReplicas lifts the newest L1 hold to L2
// (stage replicas on peers, durable level in the journal), and
// PromoteStable drains only the newest hold — the resulting stable
// commit discards the older superseded holds, stages and all.
func TestPromoteReplicasThenStableReleasesOlder(t *testing.T) {
	h := levelHarness(t, 4)
	gd := snapshot.GlobalDirName(7)
	d := NewDrainer(h.env, drainParams("snapc_stage_replicas", "1"), nil)
	defer d.Close()

	if err := d.Seal(captureInterval(t, h, 0), snapshot.LevelLocal); err != nil {
		t.Fatal(err)
	}
	if err := d.Seal(captureInterval(t, h, 1), snapshot.LevelLocal); err != nil {
		t.Fatal(err)
	}

	iv, ok := d.PromoteReplicas(gd)
	if !ok || iv != 1 {
		t.Fatalf("PromoteReplicas = (%d, %v), want the newest hold (1, true)", iv, ok)
	}
	foundReplica := false
	for _, fsys := range h.job.nodeFS {
		for _, origin := range h.job.Nodes() {
			if vfs.Exists(fsys, snapshot.StageReplicaBase(int(h.job.JobID()), 1, origin)) {
				foundReplica = true
			}
		}
	}
	if !foundReplica {
		t.Fatal("no stage replica found for the promoted interval")
	}
	if e := journalEntryAt(t, h, 1); e.Level != snapshot.LevelReplica || e.LevelLabel() != "L2" {
		t.Fatalf("promoted entry = level %d label %q", e.Level, e.LevelLabel())
	}
	if got := d.Held(gd); got[0] != snapshot.LevelLocal || got[1] != snapshot.LevelReplica {
		t.Fatalf("Held = %v", got)
	}
	if got := h.env.Ins.Counter("ompi_ckpt_level2_promoted_total").Value(); got != 1 {
		t.Errorf("ompi_ckpt_level2_promoted_total = %d", got)
	}

	p, ok, err := d.PromoteStable(gd)
	if err != nil || !ok {
		t.Fatalf("PromoteStable = (%v, %v)", ok, err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatalf("stable drain: %v", err)
	}
	if _, err := snapshot.VerifyInterval(globalRef(h), 1); err != nil {
		t.Fatalf("VerifyInterval 1: %v", err)
	}
	if e := journalEntryAt(t, h, 1); e.State != snapshot.StateCommitted || e.LevelLabel() != "L3" {
		t.Fatalf("committed entry = state %s label %q", e.State, e.LevelLabel())
	}
	// The stable commit of interval 1 superseded the held interval 0:
	// journal DISCARDED, stages swept, nothing held anymore.
	if e := journalEntryAt(t, h, 0); e.State != snapshot.StateDiscarded {
		t.Fatalf("superseded hold state = %s, want DISCARDED", e.State)
	}
	for _, nodeFS := range h.job.nodeFS {
		if vfs.Exists(nodeFS, snapshot.LocalStageBase(int(h.job.JobID()), 0)) {
			t.Error("superseded hold's stage survived")
		}
	}
	if hs := d.Health(); hs.Held != 0 {
		t.Fatalf("health = %+v, want no holds", hs)
	}
	if got := h.env.Ins.Counter("ompi_ckpt_superseded_total").Value(); got != 1 {
		t.Errorf("ompi_ckpt_superseded_total = %d", got)
	}
	// The consumed stage replicas of interval 1 were swept after commit.
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := false
		for _, fsys := range h.job.nodeFS {
			for _, origin := range h.job.Nodes() {
				if vfs.Exists(fsys, snapshot.StageReplicaBase(int(h.job.JobID()), 1, origin)) {
					left = true
				}
			}
		}
		if !left {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("committed interval's stage replicas were not swept")
		}
		time.Sleep(time.Millisecond)
	}
}

// An ordinary full checkpoint (Enqueue) also releases the older holds
// it supersedes — the retention rule keys off the stable commit, not
// off which path produced it.
func TestEnqueueCommitReleasesOlderHolds(t *testing.T) {
	h := levelHarness(t, 4)
	d := NewDrainer(h.env, drainParams(), nil)
	defer d.Close()

	if err := d.Seal(captureInterval(t, h, 0), snapshot.LevelLocal); err != nil {
		t.Fatal(err)
	}
	p, err := d.Enqueue(captureInterval(t, h, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if e := journalEntryAt(t, h, 0); e.State != snapshot.StateDiscarded {
		t.Fatalf("held interval 0 state = %s, want DISCARDED after interval 1 committed", e.State)
	}
	if hs := d.Health(); hs.Held != 0 {
		t.Fatalf("health = %+v", hs)
	}
}

// The multilevel restart path: a held interval is exactly a CAPTURED
// journal entry with sealed stages, so Recover re-drains it into a
// stable commit — including from a peer's stage replica when the origin
// node died with its L2 hold.
func TestRecoverRedrainsHeldInterval(t *testing.T) {
	h := levelHarness(t, 4)
	gd := snapshot.GlobalDirName(7)
	d := NewDrainer(h.env, drainParams("snapc_stage_replicas", "1"), nil)

	if err := d.Seal(captureInterval(t, h, 0), snapshot.LevelReplica); err != nil {
		t.Fatal(err)
	}
	if got := h.env.Ins.Counter("ompi_ckpt_level2_captured_total").Value(); got != 1 {
		t.Errorf("ompi_ckpt_level2_captured_total = %d", got)
	}
	if n := d.DropHeld(gd); n != 1 {
		t.Fatalf("DropHeld = %d", n)
	}
	d.Close()

	// n0 died with its share of the L2 hold; the stage replica on the
	// peer carries it through the re-drain.
	rep, err := Recover(h.env, gd, func(node string) bool { return node != "n0" })
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Redrained != 1 || rep.Discarded != 0 {
		t.Fatalf("recover report = %+v, want 1 redrained", rep)
	}
	if _, err := snapshot.VerifyInterval(globalRef(h), 0); err != nil {
		t.Fatalf("VerifyInterval after recovery: %v", err)
	}
	if e := journalEntryAt(t, h, 0); e.State != snapshot.StateCommitted {
		t.Fatalf("state = %s", e.State)
	}
}

// Recovery of a held backlog commits the newest interval only. Older
// holds are superseded — discarded without a drain — because a restart
// resumes from the newest commit and re-draining the rest would put
// the whole backlog through stable storage on the MTTR path.
func TestRecoverSupersedesOlderHolds(t *testing.T) {
	h := levelHarness(t, 4)
	gd := snapshot.GlobalDirName(7)
	d := NewDrainer(h.env, drainParams(), nil)

	for i := 0; i < 3; i++ {
		if err := d.Seal(captureInterval(t, h, i), snapshot.LevelLocal); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.DropHeld(gd); n != 3 {
		t.Fatalf("DropHeld = %d, want 3", n)
	}
	d.Close()

	rep, err := Recover(h.env, gd, func(string) bool { return true })
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Redrained != 1 || rep.Superseded != 2 || rep.Discarded != 0 {
		t.Fatalf("recover report = %+v, want 1 redrained + 2 superseded", rep)
	}
	if e := journalEntryAt(t, h, 2); e.State != snapshot.StateCommitted {
		t.Fatalf("newest hold state = %s, want COMMITTED", e.State)
	}
	if _, err := snapshot.VerifyInterval(globalRef(h), 2); err != nil {
		t.Fatalf("VerifyInterval after recovery: %v", err)
	}
	for i := 0; i < 2; i++ {
		e := journalEntryAt(t, h, i)
		if e.State != snapshot.StateDiscarded {
			t.Fatalf("superseded hold %d state = %s, want DISCARDED", i, e.State)
		}
		if !strings.Contains(e.Cause, "superseded by recovered interval 2") {
			t.Fatalf("superseded hold %d cause = %q", i, e.Cause)
		}
	}
	// Idempotent: nothing left undrained.
	rep, err = Recover(h.env, gd, func(string) bool { return true })
	if err != nil || rep != (RecoverReport{}) {
		t.Fatalf("second Recover = %+v, %v", rep, err)
	}
}

// A parked interval is journal-labeled "parked", never "L1": the flag
// lands durably when the store takes the write, and the terminal
// transition clears it once the interval reconciles.
func TestParkedIntervalLabeledDistinctFromL1(t *testing.T) {
	h := levelHarness(t, 4)
	var fired atomic.Int32
	h.env.Inject = func(point string) error {
		// One outage-classified drain failure: the interval parks while
		// the store itself stays up, so the parked flag write succeeds.
		if point == InjectMidDrain && fired.CompareAndSwap(0, 1) {
			return fmt.Errorf("injected: %w", faultsim.ErrOutage)
		}
		return nil
	}
	d := NewDrainer(h.env, drainParams(
		"snapc_store_outage_threshold", "1",
		"snapc_store_retry_backoff", "2ms",
		"snapc_stage_replicas", "0",
	), nil)
	defer d.Close()

	p, err := d.Enqueue(captureInterval(t, h, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); !errors.Is(err, ErrStoreDegraded) {
		t.Fatalf("ticket err = %v, want ErrStoreDegraded", err)
	}
	if e := journalEntryAt(t, h, 0); !e.Parked || e.LevelLabel() != "parked" {
		t.Fatalf("parked entry = parked=%v label %q, want a distinct parked label", e.Parked, e.LevelLabel())
	}
	if err := d.AwaitCatchup(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e := journalEntryAt(t, h, 0); e.State != snapshot.StateCommitted || e.Parked || e.LevelLabel() != "L3" {
		t.Fatalf("reconciled entry = state %s parked=%v label %q", e.State, e.Parked, e.LevelLabel())
	}
}

// Seal after the drainer stopped keeps the contract Enqueue has: the
// interval is not held by a dead engine.
func TestSealAfterCloseFails(t *testing.T) {
	h := levelHarness(t, 2)
	d := NewDrainer(h.env, drainParams(), nil)
	cpt := captureInterval(t, h, 0)
	d.Close()
	if err := d.Seal(cpt, snapshot.LevelLocal); err == nil {
		t.Fatal("Seal succeeded on a closed drainer")
	}
	if hs := d.Health(); hs.Held != 0 {
		t.Fatalf("health = %+v", hs)
	}
}
