// HNP crash recovery: rebuilding the coordinator over a still-running
// cluster. CrashHNP (runtime.go) tears the control plane down; Reattach
// here is the inverse — re-register the HNP endpoint, shake hands with
// the surviving orteds, replay deaths deferred from the headless
// window, abort recovery sessions stranded by the crash, and resolve
// the checkpoint journal (including entries rebuilt from sealed stages
// the crashed coordinator never journaled). The durable job ledger is
// the source of truth the reconciliation is checked against.
package runtime

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/orte/ledger"
	"repro/internal/orte/names"
	"repro/internal/orte/snapc"
)

// ReattachReport summarizes what Reattach rebuilt.
type ReattachReport struct {
	// Down is how long the HNP was headless.
	Down time.Duration
	// Nodes lists the orteds that answered the reattach handshake.
	Nodes []string
	// DeclaredDead lists nodes silent through the handshake deadline,
	// declared down by the reattached HNP.
	DeclaredDead []string
	// DeferredDeaths lists node deaths that happened while the HNP was
	// down and were processed at reattach.
	DeferredDeaths []string
	// AbortedSessions counts recovery sessions stranded by the crash
	// and aborted into the whole-job fallback.
	AbortedSessions int
	// RebuiltEntries counts journal entries reconstructed from sealed
	// node-local stages the crashed coordinator never journaled.
	RebuiltEntries int
	// Recovered accumulates the journal resolution across every job
	// lineage: intervals fast-forwarded, re-drained, or discarded.
	Recovered snapc.RecoverReport
}

// Reattach rebuilds a crashed HNP over the still-running cluster: the
// paper's coordinator, made crash-safe. The orteds kept their ranks
// computing and their sealed stages intact through the headless window;
// this pass re-registers the HNP endpoint, restarts the failure
// detector, swaps in a fresh drain engine, waits for every surviving
// orted's heartbeat (silent nodes are declared dead), processes deaths
// deferred from the window, aborts recovery sessions the crash
// stranded, fences stale checkpoint directives, and resolves every
// job's drain journal — rebuilding entries for intervals whose capture
// outlived the coordinator. No COMMITTED interval is ever lost; at most
// the interval in flight at the crash is discarded or re-drained.
func (c *Cluster) Reattach() (ReattachReport, error) {
	var rep ReattachReport
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return rep, fmt.Errorf("runtime: cluster is stopped")
	}
	if !c.headless {
		c.mu.Unlock()
		return rep, fmt.Errorf("runtime: HNP is not down; nothing to reattach")
	}
	crashedAt := c.crashedAt
	rep.Down = time.Since(crashedAt)
	ep, err := c.router.Register(names.HNP)
	if err != nil {
		c.mu.Unlock()
		return rep, fmt.Errorf("runtime: re-register HNP: %w", err)
	}
	c.hnpEP = ep
	pending := c.pendingDeaths
	c.pendingDeaths = nil
	c.headless = false
	c.headlessCause = nil
	// A fresh drain engine: the crashed one failed its queue and is
	// terminal. Swapped under the lock so concurrent Drainer() callers
	// never see a torn pointer.
	oldDrainer := c.drainer
	c.drainer = snapc.NewDrainer(c.snapcEnv, c.params, c.ckptMu.RLocker())
	c.drainer.SetCrashHook(func(err error) { _ = c.CrashHNP(err) })
	c.mu.Unlock()
	oldDrainer.Close()

	// A fresh failure detector on the new endpoint.
	reattachedAt := time.Now()
	c.wg.Add(1)
	go c.monitorLoop(ep, c.hbInterval, c.hbMiss)

	// Handshake: every node believed alive must be heard from before the
	// reattached HNP trusts its view. The orteds kept beating through
	// the window, so a healthy node answers within one heartbeat
	// interval; a node silent through the deadline died unnoticed while
	// nobody was watching and is declared down now.
	timeout := c.params.Duration("hnp_reattach_timeout",
		2*time.Duration(c.hbMiss)*c.hbInterval)
	deadline := time.Now().Add(timeout)
	for {
		missing := c.silentSince(reattachedAt)
		if len(missing) == 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, n := range missing {
				c.ins.Emit("hnp", "reattach.silent",
					"node %q silent through the reattach handshake; declaring it down", n)
				_ = c.KillNode(n)
				rep.DeclaredDead = append(rep.DeclaredDead, n)
			}
			break
		}
		time.Sleep(c.hbInterval / 4)
	}
	rep.Nodes = c.AliveNodes()

	// Recovery sessions stranded by the crash: their coordinating
	// goroutine was cut off mid-session (the injected crash fires before
	// any order is delivered), so the parked survivors would otherwise
	// wait out the order timeout. Abort them into the whole-job
	// fallback. Sessions started after the reattach (by the deferred
	// deaths below) are newer than the crash and are left alone.
	for _, id := range c.JobIDs() {
		j, err := c.Job(id)
		if err != nil || j.Done() {
			continue
		}
		if s := j.Recovery(); s != nil && s.DetectedAt().Before(crashedAt) {
			j.AbortRecovery(fmt.Errorf("runtime: %w during recovery; falling back", snapc.ErrHNPCrashed))
			rep.AbortedSessions++
		}
	}

	// Deaths deferred from the headless window: ledger record first,
	// then the per-job reaction (recovery session or whole-job abort).
	for _, node := range pending {
		c.ledgerAppend(ledger.TypeNodeDead, 0, ledger.NodeDead{Node: node})
		c.processNodeDeath(node)
		rep.DeferredDeaths = append(rep.DeferredDeaths, node)
	}

	// Per-lineage journal resolution. Fencing first: a checkpoint
	// directive from an interval allocated by the dead coordinator,
	// still parked in a survivor's mailbox, would stall the job against
	// a global coordinator that no longer exists. Then resurrect
	// complete orphan captures (quiesce-window crashes seal stages the
	// journal never heard about), and run the normal recovery pass.
	for _, id := range c.JobIDs() {
		j, err := c.Job(id)
		if err != nil {
			continue
		}
		if !j.Done() {
			j.mu.Lock()
			j.fenceStaleDirectivesLocked()
			j.mu.Unlock()
		}
		globalDir := snapshot.GlobalDirName(int(id))
		c.ckptMu.Lock()
		rebuilt, rerr := snapc.RebuildJournal(c.snapcEnv, globalDir, j, c.Alive)
		c.ckptMu.Unlock()
		if rerr != nil {
			c.ins.Emit("hnp", "reattach.rebuild-error", "job %d: %v", id, rerr)
		}
		rep.RebuiltEntries += rebuilt
		rr, rerr := c.RecoverDrains(globalDir)
		if rerr != nil {
			c.ins.Emit("hnp", "reattach.recover-error", "job %d: %v", id, rerr)
			continue
		}
		rep.Recovered.FastForwarded += rr.FastForwarded
		rep.Recovered.Redrained += rr.Redrained
		rep.Recovered.Discarded += rr.Discarded
		rep.Recovered.Superseded += rr.Superseded
	}

	// Reconcile the ledger: jobs that finished while nobody was
	// recording get their completion written now.
	if c.led != nil {
		st := c.led.State()
		for _, id := range c.JobIDs() {
			j, err := c.Job(id)
			if err != nil || !j.Done() {
				continue
			}
			if js, ok := st.Jobs[int(id)]; ok && !js.Done {
				c.ledgerAppend(ledger.TypeJobDone, int(id), nil)
			}
		}
	}
	c.ledgerAppend(ledger.TypeHNPReattached, 0, ledger.CrashEvent{})
	_ = c.led.Flush()
	c.ins.Gauge("ompi_hnp_headless").Set(0)
	c.ins.Counter("ompi_hnp_reattaches_total").Inc()
	c.ins.Emit("hnp", "hnp.reattach",
		"control plane rebuilt after %v headless: %d orteds, %d silent, %d deferred deaths, %d sessions aborted, %d journal entries rebuilt",
		rep.Down.Round(time.Millisecond), len(rep.Nodes), len(rep.DeclaredDead),
		len(rep.DeferredDeaths), rep.AbortedSessions, rep.RebuiltEntries)
	return rep, nil
}

// silentSince returns the live nodes not heard from after t, sorted.
func (c *Cluster) silentSince(t time.Time) []string {
	alive := c.AliveNodes()
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	var out []string
	for _, n := range alive {
		if c.lastBeat[n].Before(t) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// NodeHealth is one node's failure-detector view for the health op.
type NodeHealth struct {
	Node  string
	Alive bool
	// SinceBeat is the age of the node's last heard heartbeat; negative
	// when the HNP has never heard the node this incarnation.
	SinceBeat time.Duration
}

// ClusterHealth is the HNP's own health view: failure-detector state
// per node, the drain engine's store health, and the job ledger's
// durability lag. Served over the control channel as the "health" op.
type ClusterHealth struct {
	Headless bool
	Store    snapc.StoreHealth
	Nodes    []NodeHealth
	// LedgerSeq is the last applied ledger sequence number, LedgerLag
	// the records applied but not yet durable (a store outage grows
	// it), LedgerFlushErrors the lifetime count of failed flushes.
	// All zero when the ledger is disabled.
	LedgerSeq         int
	LedgerLag         int
	LedgerFlushErrors int
}

// Health reports the coordinator's live health view.
func (c *Cluster) Health() ClusterHealth {
	h := ClusterHealth{
		Headless: c.Headless(),
		Store:    c.Drainer().Health(),
	}
	if c.led != nil {
		h.LedgerSeq = c.led.Seq()
		h.LedgerLag = c.led.Lag()
		h.LedgerFlushErrors = c.led.FlushErrors()
	}
	now := time.Now()
	c.hbMu.Lock()
	beats := make(map[string]time.Time, len(c.lastBeat))
	for n, t := range c.lastBeat {
		beats[n] = t
	}
	c.hbMu.Unlock()
	for _, n := range c.Nodes() {
		nh := NodeHealth{Node: n, Alive: c.Alive(n), SinceBeat: -1}
		if t, ok := beats[n]; ok {
			nh.SinceBeat = now.Sub(t)
		}
		h.Nodes = append(h.Nodes, nh)
	}
	return h
}
