// The asynchronous drain engine (DESIGN.md §5c).
//
// The paper's cost decomposition (§7, Fig. 4–6) shows interval latency
// is dominated by aggregating local snapshots onto stable storage —
// but the application only needs to stay quiesced through the capture
// phase. The Drainer exploits that: Capture ends with the interval
// staged node-local under LOCAL_COMMITTED markers, Enqueue journals it
// (CAPTURED) and hands it to a single background worker that runs the
// gather → commit → replicate half (DRAINING → COMMITTED) while the
// next interval captures.
//
// Backpressure bounds the node-local stage: snapc_drain_queue caps a
// lineage's in-flight intervals and snapc_stage_bytes_max caps the
// total staged bytes across all lineages; a capture that would exceed
// either blocks in Enqueue (counted in
// ompi_snapc_captures_blocked_total and the blocked-time histograms)
// until the worker catches up. The count cap is deliberately
// per-lineage: a storming job backpressures only itself, so a
// high-priority neighbor is never blocked at admission behind another
// job's backlog — only the staged-bytes cap, which models the shared
// node-local staging resource, is global.
//
// Scheduling (DESIGN.md §5f): intervals queue per lineage (one job's
// global snapshot directory) and drain under a start-time fair queuing
// discipline (internal/orte/sched). Within a lineage the drain stays
// strictly FIFO and at most one interval is in service — the
// content-addressed dedup baseline of interval N+1 is interval N's
// committed manifest, so commits must land in capture order. Across
// lineages, snapc_drain_workers (default 1) sets how many drains run
// concurrently and each lineage's QoS weight (snapc_sched_weight, or
// SetWeight) sets its share of stable-store ingress, so one job's
// checkpoint storm cannot starve a high-priority neighbor. The same
// weighted-fair discipline optionally gates the capture phase itself
// (snapc_capture_gate): simultaneous quiesce fan-outs from many jobs
// contend for the control network and the nodes, and the gate keeps
// that contention off a high-priority job's capture latency.
//
// Degraded mode (DESIGN.md §5e): stable storage can suffer a transient
// outage ("fs.outage:stable"). Outage-classified drain failures do NOT
// abort the interval — the sealed node-local stages are preserved and
// the interval joins the sealed set (levels.go) with the outage reason,
// and after snapc_store_outage_threshold consecutive outages the store
// is marked DEGRADED (ompi_store_degraded gauge). Checkpoints keep
// succeeding at the local-stage level: tickets resolve with
// ErrStoreDegraded, journal records the store cannot hold are buffered
// in memory in capture order, and snapc_stage_replicas pushes each
// parked stage to a second node so a parked interval survives a single
// node loss. A catch-up pass retries with exponential backoff
// (snapc_store_retry_backoff) and reconciles — flush buffered journal
// records, re-drain the outage seals oldest-first — when the store
// returns. A newer stable commit supersedes an older parked interval
// under the sealed set's one retention rule, exactly as it does a
// cadence hold.
package snapc

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/orte/names"
	"repro/internal/orte/sched"
	"repro/internal/vfs"
)

// Drain-lifecycle fault-injection points, one per journal edge. An
// injected error simulates a crash at that edge: the drain stops with
// the journal and on-disk state exactly as a real crash would leave
// them (no cleanup, no DISCARDED transition) — recovery tests then
// exercise Recover against each.
const (
	// InjectPreDrain fires before the CAPTURED → DRAINING transition:
	// the journal still says CAPTURED, nothing touched stable storage.
	InjectPreDrain = "snapc.drain:pre-drain"
	// InjectMidDrain fires after the DRAINING transition but before any
	// gather work: the journal says DRAINING, stable storage may hold a
	// partial stage.
	InjectMidDrain = "snapc.drain:mid-drain"
	// InjectPreCommitJournal fires after the interval committed on
	// stable storage but before the journal's COMMITTED transition:
	// recovery must fast-forward the journal, not re-drain.
	InjectPreCommitJournal = "snapc.drain:pre-commit"
	// InjectHNPCrashMidDrain fires after the DRAINING transition: the
	// HNP dies with the journal saying DRAINING and the local stages
	// sealed. The drain engine stops (tickets fail with ErrHNPDown) and
	// a reattach re-drains the interval from the stages.
	InjectHNPCrashMidDrain = "hnp.crash:mid-drain"
)

// Pending is a ticket for an interval handed to the Drainer. Wait
// blocks until the background drain finishes and returns its outcome —
// the synchronous Checkpoint path is exactly Enqueue immediately
// followed by Wait.
type Pending struct {
	// Interval is the ticket's checkpoint interval number.
	Interval int
	done     chan struct{}
	res      Result
	err      error
}

// Wait blocks until the drain completes and returns its result.
func (p *Pending) Wait() (Result, error) {
	<-p.done
	return p.res, p.err
}

// Done reports whether the drain has completed without blocking.
func (p *Pending) Done() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Drainer is the bounded background drain queue: one per cluster,
// shared by every job. Worker goroutines (snapc_drain_workers, default
// 1) pop intervals in weighted-fair order — strict FIFO within a
// lineage — and run Drain under the cluster's checkpoint lock.
type Drainer struct {
	env *Env
	// Lock, when set, is held around each background drain. The runtime
	// passes the read side of its checkpoint lock so drains serialize
	// against scrub and restart exactly as synchronous checkpoints did,
	// while drains of different lineages may proceed concurrently.
	lock sync.Locker

	maxQueue int   // snapc_drain_queue: max in-flight intervals per lineage
	maxBytes int64 // snapc_stage_bytes_max: global staged-bytes cap (0 = unlimited)
	workers  int   // snapc_drain_workers: concurrent drain goroutines

	// Capture gate: snapc_capture_gate bounds how many jobs may run the
	// synchronous capture phase (quiesce → capture) at once, with slots
	// granted in the same weighted-fair order the drain queue uses. A
	// checkpoint storm contends for more than stable-store ingress —
	// simultaneous quiesce fan-outs load the control network and the
	// nodes themselves — and without a gate that contention lands on
	// the one latency a high-priority job actually feels, its capture.
	// 0 (the default) leaves capture admission unlimited.
	// The one express slot on top of the gate is low-latency queuing
	// (LLQ): a waiter whose weight strictly exceeds every in-service
	// capture's may overflow the gate by one slot, so a high-priority
	// job's capture never sits behind a full house of best-effort ones.
	// Strict inequality bounds the overdraft — equal-weight waiters
	// queue fairly rather than cascading through the express slot.
	captureGate int
	capQ        *sched.Queue
	capBusy     int            // capture slots in service (incl. express)
	capWeights  map[string]int // in-service capture weight by lineage

	outageThreshold int           // snapc_store_outage_threshold
	retryBackoff    time.Duration // snapc_store_retry_backoff: first catch-up delay
	retryMax        time.Duration // snapc_store_retry_max: backoff ceiling
	stageReplicas   int           // snapc_stage_replicas: copies pushed per parked stage

	mu        sync.Mutex
	cond      *sync.Cond
	sq        *sched.Queue   // weighted-fair queue of *drainItem, keyed by lineage
	perJobQ   map[string]int // per-lineage in-flight counts, for the admission cap
	weights   map[string]int // explicit per-lineage QoS weight overrides (SetWeight)
	inflight  int            // queued + actively draining
	staged    int64          // staged bytes across in-flight intervals
	closed    bool
	crashed   bool        // the HNP died; see Crash
	crashHook func(error) // invoked when an hnp.crash fault fires mid-drain

	degraded    bool                               // store marked DEGRADED (outageScore hit the threshold)
	outageScore int                                // consecutive outage-classified failures
	backlog     map[string][]snapshot.JournalEntry // journal records the store couldn't hold
	catchupOn   bool
	// stop is closed by Close or Crash; it wakes a backing-off catch-up
	// pass so neither waits out the backoff.
	stop chan struct{}

	// sealed holds, per lineage and intervals ascending, every interval
	// sealed node-local but not yet stable — cadence holds and outage
	// parks alike (levels.go).
	sealed map[string][]*sealedInterval

	workerWG  sync.WaitGroup
	catchupWG sync.WaitGroup
	fmu       sync.Mutex // serializes backlog flushes (worker vs catch-up)

	jmu      sync.Mutex
	journals map[string]*snapshot.Journal
}

// drainItem is one queued interval. It carries the interval's sealed
// state, so a promoted hold keeps its level and stage replicas through
// the queue.
type drainItem struct {
	si      *sealedInterval
	pending *Pending
}

// DefaultDrainQueue is the default snapc_drain_queue.
const DefaultDrainQueue = 4

// DefaultOutageThreshold is the default snapc_store_outage_threshold:
// consecutive outage-classified failures before the store is marked
// DEGRADED.
const DefaultOutageThreshold = 2

// NewDrainer builds the drain engine from the cluster's MCA
// parameters (snapc_drain_queue, snapc_stage_bytes_max,
// snapc_drain_workers, snapc_capture_gate, and the
// degraded-mode knobs snapc_store_outage_threshold,
// snapc_store_retry_backoff, snapc_store_retry_max,
// snapc_stage_replicas) and starts its workers. lock may be nil.
func NewDrainer(env *Env, params *mca.Params, lock sync.Locker) *Drainer {
	d := &Drainer{
		env:             env,
		lock:            lock,
		maxQueue:        params.Int("snapc_drain_queue", DefaultDrainQueue),
		maxBytes:        params.Bytes("snapc_stage_bytes_max", 0),
		workers:         params.Int("snapc_drain_workers", 1),
		captureGate:     params.Int("snapc_capture_gate", 0),
		capQ:            sched.New(),
		capWeights:      make(map[string]int),
		outageThreshold: params.Int("snapc_store_outage_threshold", DefaultOutageThreshold),
		retryBackoff:    params.Duration("snapc_store_retry_backoff", 5*time.Millisecond),
		retryMax:        params.Duration("snapc_store_retry_max", 250*time.Millisecond),
		stageReplicas:   params.Int("snapc_stage_replicas", 1),
		sq:              sched.New(),
		perJobQ:         make(map[string]int),
		weights:         make(map[string]int),
		journals:        make(map[string]*snapshot.Journal),
		backlog:         make(map[string][]snapshot.JournalEntry),
		stop:            make(chan struct{}),
		sealed:          make(map[string][]*sealedInterval),
	}
	if d.maxQueue < 1 {
		d.maxQueue = 1
	}
	if d.workers < 1 {
		d.workers = 1
	}
	if d.outageThreshold < 1 {
		d.outageThreshold = 1
	}
	if d.retryBackoff <= 0 {
		d.retryBackoff = 5 * time.Millisecond
	}
	if d.retryMax < d.retryBackoff {
		d.retryMax = d.retryBackoff
	}
	d.cond = sync.NewCond(&d.mu)
	d.workerWG.Add(d.workers)
	for i := 0; i < d.workers; i++ {
		go d.worker()
	}
	return d
}

// SetWeight pins a lineage's QoS weight, overriding the job's
// snapc_sched_weight parameter for intervals enqueued afterwards.
func (d *Drainer) SetWeight(globalDir string, w int) {
	if w < 1 {
		w = 1
	}
	d.mu.Lock()
	d.weights[globalDir] = w
	d.mu.Unlock()
}

// weightFor resolves a lineage's QoS weight (with d.mu held): an
// explicit SetWeight override wins, then the job's snapc_sched_weight
// parameter, then 1.
func (d *Drainer) weightFor(globalDir string, job JobView) int {
	if w, ok := d.weights[globalDir]; ok {
		return w
	}
	if w := job.Params().Int("snapc_sched_weight", 1); w > 1 {
		return w
	}
	return 1
}

// captureGrant is one waiter's slot in the capture gate.
type captureGrant struct{ granted bool }

// AcquireCapture blocks until the lineage holds a capture-gate slot,
// granted in weighted-fair order (same discipline and weights as the
// drain queue) with one express slot for a strictly-higher-weight
// waiter. A no-op when snapc_capture_gate is 0. Every successful
// acquire must be paired with ReleaseCapture once the capture phase
// ends, success or not.
func (d *Drainer) AcquireCapture(globalDir string, job JobView) error {
	if d.captureGate <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	g := &captureGrant{}
	d.capQ.Push(sched.Item{Key: globalDir, Cost: 1, Weight: d.weightFor(globalDir, job), Payload: g})
	d.grantCapturesLocked()
	waited := time.Time{}
	for !g.granted && !d.closed && !d.crashed {
		if waited.IsZero() {
			waited = time.Now()
			d.env.Ins.Counter("ompi_snapc_capture_gate_waits_total").Inc()
		}
		d.cond.Wait()
	}
	if !waited.IsZero() {
		d.env.Ins.ObserveSeconds("ompi_snapc_capture_gate_wait_seconds", time.Since(waited))
	}
	switch {
	case g.granted:
		return nil
	case d.crashed:
		return fmt.Errorf("%w; capture gate abandoned", ErrHNPDown)
	default:
		return fmt.Errorf("snapc: drainer closed; capture gate abandoned")
	}
}

// ReleaseCapture returns the lineage's capture-gate slot and grants
// freed slots to waiters. A no-op when snapc_capture_gate is 0.
func (d *Drainer) ReleaseCapture(globalDir string) {
	if d.captureGate <= 0 {
		return
	}
	d.mu.Lock()
	d.capBusy--
	delete(d.capWeights, globalDir)
	d.capQ.Done(globalDir)
	d.grantCapturesLocked()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// grantCapturesLocked fills free capture slots in weighted-fair order,
// then lets a strictly-higher-weight waiter into the express slot
// (with d.mu held), waking the granted waiters.
func (d *Drainer) grantCapturesLocked() {
	granted := false
	grant := func(it sched.Item) {
		it.Payload.(*captureGrant).granted = true
		d.capWeights[it.Key] = it.Weight
		d.capBusy++
		granted = true
	}
	for d.capBusy < d.captureGate {
		it, ok := d.capQ.Pop()
		if !ok {
			break
		}
		grant(it)
	}
	if d.capBusy == d.captureGate {
		if it, ok := d.capQ.ExpressPop(maxWeight(d.capWeights)); ok {
			grant(it)
		}
	}
	if granted {
		d.cond.Broadcast()
	}
}

// maxWeight returns the largest in-service capture weight (0 if none).
func maxWeight(ws map[string]int) int {
	m := 0
	for _, w := range ws {
		if w > m {
			m = w
		}
	}
	return m
}

// SchedFlows snapshots the scheduler's per-lineage state for the
// control plane's "sched" view.
func (d *Drainer) SchedFlows() []sched.FlowState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sq.Flows()
}

// Workers reports the drain concurrency.
func (d *Drainer) Workers() int { return d.workers }

// SetCrashHook installs the callback invoked (on its own goroutine)
// when an "hnp.crash:mid-drain" fault fires: the runtime passes its
// CrashHNP so a drain-edge crash takes the whole control plane down,
// not just the drain worker.
func (d *Drainer) SetCrashHook(h func(error)) {
	d.mu.Lock()
	d.crashHook = h
	d.mu.Unlock()
}

// Journal returns the shared drain-journal handle for one global
// snapshot lineage directory. Sharing one handle per directory keeps
// the journal's read-modify-write cycles serialized.
func (d *Drainer) Journal(globalDir string) *snapshot.Journal {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	j, ok := d.journals[globalDir]
	if !ok {
		j = snapshot.OpenJournal(snapshot.GlobalRef{FS: d.env.Stable, Dir: globalDir})
		d.journals[globalDir] = j
	}
	return j
}

// journalEntry builds the crash-safe journal record for a captured
// interval: the full capture context, so a recovery pass can replay
// the drain from the entry alone.
func journalEntry(cpt *Captured) snapshot.JournalEntry {
	job := cpt.Job
	e := snapshot.JournalEntry{
		Interval: cpt.Interval, State: snapshot.StateCaptured,
		JobID: int(job.JobID()), NumProcs: job.NumProcs(),
		AppName: job.AppName(), AppArgs: job.AppArgs(),
		MCAParams: job.Params().Map(), Nodes: job.Nodes(),
		LocalBase:   snapshot.LocalStageBase(int(job.JobID()), cpt.Interval),
		Terminate:   cpt.Opts.Terminate,
		StagedBytes: cpt.StagedBytes, CapturedAt: cpt.Began,
	}
	for v := 0; v < job.NumProcs(); v++ {
		pr := cpt.Results[v]
		e.Procs = append(e.Procs, snapshot.JournalProc{
			Vpid: v, Node: job.NodeOf(v), Component: pr.Component,
			Dir: pr.Dir, QuiesceNS: pr.QuiesceNS, CaptureNS: pr.CaptureNS,
		})
	}
	return e
}

// record journals a CAPTURED entry for the lineage, buffering it in
// the in-memory backlog through a store outage — the capture itself is
// sealed node-local, so the checkpoint must not fail just because the
// store cannot hold the record right now. While the lineage has
// buffered records the new one queues behind them, so records reach
// the journal in capture order (the journal only accepts newer
// intervals). The catch-up pass (or drainOne, whichever reaches the
// store first) persists the backlog.
func (d *Drainer) record(globalDir string, entry snapshot.JournalEntry) error {
	d.mu.Lock()
	queued := len(d.backlog[globalDir]) > 0
	d.mu.Unlock()
	cause := "behind older buffered records"
	var err error
	if !queued {
		if err = d.Journal(globalDir).Record(entry); err == nil {
			return nil
		}
		if !faultsim.IsOutage(err) {
			return fmt.Errorf("snapc: journal capture of interval %d: %w", entry.Interval, err)
		}
		cause = fmt.Sprintf("store outage: %v", err)
	}
	d.mu.Lock()
	d.backlog[globalDir] = append(d.backlog[globalDir], entry)
	d.mu.Unlock()
	d.env.Ins.Counter("ompi_snapc_journal_backlogged_total").Inc()
	d.env.Ins.Emit("snapc.drain", "drain.journal-backlogged",
		"interval %d CAPTURED record buffered (%s)", entry.Interval, cause)
	if err != nil {
		d.noteOutage(err)
	}
	return nil
}

// Enqueue journals a captured interval (CAPTURED) and stages it for
// the background drain, blocking first if the queue or staged-bytes
// backpressure cap is hit. The block is application-blocked time: the
// caller is the capture path, so the next capture cannot start until
// Enqueue returns. Returns the ticket to Wait on.
func (d *Drainer) Enqueue(cpt *Captured) (*Pending, error) {
	if err := d.record(cpt.GlobalDir, journalEntry(cpt)); err != nil {
		return nil, err
	}
	return d.enqueue(&sealedInterval{cpt: cpt})
}

// enqueue is the admission half of Enqueue: backpressure, then the
// weighted-fair push. The interval must already be journaled (Enqueue)
// or held under a journal entry from an earlier Seal (PromoteStable).
func (d *Drainer) enqueue(si *sealedInterval) (*Pending, error) {
	ins := d.env.Ins
	cpt := si.cpt

	d.mu.Lock()
	key := cpt.GlobalDir
	blockStart := time.Time{}
	for !d.closed && !d.crashed && d.full(cpt.StagedBytes, key) {
		if blockStart.IsZero() {
			blockStart = time.Now()
			ins.Counter("ompi_snapc_captures_blocked_total").Inc()
			ins.Emit("snapc.drain", "drain.backpressure",
				"interval %d blocked: %d in flight, %d staged bytes", cpt.Interval, d.inflight, d.staged)
		}
		d.cond.Wait()
	}
	if d.crashed {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w; interval %d not drained", ErrHNPDown, cpt.Interval)
	}
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("snapc: drainer closed; interval %d not drained", cpt.Interval)
	}
	if !blockStart.IsZero() {
		blocked := time.Since(blockStart)
		cpt.BlockedNS += int64(blocked)
		ins.ObserveSeconds("ompi_snapc_capture_blocked_seconds", blocked)
	}
	// The interval's total application-blocked share is now final:
	// capture (slowest rank's quiesce+capture) plus any backpressure.
	ins.ObserveSeconds("ompi_snapc_blocked_seconds", time.Duration(cpt.BlockedNS))
	cpt.EnqueuedAt = time.Now()
	p := &Pending{Interval: cpt.Interval, done: make(chan struct{})}
	d.sq.Push(sched.Item{
		Key: key, Cost: cpt.StagedBytes,
		Weight:  d.weightFor(key, cpt.Job),
		Payload: &drainItem{si: si, pending: p},
	})
	d.perJobQ[key]++
	d.inflight++
	d.staged += cpt.StagedBytes
	ins.Gauge("ompi_snapc_drain_queue_depth").Set(float64(d.inflight))
	d.cond.Broadcast()
	d.mu.Unlock()
	return p, nil
}

// full reports (with d.mu held) whether admitting another interval of
// addBytes staged bytes for lineage key would exceed a backpressure
// cap: the per-lineage count cap (a storm backpressures only its own
// job) or the global staged-bytes cap (the shared staging resource).
// An oversized single interval is admitted once the queue is empty —
// blocking it forever would deadlock the capture path.
func (d *Drainer) full(addBytes int64, key string) bool {
	if d.perJobQ[key] >= d.maxQueue {
		return true
	}
	if d.maxBytes > 0 && d.inflight > 0 && d.staged+addBytes > d.maxBytes {
		return true
	}
	return false
}

// worker is one background drain loop: pop the weighted-fair queue,
// drain, journal, deliver. While the store is DEGRADED it parks
// intervals (an outage seal) without touching stable storage; an
// outage-classified drain failure parks the interval too — in both
// cases the ticket resolves with ErrStoreDegraded, a degraded success.
// A successful drain sweeps the stage replicas a promoted hold carried.
func (d *Drainer) worker() {
	defer d.workerWG.Done()
	for {
		d.mu.Lock()
		var it *drainItem
		var key string
		for {
			if item, ok := d.sq.Pop(); ok {
				it, key = item.Payload.(*drainItem), item.Key
				break
			}
			// Nothing eligible: either the queue is empty, or every
			// backlogged lineage has an interval in service on another
			// worker (which will Done + broadcast).
			if d.sq.Len() == 0 && (d.closed || d.crashed) {
				d.mu.Unlock()
				return
			}
			d.cond.Wait()
		}
		degraded, crashed := d.degraded, d.crashed
		d.mu.Unlock()

		var res Result
		var err error
		cpt := it.si.cpt
		switch {
		case crashed:
			err = fmt.Errorf("%w; interval %d not drained", ErrHNPDown, cpt.Interval)
		case degraded:
			d.seal(it.si, sealOutage)
			err = fmt.Errorf("interval %d: %w", cpt.Interval, ErrStoreDegraded)
		default:
			res, err = d.drainOne(cpt)
			if err != nil && faultsim.IsOutage(err) {
				d.noteOutage(err)
				d.seal(it.si, sealOutage)
				err = fmt.Errorf("interval %d: %w (%v)", cpt.Interval, ErrStoreDegraded, err)
			} else if err == nil {
				d.resetOutage()
				sweepStageReplicas(d.env, int(cpt.Job.JobID()), cpt.Interval, it.si.replicas)
			}
		}

		d.mu.Lock()
		d.sq.Done(key)
		d.finishLocked(it)
		d.mu.Unlock()

		it.pending.res, it.pending.err = res, err
		close(it.pending.done)
	}
}

// finishLocked releases one in-flight interval's admission accounting
// (with d.mu held) and wakes blocked enqueuers and idle workers.
func (d *Drainer) finishLocked(it *drainItem) {
	key := it.si.cpt.GlobalDir
	d.inflight--
	d.staged -= it.si.cpt.StagedBytes
	if d.perJobQ[key]--; d.perJobQ[key] <= 0 {
		delete(d.perJobQ, key)
	}
	d.env.Ins.Gauge("ompi_snapc_drain_queue_depth").Set(float64(d.inflight))
	d.cond.Broadcast()
}

// drainOne runs one interval's gather → commit → replicate under the
// cluster lock, walking the journal through its edges. Injected faults
// simulate a crash at the edge: the journal and on-disk state are left
// exactly as found, for Recover to resolve. Real drain failures
// discard the interval (Drain already aborted it atomically).
func (d *Drainer) drainOne(cpt *Captured) (Result, error) {
	if d.lock != nil {
		d.lock.Lock()
		defer d.lock.Unlock()
	}
	env := d.env
	// Buffered journal records must land before any transition of this
	// lineage: the CAPTURED record for this very interval may still be
	// in the backlog. An outage here parks the interval.
	if err := d.flushBacklog(cpt.GlobalDir); err != nil {
		return Result{}, err
	}
	j := d.Journal(cpt.GlobalDir)
	if err := env.fire(InjectPreDrain); err != nil {
		env.Ins.Emit("snapc.drain", "drain.crash", "interval %d: %v", cpt.Interval, err)
		return Result{}, fmt.Errorf("snapc: drain interval %d: %w", cpt.Interval, err)
	}
	if _, err := j.Transition(cpt.Interval, snapshot.StateDraining, ""); err != nil {
		return Result{}, err
	}
	if err := env.fire(InjectHNPCrashMidDrain); err != nil {
		// The coordinator process dies at the drain edge: journal says
		// DRAINING, local stages sealed. Take the control plane down and
		// leave everything in place for the reattach to re-drain.
		env.Ins.Emit("snapc.drain", "drain.hnp-crash", "interval %d: %v", cpt.Interval, err)
		d.mu.Lock()
		hook := d.crashHook
		d.mu.Unlock()
		werr := fmt.Errorf("%w mid-drain of interval %d: %w", ErrHNPCrashed, cpt.Interval, err)
		if hook != nil {
			go hook(werr)
		}
		return Result{}, werr
	}
	if err := env.fire(InjectMidDrain); err != nil {
		env.Ins.Emit("snapc.drain", "drain.crash", "interval %d: %v", cpt.Interval, err)
		return Result{}, fmt.Errorf("snapc: drain interval %d: %w", cpt.Interval, err)
	}
	res, err := Drain(env, cpt)
	if err != nil {
		if faultsim.IsOutage(err) {
			// Transient store outage: the stages were preserved
			// (abortOrPreserve) and the journal still pins the interval.
			// No DISCARDED edge — the caller parks it for catch-up.
			return Result{}, err
		}
		if _, terr := j.Transition(cpt.Interval, snapshot.StateDiscarded, err.Error()); terr != nil {
			env.Ins.Emit("snapc.drain", "drain.journal-error", "interval %d: %v", cpt.Interval, terr)
		}
		return Result{}, err
	}
	if ierr := env.fire(InjectPreCommitJournal); ierr != nil {
		env.Ins.Emit("snapc.drain", "drain.crash", "interval %d: %v", cpt.Interval, ierr)
		return Result{}, fmt.Errorf("snapc: drain interval %d: %w", cpt.Interval, ierr)
	}
	if _, terr := j.Transition(cpt.Interval, snapshot.StateCommitted, ""); terr != nil {
		return Result{}, terr
	}
	env.Ins.Counter("ompi_ckpt_level3_committed_total").Inc()
	// A stable commit subsumes every older sealed interval: a higher
	// level now has a strictly newer verified copy.
	d.releaseBelow(cpt.GlobalDir, cpt.Interval)
	return res, nil
}

// flushBacklog persists the buffered journal records of one lineage, in
// capture order. Returns the outage error if the store is still out;
// records that can never land (non-outage failures) are dropped with a
// log rather than wedging the backlog forever.
func (d *Drainer) flushBacklog(globalDir string) error {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	for {
		d.mu.Lock()
		entries := d.backlog[globalDir]
		if len(entries) == 0 {
			d.mu.Unlock()
			return nil
		}
		e := entries[0]
		d.mu.Unlock()
		err := d.Journal(globalDir).Record(e)
		if err != nil && faultsim.IsOutage(err) {
			return err
		}
		if err != nil {
			d.env.Ins.Emit("snapc.drain", "drain.journal-error",
				"dropping buffered CAPTURED record for interval %d: %v", e.Interval, err)
		}
		d.mu.Lock()
		d.setBacklogLocked(globalDir, d.backlog[globalDir][1:])
		d.mu.Unlock()
	}
}

// setBacklogLocked stores a lineage's buffered journal records (with
// d.mu held), dropping the lineage when none are left.
func (d *Drainer) setBacklogLocked(globalDir string, entries []snapshot.JournalEntry) {
	if len(entries) == 0 {
		delete(d.backlog, globalDir)
	} else {
		d.backlog[globalDir] = entries
	}
}

// noteOutage counts one outage-classified failure; at the threshold the
// store is marked DEGRADED. Either way the catch-up pass is (re)armed.
func (d *Drainer) noteOutage(err error) {
	d.mu.Lock()
	d.outageScore++
	trip := !d.degraded && d.outageScore >= d.outageThreshold
	if trip {
		d.degraded = true
	}
	d.mu.Unlock()
	if trip {
		d.env.Ins.Gauge("ompi_store_degraded").Set(1)
		d.env.Ins.Counter("ompi_store_degraded_total").Inc()
		d.env.Ins.Emit("snapc.drain", "store.degraded", "stable store marked DEGRADED: %v", err)
	}
	d.ensureCatchup()
}

// resetOutage clears the consecutive-failure score after a successful
// drain; DEGRADED itself only clears once the catch-up pass reconciles
// every parked interval and buffered journal record.
func (d *Drainer) resetOutage() {
	d.mu.Lock()
	d.outageScore = 0
	_, parked := d.sealedCountsLocked()
	clear := d.degraded && parked == 0 && len(d.backlog) == 0
	if clear {
		d.degraded = false
	}
	d.mu.Unlock()
	if clear {
		d.env.Ins.Gauge("ompi_store_degraded").Set(0)
		d.env.Ins.Emit("snapc.drain", "store.recovered", "stable store back to OK")
	}
}

// ensureCatchup starts the catch-up goroutine if it isn't running.
func (d *Drainer) ensureCatchup() {
	d.mu.Lock()
	if d.catchupOn || d.closed || d.crashed {
		d.mu.Unlock()
		return
	}
	d.catchupOn = true
	d.mu.Unlock()
	d.catchupWG.Add(1)
	go d.catchup()
}

// catchup is the degraded-mode reconciler: retry with exponential
// backoff until the store takes writes again, then flush the buffered
// journal records and drain the outage seals oldest-first. Exits when
// everything is reconciled (clearing DEGRADED) or the drainer stops.
func (d *Drainer) catchup() {
	defer d.catchupWG.Done()
	backoff := d.retryBackoff
	for {
		select {
		case <-time.After(backoff):
		case <-d.stop:
		}
		d.mu.Lock()
		if d.closed || d.crashed {
			d.catchupOn = false
			d.mu.Unlock()
			return
		}
		dirs := make([]string, 0, len(d.backlog))
		for dir := range d.backlog {
			dirs = append(dirs, dir)
		}
		sort.Strings(dirs)
		next := d.oldestParkedLocked()
		var unmarked []*sealedInterval
		for _, ss := range d.sealed {
			for _, si := range ss {
				if !si.marked {
					unmarked = append(unmarked, si)
				}
			}
		}
		if next == nil && len(dirs) == 0 {
			// Everything reconciled: clear DEGRADED and stand down.
			wasDegraded := d.degraded
			d.degraded = false
			d.outageScore = 0
			d.catchupOn = false
			d.mu.Unlock()
			if wasDegraded {
				d.env.Ins.Gauge("ompi_store_degraded").Set(0)
				d.env.Ins.Emit("snapc.drain", "store.recovered",
					"stable store back to OK; parked intervals reconciled")
			}
			return
		}
		d.mu.Unlock()

		progress := true
		for _, dir := range dirs {
			if err := d.flushBacklog(dir); err != nil {
				progress = false
				break
			}
		}
		// Retry the journal marks an outage defeated — stats must not
		// misread a parked interval as an L1 hold, nor an L2 one as L1.
		for _, si := range unmarked {
			d.mark(si)
		}
		if progress && next != nil {
			progress = d.catchupOne(next)
		}
		if progress {
			backoff = d.retryBackoff
		} else if backoff *= 2; backoff > d.retryMax {
			backoff = d.retryMax
		}
	}
}

// oldestParkedLocked returns the outage seal captured first across all
// lineages (with d.mu held), or nil. Within a lineage that is the
// lowest-numbered one, so catch-up commits land in capture order.
func (d *Drainer) oldestParkedLocked() *sealedInterval {
	var oldest *sealedInterval
	for _, ss := range d.sealed {
		i := slices.IndexFunc(ss, func(si *sealedInterval) bool { return si.reason == sealOutage })
		if i >= 0 && (oldest == nil || ss[i].cpt.Began.Before(oldest.cpt.Began)) {
			oldest = ss[i]
		}
	}
	return oldest
}

// catchupOne reconciles the oldest parked interval: fast-forward when
// it already committed on stable storage (the outage hit between the
// commit and the journal edge), re-drain from the sealed stages
// otherwise. Reports whether progress was made.
func (d *Drainer) catchupOne(si *sealedInterval) bool {
	cpt := si.cpt
	env := d.env
	ref := snapshot.GlobalRef{FS: env.Stable, Dir: cpt.GlobalDir}
	committed := vfs.Exists(env.Stable, path.Join(ref.IntervalDir(cpt.Interval), snapshot.CommittedFile))
	if committed {
		j := d.Journal(cpt.GlobalDir)
		if e, ok, err := j.Entry(cpt.Interval); err != nil || (ok && !e.State.Terminal()) {
			if err == nil {
				err = fastForward(j, e)
			}
			if err != nil {
				if !faultsim.IsOutage(err) {
					env.Ins.Emit("snapc.drain", "drain.journal-error",
						"catch-up fast-forward of interval %d: %v", cpt.Interval, err)
				}
				return false
			}
		}
		d.releaseBelow(cpt.GlobalDir, cpt.Interval)
	} else {
		if _, err := d.drainOne(cpt); err != nil {
			if faultsim.IsOutage(err) {
				return false // still out; keep it parked
			}
			// Non-transient failure: drainOne already discarded it.
			env.Ins.Emit("snapc.drain", "drain.catchup-failed", "interval %d: %v", cpt.Interval, err)
		}
	}
	d.mu.Lock()
	d.removeSealedLocked(si)
	d.mu.Unlock()
	sweepStageReplicas(env, int(cpt.Job.JobID()), cpt.Interval, si.replicas)
	env.Ins.Counter("ompi_snapc_catchup_drains_total").Inc()
	env.Ins.Emit("snapc.drain", "drain.catchup", "parked interval %d reconciled", cpt.Interval)
	return true
}

// Crash fails the drain engine the way a dead HNP would: queued tickets
// fail with ErrHNPDown, the worker and catch-up pass stop, and sealed
// or backlogged work stays exactly where it is — node-local stages and
// stage replicas sealed, journal records buffered — for the reattach
// to rebuild from the stage markers. Safe to call more than once; does
// not block on the in-flight drain.
func (d *Drainer) Crash(cause error) {
	d.mu.Lock()
	if d.crashed || d.closed {
		d.mu.Unlock()
		return
	}
	d.crashed = true
	close(d.stop)
	items := d.sq.DrainAll()
	dropped := make([]*drainItem, 0, len(items))
	for _, item := range items {
		it := item.Payload.(*drainItem)
		dropped = append(dropped, it)
		d.finishLocked(it)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	for _, it := range dropped {
		it.pending.err = fmt.Errorf("%w; interval %d dropped from drain queue: %v",
			ErrHNPDown, it.si.cpt.Interval, cause)
		close(it.pending.done)
	}
	d.env.Ins.Emit("snapc.drain", "drain.hnp-crashed",
		"drain engine stopped (%d queued tickets failed): %v", len(dropped), cause)
}

// StoreHealth summarizes the drain engine's degraded-mode state for the
// control plane's health report.
type StoreHealth struct {
	// Degraded reports the store DEGRADED window is open.
	Degraded bool
	// OutageScore is the consecutive outage-classified failure count.
	OutageScore int
	// Parked counts the sealed intervals parked by a store outage,
	// awaiting catch-up.
	Parked int
	// Held counts the sealed intervals held at a sub-stable checkpoint
	// level (L1/L2) by the cadence, across all lineages.
	Held int
	// JournalBacklog counts buffered journal records the store has not
	// yet accepted.
	JournalBacklog int
	// QueueDepth is the in-flight drain queue depth.
	QueueDepth int
}

// Health reports the drain engine's degraded-mode state.
func (d *Drainer) Health() StoreHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := StoreHealth{Degraded: d.degraded, OutageScore: d.outageScore, QueueDepth: d.inflight}
	for _, entries := range d.backlog {
		h.JournalBacklog += len(entries)
	}
	h.Held, h.Parked = d.sealedCountsLocked()
	return h
}

// AwaitCatchup blocks until no work is parked or backlogged and the
// DEGRADED window has closed, or the timeout expires.
func (d *Drainer) AwaitCatchup(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		h := d.Health()
		if !h.Degraded && h.Parked == 0 && h.JournalBacklog == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("snapc: store catch-up incomplete after %v: %d parked, %d backlogged, degraded=%v",
				timeout, h.Parked, h.JournalBacklog, h.Degraded)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Flush blocks until every enqueued interval has drained.
func (d *Drainer) Flush() {
	d.mu.Lock()
	for d.inflight > 0 {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Close drains the queue, stops the worker and rejects further
// enqueues. Safe to call more than once.
func (d *Drainer) Close() {
	d.mu.Lock()
	if !d.closed && !d.crashed {
		close(d.stop)
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.workerWG.Wait()
	d.catchupWG.Wait()
}

// QueueDepth reports the in-flight interval count (queued + draining).
func (d *Drainer) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inflight
}

// RecoverReport summarizes one recovery pass over a drain journal.
type RecoverReport struct {
	// FastForwarded intervals were already committed on stable storage;
	// only the journal's COMMITTED transition was missing.
	FastForwarded int
	// Redrained intervals were rebuilt from their journal entries and
	// drained from the surviving nodes' local stages.
	Redrained int
	// Discarded intervals were unrecoverable: a captured node died, a
	// local stage was incomplete, or the re-drain itself failed.
	Discarded int
	// Superseded intervals were older cadence holds dominated by a
	// newer interval recovery had already committed. A restart only
	// ever resumes from the newest committed interval, so re-draining
	// the rest of the held backlog through stable storage would spend
	// MTTR on bandwidth nothing reads back — they are discarded under
	// the same retention rule a live stable commit applies when it
	// releases the holds below it.
	Superseded int
}

// Recover resolves the undrained journal entries of one global
// snapshot lineage after a failure or restart, newest interval first:
// fast-forward the journal when the interval already committed,
// re-drain from the nodes' local stages when every captured node
// survived with its LOCAL_COMMITTED marker intact, and discard (with
// debris cleanup) otherwise. Once one interval has recovered to
// COMMITTED, every older undrained entry is superseded and discarded
// without a drain — restart resumes from the newest commit only, and
// putting a multilevel hold backlog through stable storage would
// stretch MTTR for nothing. alive reports whether a node survived; nil
// means no node survived. Must not run concurrently with an active
// Drainer on the same lineage — flush or close it first.
func Recover(env *Env, globalDir string, alive func(node string) bool) (RecoverReport, error) {
	return recoverWith(env, snapshot.OpenJournal(snapshot.GlobalRef{FS: env.Stable, Dir: globalDir}), alive)
}

// Recover is snapc.Recover through the drainer's own journal handle, so
// an in-process recovery does not replay the journal from scratch. The
// drainer must be idle on the lineage — flush it first.
func (d *Drainer) Recover(globalDir string, alive func(node string) bool) (RecoverReport, error) {
	return recoverWith(d.env, d.Journal(globalDir), alive)
}

func recoverWith(env *Env, j *snapshot.Journal, alive func(node string) bool) (RecoverReport, error) {
	var rep RecoverReport
	globalDir := j.Dir
	ref := snapshot.GlobalRef{FS: j.FS, Dir: globalDir}
	und, err := j.Undrained()
	if err != nil {
		return rep, err
	}
	// Newest-first: the first interval that reaches COMMITTED (by
	// fast-forward or re-drain) supersedes every older undrained hold —
	// under multilevel cadences a whole backlog of L1/L2 holds can be
	// pending between stable commits, and committing each one would put
	// the full backlog through the stable store on the MTTR path.
	sort.Slice(und, func(i, k int) bool { return und[i].Interval > und[k].Interval })
	recovered := -1
	for _, e := range und {
		if recovered >= 0 {
			discardEntry(env, ref, j, e, alive,
				fmt.Sprintf("superseded by recovered interval %d", recovered))
			rep.Superseded++
			env.Ins.Emit("snapc.drain", "recover.superseded", "interval %d: superseded by recovered interval %d", e.Interval, recovered)
			continue
		}
		committed := vfs.Exists(env.Stable, path.Join(ref.IntervalDir(e.Interval), snapshot.CommittedFile))
		plan, planOK := stagePlan(env, e, alive)
		switch {
		case committed:
			// The drain finished; only the journal edge is missing
			// (crash between commit and the journal's COMMITTED record).
			if err := fastForward(j, e); err != nil {
				return rep, err
			}
			rep.FastForwarded++
			recovered = e.Interval
			env.Ins.Emit("snapc.drain", "recover.fast-forward", "interval %d already committed", e.Interval)
		case planOK:
			if err := redrain(env, j, globalDir, e, plan); err != nil {
				rep.Discarded++
				env.Ins.Emit("snapc.drain", "recover.redrain-failed", "interval %d: %v", e.Interval, err)
				continue
			}
			rep.Redrained++
			recovered = e.Interval
			env.Ins.Counter("ompi_snapc_intervals_redrained_total").Inc()
			env.Ins.Emit("snapc.drain", "recover.redrained", "interval %d drained from surviving local stages", e.Interval)
		default:
			discardEntry(env, ref, j, e, alive, "captured node lost before drain")
			rep.Discarded++
			env.Ins.Emit("snapc.drain", "recover.discarded", "interval %d: captured node lost before drain", e.Interval)
		}
	}
	return rep, nil
}

// fastForward walks a journal entry to COMMITTED through whatever
// edges remain (CAPTURED entries need the DRAINING hop first).
func fastForward(j *snapshot.Journal, e snapshot.JournalEntry) error {
	if e.State == snapshot.StateCaptured {
		if _, err := j.Transition(e.Interval, snapshot.StateDraining, ""); err != nil {
			return err
		}
	}
	_, err := j.Transition(e.Interval, snapshot.StateCommitted, "")
	return err
}

// stagePlan maps each node that captured the entry's interval to where
// its share of the stage survives (the snapshot share probe): the node
// itself (alive, marker intact), or a survivor holding its stage
// replica — pushed by a level-2 hold or by the degraded-mode drain
// while the store was out, so the journal may never have learned of
// it. Reports false when any node's share is gone both ways — the
// interval is unrecoverable.
func stagePlan(env *Env, e snapshot.JournalEntry, alive func(string) bool) (map[string]string, bool) {
	if alive == nil || len(e.Nodes) == 0 {
		return nil, false
	}
	res := &snapshot.Resolver{NodeFS: func(node string) (vfs.FS, error) {
		if !alive(node) {
			return nil, fmt.Errorf("snapc: node %q is down", node)
		}
		return env.NodeFS(node)
	}}
	if env.Nodes != nil {
		res.Nodes = env.Nodes()
	}
	plan := make(map[string]string, len(e.Nodes))
	for _, node := range e.Nodes {
		own, holder := res.ProbeShare(e.JobID, e.Interval, e.LocalBase, node)
		if own {
			holder = node
		} else if holder == "" {
			return nil, false
		}
		plan[node] = holder
	}
	return plan, true
}

// redrain replays an interval's drain from its journal entry alone: a
// journalJob stands in for the live job, the DRAINING edge re-enters
// (legal — that's what the edge exists for), and a real failure
// discards the entry. plan maps each origin node to where its stage
// share actually lives (itself, or a stage-replica holder).
func redrain(env *Env, j *snapshot.Journal, globalDir string, e snapshot.JournalEntry, plan map[string]string) error {
	if _, err := j.Transition(e.Interval, snapshot.StateDraining, ""); err != nil {
		return err
	}
	cpt := capturedFromEntry(e, globalDir, plan)
	if _, err := Drain(env, cpt); err != nil {
		if _, terr := j.Transition(e.Interval, snapshot.StateDiscarded, err.Error()); terr != nil {
			env.Ins.Emit("snapc.drain", "drain.journal-error", "interval %d: %v", e.Interval, terr)
		}
		return err
	}
	if _, err := j.Transition(e.Interval, snapshot.StateCommitted, ""); err != nil {
		return err
	}
	// Sweep the consumed stage replicas: the interval is committed on
	// stable storage, so the node-to-node copies are debris now.
	sweepStageReplicas(env, e.JobID, e.Interval, plan)
	return nil
}

// discardEntry marks an entry DISCARDED and removes whatever debris
// remains: the stable-storage stage and any surviving nodes' local
// stages.
func discardEntry(env *Env, ref snapshot.GlobalRef, j *snapshot.Journal, e snapshot.JournalEntry,
	alive func(string) bool, cause string) {
	if _, err := j.Transition(e.Interval, snapshot.StateDiscarded, cause); err != nil {
		env.Ins.Emit("snapc.drain", "drain.journal-error", "interval %d: %v", e.Interval, err)
	}
	sweepEntry(env, ref, e, alive)
}

// sweepEntry removes an abandoned interval's debris: the stable-storage
// stage and any surviving nodes' local stages and stage replicas.
func sweepEntry(env *Env, ref snapshot.GlobalRef, e snapshot.JournalEntry, alive func(string) bool) {
	if stage := ref.StageDir(e.Interval); vfs.Exists(env.Stable, stage) {
		_ = env.Stable.Remove(stage)
	}
	for _, node := range e.Nodes {
		if alive != nil && !alive(node) {
			continue
		}
		if fsys, err := env.NodeFS(node); err == nil && vfs.Exists(fsys, e.LocalBase) {
			_ = env.Filem.Remove(env.FilemEnv, node, []string{e.LocalBase})
		}
	}
	// Sweep any stage replicas of the abandoned interval: the journal
	// does not record their holders, so every surviving node is one.
	if env.Nodes != nil {
		dir := path.Join(snapshot.StageReplicaRoot(e.JobID), snapshot.IntervalDirName(e.Interval))
		for _, h := range env.Nodes() {
			if fsys, err := env.NodeFS(h); err == nil && (alive == nil || alive(h)) && vfs.Exists(fsys, dir) {
				_ = env.Filem.Remove(env.FilemEnv, h, []string{dir})
			}
		}
	}
}

// capturedFromEntry rebuilds the drain input from a journal entry.
// KeepLocal is set: recovery runs on the restart path, and a surviving
// node's sealed local stage is exactly what the restart-from-local
// fast path wants to find. plan (optional) maps an origin node to the
// survivor actually holding its stage share; procs whose origin died
// are redirected to the holder's stage-replica tree.
func capturedFromEntry(e snapshot.JournalEntry, globalDir string, plan map[string]string) *Captured {
	job := &journalJob{entry: e, params: mca.FromMap(e.MCAParams), nodeMap: plan}
	cpt := &Captured{
		Job: job, GlobalDir: globalDir, Interval: e.Interval,
		Opts:    Options{Terminate: e.Terminate, KeepLocal: true},
		ByNode:  make(map[string][]int),
		Results: make(map[int]procResult, len(e.Procs)),
		Began:   e.CapturedAt, StagedBytes: e.StagedBytes,
	}
	for _, p := range e.Procs {
		actual, dir := p.Node, p.Dir
		if h, ok := plan[p.Node]; ok && h != p.Node {
			actual = h
			dir = path.Join(snapshot.StageReplicaBase(e.JobID, e.Interval, p.Node),
				snapshot.LocalDirName(p.Vpid))
		}
		cpt.ByNode[actual] = append(cpt.ByNode[actual], p.Vpid)
		cpt.Results[p.Vpid] = procResult{
			Vpid: p.Vpid, Component: p.Component, Dir: dir,
			QuiesceNS: p.QuiesceNS, CaptureNS: p.CaptureNS,
		}
	}
	return cpt
}

// journalJob is the JobView a recovery re-drain presents to Drain: the
// job is gone, but the journal entry recorded everything the drain
// half of the lifecycle consults. Deliver is never called — the drain
// phase only reads. nodeMap redirects a dead origin node to the stage
// replica's holder.
type journalJob struct {
	entry   snapshot.JournalEntry
	params  *mca.Params
	nodeMap map[string]string
}

func (j *journalJob) JobID() names.JobID { return names.JobID(j.entry.JobID) }
func (j *journalJob) AppName() string    { return j.entry.AppName }
func (j *journalJob) AppArgs() []string  { return j.entry.AppArgs }
func (j *journalJob) NumProcs() int      { return j.entry.NumProcs }
func (j *journalJob) Nodes() []string    { return j.entry.Nodes }
func (j *journalJob) NodeOf(vpid int) string {
	for _, p := range j.entry.Procs {
		if p.Vpid == vpid {
			if h, ok := j.nodeMap[p.Node]; ok {
				return h
			}
			return p.Node
		}
	}
	return ""
}
func (j *journalJob) Checkpointable(int) bool      { return true }
func (j *journalJob) Deliver(int, *ompi.Directive) {}
func (j *journalJob) Params() *mca.Params          { return j.params }

var _ JobView = (*journalJob)(nil)
