// Package runtime is the simulated cluster: virtual nodes with local
// filesystems, one orted (local coordinator) per node, and an HNP
// (mpirun) that launches jobs, serves checkpoint requests and owns the
// stable-storage global snapshots. It stands in for ORTE's daemons and
// TCP out-of-band plane (see DESIGN.md's substitution table) while
// preserving the entity topology and message flow of the paper's
// Figure 1.
package runtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/faultsim"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/opal/crs"
	"repro/internal/orte/cadence"
	"repro/internal/orte/filem"
	"repro/internal/orte/ledger"
	"repro/internal/orte/names"
	"repro/internal/orte/plm"
	"repro/internal/orte/rml"
	"repro/internal/orte/sched"
	"repro/internal/orte/snapc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Node is one virtual machine in the cluster.
type Node struct {
	Name  string
	Slots int
	FS    *vfs.Mem // node-local disk (raw store)

	fs    vfs.FS // runtime view of FS, fault-wrapped when a plan is installed
	alive bool   // guarded by Cluster.mu
}

// Config assembles a Cluster.
type Config struct {
	// Nodes describes the machines; at least one is required.
	Nodes []plm.NodeSpec
	// Stable is the stable storage filesystem. Defaults to an
	// in-memory store (tests); tools pass an OS-backed one so global
	// snapshots survive the simulator process.
	Stable vfs.FS
	// Params are cluster-default MCA parameters.
	Params *mca.Params
	// Ins is the cluster's instrumentation: trace events, metrics and
	// spans from every layer flow into it. Optional.
	Ins *trace.Instrumentation
	// Uplink and Ingress override the modeled link characteristics.
	Uplink  *netsim.Link
	Ingress *netsim.Link
	// Faults optionally installs a deterministic fault-injection plan.
	// When nil, the "fault_plan" MCA parameter is consulted (see
	// faultsim.Parse for the grammar).
	Faults *faultsim.Injector
}

// Cluster is the running simulated machine room plus its runtime.
type Cluster struct {
	cfg    Config
	ins    *trace.Instrumentation
	params *mca.Params

	nodes  map[string]*Node
	order  []string
	topo   *netsim.Topology
	clock  *netsim.Clock
	stable vfs.FS
	faults *faultsim.Injector
	// stageSeq numbers restore staging roots (StageRoot).
	stageSeq atomic.Int64

	router *rml.Router
	hnpEP  *rml.Endpoint
	ns     *names.Service

	// Selected components (runtime-wide; jobs may override via params).
	snapcComp snapc.Component
	filemComp filem.Component
	plmComp   plm.Component
	crsFw     *mca.Framework[crs.Component]
	crcpFw    *mca.Framework[crcp.Component]
	btlFw     *mca.Framework[btl.Component]

	filemEnv *filem.Env
	snapcEnv *snapc.Env
	daemons  map[string]names.Name

	// The heartbeat pump beats for every live orted from its daemon
	// endpoint; Close closes pumpStop to end it.
	daemonEPs map[string]*rml.Endpoint
	pumpStop  chan struct{}

	// led is the HNP's durable job ledger: every control-plane mutation
	// (launches, interval lifecycle, placements, deaths, recovery
	// sessions) is written through so a crashed coordinator can be
	// rebuilt from stable storage. Nil when hnp_ledger=false.
	led *ledger.Ledger

	// Failure-detector cadence, kept so Reattach can restart the
	// monitor with the same parameters the cluster booted with.
	hbInterval time.Duration
	hbMiss     int

	// lastBeat records when the HNP last heard each orted; the health
	// op and the reattach handshake read it.
	hbMu     sync.Mutex
	lastBeat map[string]time.Time

	// tuners mirrors each supervised job's latest cadence-tuner plan
	// (published by core's Supervise) for the control plane to read.
	tunerMu sync.Mutex
	tuners  map[names.JobID]cadence.State

	mu      sync.Mutex
	jobs    map[names.JobID]*Job
	drainer *snapc.Drainer // replaced wholesale by Reattach (guarded by mu)
	// headless is the HNP-crash state: the coordinator endpoint is gone,
	// the failure detector is stopped, and node deaths are deferred to
	// pendingDeaths until Reattach rebuilds the control plane.
	headless      bool
	headlessCause error
	crashedAt     time.Time
	pendingDeaths []string
	// ckptMu orders checkpoint-pipeline work against state surgery:
	// drains and commits hold the read side (different jobs' lineages
	// may drain concurrently under snapc_drain_workers > 1), while
	// scrub, restart and drain recovery take the write side. Capture
	// serialization is per job (Job.capMu), not cluster-wide.
	ckptMu  sync.RWMutex
	stopped bool
	wg      sync.WaitGroup
}

// New builds and starts a cluster: nodes, daemons and frameworks.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("runtime: cluster needs at least one node")
	}
	if cfg.Params == nil {
		cfg.Params = mca.NewParams()
	}
	if cfg.Stable == nil {
		cfg.Stable = vfs.NewMem()
	}
	// Ring-buffer bounds: only an explicitly-set parameter overrides
	// whatever caps the caller's instrumentation already carries
	// (<= 0 means unbounded).
	if cfg.Ins != nil {
		if s := cfg.Params.String("trace_max_events", ""); s != "" {
			cfg.Ins.TraceLog().SetMaxEvents(cfg.Params.Int("trace_max_events", trace.DefaultMaxEvents))
		}
		if s := cfg.Params.String("trace_max_spans", ""); s != "" {
			cfg.Ins.Spans.SetMaxSpans(cfg.Params.Int("trace_max_spans", trace.DefaultMaxSpans))
		}
	}
	// Fault plan: explicit injector wins, else the MCA parameter.
	inj := cfg.Faults
	if inj == nil {
		if spec := cfg.Params.String("fault_plan", ""); spec != "" {
			var err error
			if inj, err = faultsim.Parse(spec); err != nil {
				return nil, fmt.Errorf("runtime: fault_plan: %w", err)
			}
		}
	}
	if inj != nil {
		inj.SetInstr(cfg.Ins)
	}
	c := &Cluster{
		cfg:    cfg,
		ins:    cfg.Ins,
		params: cfg.Params,
		nodes:  make(map[string]*Node),
		stable: faultsim.WrapFS(cfg.Stable, inj, "stable"),
		faults: inj,
		router: rml.NewRouter(),
		ns:     names.NewService(),
		clock:  &netsim.Clock{},
		jobs:   make(map[names.JobID]*Job),
	}

	// Interconnect model.
	ingress := netsim.DefaultIngress
	if cfg.Ingress != nil {
		ingress = *cfg.Ingress
	}
	uplink := netsim.DefaultUplink
	if cfg.Uplink != nil {
		uplink = *cfg.Uplink
	}
	c.topo = netsim.NewTopology(ingress)
	for _, spec := range cfg.Nodes {
		if spec.Name == filem.StableNode {
			return nil, fmt.Errorf("runtime: node name %q is reserved", spec.Name)
		}
		if _, dup := c.nodes[spec.Name]; dup {
			return nil, fmt.Errorf("runtime: duplicate node %q", spec.Name)
		}
		n := &Node{Name: spec.Name, Slots: spec.Slots, FS: vfs.NewMem(), alive: true}
		n.fs = faultsim.WrapFS(n.FS, inj, spec.Name)
		c.nodes[spec.Name] = n
		c.order = append(c.order, spec.Name)
		c.topo.AddNode(spec.Name, uplink)
	}
	if inj != nil {
		c.topo.SetInject(inj.Fire)
		c.router.SetInject(inj.Fire)
		c.router.SetSendInject(inj.Fire)
	}

	// Framework selection (the MCA machinery the whole design rides on).
	var err error
	if c.snapcComp, err = snapc.NewFramework().Select(cfg.Params); err != nil {
		return nil, err
	}
	if c.filemComp, err = filem.NewFramework().Select(cfg.Params); err != nil {
		return nil, err
	}
	if c.plmComp, err = plm.NewFramework().Select(cfg.Params); err != nil {
		return nil, err
	}
	c.crsFw = crs.NewFramework()
	c.crcpFw = crcp.NewFramework()
	c.btlFw = btl.NewFramework()

	// FILEM/SNAPC environments. Retry/timeout knobs are MCA parameters so
	// experiments can sweep them without code changes.
	c.filemEnv = &filem.Env{
		Resolve: c.resolveFS,
		Topo:    c.topo,
		Clock:   c.clock,
		Ins:     c.ins,
		Retry: filem.RetryPolicy{
			Max:     cfg.Params.Int("filem_retry_max", 3),
			Backoff: cfg.Params.Duration("filem_retry_backoff", 2*time.Millisecond),
			Timeout: cfg.Params.Duration("filem_request_timeout", 0),
		},
	}
	if inj != nil {
		c.filemEnv.Inject = inj.Fire
	}
	c.snapcEnv = &snapc.Env{
		Filem:      c.filemComp,
		FilemEnv:   c.filemEnv,
		Stable:     c.stable,
		NodeFS:     c.nodeFS,
		Nodes:      c.AliveNodes,
		Ins:        c.ins,
		AckTimeout: cfg.Params.Duration("snapc_ack_timeout", 0),
	}
	if inj != nil {
		c.snapcEnv.Inject = inj.Fire
	}
	// The durable HNP job ledger (hnp_ledger=false disables it): the
	// crash-safe record Reattach and the cold ompi-run --reattach path
	// rebuild the control plane from.
	if cfg.Params.Bool("hnp_ledger", true) {
		dir := cfg.Params.String("hnp_ledger_dir", ledger.DefaultDir)
		led, _, lerr := ledger.Open(c.stable, dir)
		if lerr != nil {
			return nil, fmt.Errorf("runtime: open HNP ledger: %w", lerr)
		}
		c.led = led
	}
	// The asynchronous drain engine: captures hand their intervals to
	// this queue; its workers drain them under the read side of the
	// checkpoint lock, so commits never interleave with scrub or restart
	// yet different jobs' lineages may drain concurrently. An injected
	// HNP crash mid-drain takes the whole coordinator down with it.
	c.drainer = snapc.NewDrainer(c.snapcEnv, cfg.Params, c.ckptMu.RLocker())
	c.drainer.SetCrashHook(func(err error) { _ = c.CrashHNP(err) })

	// Runtime entities: HNP plus one orted (local coordinator) per node.
	if c.hnpEP, err = c.router.Register(names.HNP); err != nil {
		return nil, err
	}
	hbInterval := cfg.Params.Duration("orted_heartbeat_interval", 15*time.Millisecond)
	hbMiss := cfg.Params.Int("orted_heartbeat_miss", 20)
	c.hbInterval, c.hbMiss = hbInterval, hbMiss
	c.lastBeat = make(map[string]time.Time, len(c.order))
	c.daemons = make(map[string]names.Name, len(c.order))
	c.daemonEPs = make(map[string]*rml.Endpoint, len(c.order))
	c.pumpStop = make(chan struct{})
	for i, nodeName := range c.order {
		dn := names.Daemon(i)
		ep, err := c.router.Register(dn)
		if err != nil {
			return nil, err
		}
		c.daemons[nodeName] = dn
		c.daemonEPs[nodeName] = ep
		c.wg.Add(1)
		go func(nodeName string, ep *rml.Endpoint) {
			defer c.wg.Done()
			if err := c.snapcComp.ServeLocal(c.snapcEnv, nodeName, ep, c.resolveJob); err != nil {
				c.ins.Emit("orted["+nodeName+"]", "orted.error", "%v", err)
			}
		}(nodeName, ep)
	}
	c.wg.Add(2)
	go c.heartbeatPump(hbInterval)
	go c.monitorLoop(c.hnpEP, hbInterval, hbMiss, 0)
	c.ins.Emit("hnp", "cluster.up", "%d nodes", len(c.order))
	return c, nil
}

// ledgerAppend writes one control-plane record through to the durable
// job ledger. While the HNP is headless nothing is written — nobody is
// home to hold the pen — and Reattach reconciles the gap from the
// orteds' surviving state. Append failures (a stable-store outage)
// leave the record buffered in the ledger; Lag surfaces the debt.
func (c *Cluster) ledgerAppend(typ string, job int, payload any) {
	if c.led == nil {
		return
	}
	c.mu.Lock()
	headless := c.headless
	c.mu.Unlock()
	if headless {
		return
	}
	if err := c.led.Append(typ, job, payload); err != nil {
		c.ins.Counter("ompi_hnp_ledger_append_errors_total").Inc()
		c.ins.Emit("hnp", "ledger.lag", "%s buffered: %v", typ, err)
	}
}

// Ledger exposes the HNP's durable job ledger (nil when disabled).
func (c *Cluster) Ledger() *ledger.Ledger { return c.led }

// heartbeatPump is the orteds' liveness beacon, one per cluster. Each
// interval it walks the live orteds in cluster order, fires their
// pending "node.kill:<node>" faults — killing a node abruptly,
// mid-checkpoint or mid-step, wherever the run happens to be — and
// sends the survivors' names to the HNP as one RML message from the
// first survivor's daemon endpoint, the out-of-band channel ORTE
// daemons really keep open. A failed send is not a death: outside a
// headless window it is reported as heartbeat.miss and the pump beats
// again next tick. The HNP's detector owns the death declarations.
func (c *Cluster) heartbeatPump(interval time.Duration) {
	defer c.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.pumpStop:
			return
		case <-tick.C:
		}
		var live []string
		for _, node := range c.AliveNodes() {
			if err := c.faults.Fire("node.kill:" + node); err != nil {
				c.ins.Emit("orted["+node+"]", "node.kill", "injected: %v", err)
				_ = c.KillNode(node)
				continue
			}
			live = append(live, node)
		}
		if len(live) == 0 {
			return // every node is dead; nothing left to beat for
		}
		err := c.daemonEPs[live[0]].SendJSON(names.HNP, rml.TagHeartbeat, live)
		if err == nil {
			continue
		}
		c.mu.Lock()
		stopping, headless := c.stopped, c.headless
		c.mu.Unlock()
		if stopping {
			return
		}
		if !headless {
			c.ins.Emit("orted["+live[0]+"]", "heartbeat.miss", "send failure: %v", err)
		}
	}
}

// detector is the HNP failure detector's state, kept apart from its
// message loop so the rule can be driven with synthetic times.
type detector struct {
	order    []string
	miss     int
	interval time.Duration
	unheard  time.Time            // start+grace: when a node never heard from counts as seen
	seen     map[string]time.Time // when a batch last named each node
	newest   time.Time            // when the newest batch arrived
	declared map[string]bool
}

func newDetector(order []string, miss int, interval, grace time.Duration, start time.Time) *detector {
	return &detector{order: order, miss: max(miss, 1), interval: interval, unheard: start.Add(grace),
		seen: make(map[string]time.Time, len(order)), declared: make(map[string]bool, len(order))}
}

// beat records a batch naming the live nodes, received at t.
func (d *detector) beat(live []string, t time.Time) {
	d.newest = t
	for _, n := range live {
		d.seen[n] = t
	}
}

// lost returns, in cluster order, the nodes to declare lost now: those
// missing from every batch of the miss×interval before the newest one.
// A node not yet heard from counts as seen at start+grace. Time with no
// batch at all charges nobody — a silent pump means a descheduled host,
// not a dead cluster. Each node is returned once.
func (d *detector) lost() []string {
	var out []string
	for _, n := range d.order {
		seen, ok := d.seen[n]
		if !ok {
			seen = d.unheard
		}
		if d.declared[n] || d.newest.Sub(seen) <= time.Duration(d.miss)*d.interval {
			continue
		}
		d.declared[n] = true
		out = append(out, n)
	}
	return out
}

// monitorLoop is the HNP's failure detector: it consumes the pump's
// batches and declares lost the nodes the detector rule names. The
// declaration is what the rest of the runtime keys off — the HNP never
// hears about a death directly, exactly like a real mpirun watching its
// orted connections go quiet.
func (c *Cluster) monitorLoop(ep *rml.Endpoint, interval time.Duration, miss int, grace time.Duration) {
	defer c.wg.Done()
	d := newDetector(c.order, miss, interval, grace, time.Now())
	for {
		var live []string
		if _, err := ep.RecvJSON(rml.TagHeartbeat, &live); err != nil {
			return // endpoint closed: the HNP crashed or the cluster is shutting down
		}
		now := time.Now()
		d.beat(live, now)
		c.hbMu.Lock()
		for _, n := range live {
			c.lastBeat[n] = now
		}
		c.hbMu.Unlock()
		for _, n := range d.lost() {
			c.ins.Emit("hnp", "node.lost", "node %q missed %d heartbeats, declaring it down", n, d.miss)
			_ = c.KillNode(n)
		}
	}
}

// KillNode simulates abrupt node death: the orted vanishes from the RML,
// heartbeats stop, and every running job with ranks on the node aborts
// (its surviving ranks fail in communication, as when mpirun reaps a
// parallel job after losing a process). Idempotent; the node stays dead
// and is excluded from subsequent placements.
func (c *Cluster) KillNode(node string) error {
	c.mu.Lock()
	n, ok := c.nodes[node]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("runtime: unknown node %q", node)
	}
	if !n.alive {
		c.mu.Unlock()
		return nil
	}
	n.alive = false
	headless := c.headless
	if headless {
		c.pendingDeaths = append(c.pendingDeaths, node)
	}
	c.mu.Unlock()
	c.router.Deregister(c.daemons[node])
	if headless {
		// Nobody is watching: the node is dead (its orted vanished, its
		// filesystem is unreachable) but the coordinator-side reaction —
		// recovery sessions, whole-job aborts, the ledger record — waits
		// for Reattach to process the deferred death.
		c.ins.Emit("runtime", "node.down",
			"node %q died while the HNP is down; death deferred to reattach", node)
		return nil
	}
	c.ins.Emit("runtime", "node.down", "node %q is dead", node)
	c.ledgerAppend(ledger.TypeNodeDead, 0, ledger.NodeDead{Node: node})
	c.processNodeDeath(node)
	return nil
}

// processNodeDeath runs the per-job reaction to a node-down
// declaration: a job with a recovery handler survives the loss in-job
// (the handler freezes it, respawns the lost ranks, and re-knits);
// without one, losing a node kills the whole job (pre-recovery
// semantics, and the fallback when recovery itself fails). Split from
// KillNode so Reattach can replay deaths deferred from a headless
// window.
func (c *Cluster) processNodeDeath(node string) {
	c.mu.Lock()
	var victims []*Job
	for _, j := range c.jobs {
		if !j.Done() && j.hasRanksOn(node) {
			victims = append(victims, j)
		}
	}
	c.mu.Unlock()
	for _, j := range victims {
		if j.onNodeDeath(node) {
			continue
		}
		c.ins.Emit("runtime", "job.abort", "job %d lost node %q", j.id, node)
		j.closeFabric()
	}
}

// CrashHNP simulates the coordinator process dying while the orteds and
// the ranks keep running: the HNP endpoint vanishes from the RML (the
// orteds' heartbeats start bouncing, exactly like a dead mpirun's TCP
// connections), the failure detector stops, and the drain engine fails
// its queue. Node-local state — sealed stages, stage replicas, running
// ranks — is untouched; Reattach rebuilds the control plane from the
// durable ledger plus orted re-registration. Idempotent.
func (c *Cluster) CrashHNP(cause error) error {
	c.mu.Lock()
	if c.stopped || c.headless {
		c.mu.Unlock()
		return nil
	}
	// The endpoint goes before headless becomes visible, so a Reattach
	// started the moment Headless reads true finds the HNP name free.
	// monitorLoop exits; heartbeats bounce.
	c.router.Deregister(names.HNP)
	// Dying gasp: the crash marker may or may not land on the ledger;
	// nothing downstream depends on it (Reattach reconstructs from the
	// regular records either way). Written directly, since c.mu is
	// held, and before headless is visible, so it always precedes a
	// reattach record.
	_ = c.led.Append(ledger.TypeHNPCrashed, 0, ledger.CrashEvent{Cause: fmt.Sprint(cause)})
	c.headless = true
	c.headlessCause = cause
	c.crashedAt = time.Now()
	drainer := c.drainer
	c.mu.Unlock()
	drainer.Crash(cause)
	c.ins.Gauge("ompi_hnp_headless").Set(1)
	c.ins.Counter("ompi_hnp_crashes_total").Inc()
	c.ins.Emit("hnp", "hnp.crash", "HNP down: %v", cause)
	return nil
}

// Headless reports whether the HNP is down (crashed and not yet
// reattached). The orteds and ranks keep running; coordinator
// operations fail with snapc.ErrHNPDown.
func (c *Cluster) Headless() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.headless
}

// headlessErr returns the error coordinator entry points fail with
// while the HNP is down, nil otherwise.
func (c *Cluster) headlessErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.headless {
		return fmt.Errorf("runtime: %w", snapc.ErrHNPDown)
	}
	return nil
}

// Alive reports whether the named node is still up.
func (c *Cluster) Alive(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[node]
	return ok && n.alive
}

// AliveNodes returns the surviving node names in declaration order.
func (c *Cluster) AliveNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.order))
	for _, name := range c.order {
		if c.nodes[name].alive {
			out = append(out, name)
		}
	}
	return out
}

// Faults returns the installed fault injector (nil without a plan).
func (c *Cluster) Faults() *faultsim.Injector { return c.faults }

// Close shuts the cluster down: pending drains finish, daemons stop,
// endpoints close.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	drainer := c.drainer
	c.mu.Unlock()
	drainer.Close()
	_ = c.led.Flush() // nil-safe; land any buffered ledger records
	close(c.pumpStop) // once: Close returns early after the first call
	c.router.Close()
	c.wg.Wait()
}

// Drainer exposes the cluster's asynchronous drain engine. Reattach
// replaces the engine wholesale, so callers must not cache the pointer
// across an HNP crash.
func (c *Cluster) Drainer() *snapc.Drainer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainer
}

// FlushDrains blocks until every enqueued interval has drained.
func (c *Cluster) FlushDrains() { c.Drainer().Flush() }

// SetJobDrainWeight sets a job's checkpoint-drain QoS weight: the SFQ
// scheduler grants the job's lineage a weight-proportional share of
// drain bandwidth when multiple jobs checkpoint concurrently. Weights
// below 1 clamp to 1; the setting applies to intervals enqueued after
// the call and survives until the HNP crashes (a reattached drain
// engine starts from the per-job snapc_sched_weight parameters again).
func (c *Cluster) SetJobDrainWeight(id names.JobID, weight int) {
	c.Drainer().SetWeight(snapshot.GlobalDirName(int(id)), weight)
}

// SchedFlows exposes the drain scheduler's per-lineage state for the
// control plane's sched op.
func (c *Cluster) SchedFlows() []sched.FlowState { return c.Drainer().SchedFlows() }

// hnpEndpoint returns the HNP's current RML endpoint (replaced by
// Reattach after a crash).
func (c *Cluster) hnpEndpoint() *rml.Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hnpEP
}

// RecoverDrains resolves a lineage's undrained journal entries against
// this cluster's surviving nodes: fast-forward already-committed
// intervals, re-drain from intact local stages, discard the rest. The
// drain queue must be idle (flush first).
func (c *Cluster) RecoverDrains(globalDir string) (snapc.RecoverReport, error) {
	// Abandon in-memory sub-stable holds first: recovery owns the
	// lineage's CAPTURED entries and re-drains or discards them from the
	// on-disk state alone, exactly as after a crash.
	c.Drainer().DropHeld(globalDir)
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	return c.Drainer().Recover(globalDir, c.Alive)
}

// Nodes returns the node names in declaration order.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// NodeSpecs returns the launch specs of the surviving nodes: dead nodes
// are excluded, so placement (including restart re-placement) only ever
// targets live machines. Each spec carries the node's current Load —
// ranks of still-running jobs placed there — so the loadaware PLM
// component can spread concurrent jobs across the cluster.
func (c *Cluster) NodeSpecs() []plm.NodeSpec {
	c.mu.Lock()
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	out := make([]plm.NodeSpec, 0, len(c.order))
	for _, n := range c.order {
		if !c.nodes[n].alive {
			continue
		}
		out = append(out, plm.NodeSpec{Name: n, Slots: c.nodes[n].Slots})
	}
	c.mu.Unlock()
	load := make(map[string]int)
	for _, j := range jobs {
		if j.Done() {
			continue
		}
		for _, node := range j.Placement() {
			load[node]++
		}
	}
	for i := range out {
		out[i].Load = load[out[i].Name]
	}
	return out
}

// Stable returns the stable-storage filesystem.
func (c *Cluster) Stable() vfs.FS { return c.stable }

// WithCheckpointLock runs fn while holding the global-checkpoint mutex,
// so maintenance passes that rewrite snapshot directories (scrub,
// repair) never interleave with a commit or its replica pushes.
func (c *Cluster) WithCheckpointLock(fn func()) {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	fn()
}

// Clock returns the simulated-network clock.
func (c *Cluster) Clock() *netsim.Clock { return c.clock }

// Log returns the cluster trace event log (may be nil).
func (c *Cluster) Log() *trace.Log { return c.ins.TraceLog() }

// Ins returns the cluster instrumentation (may be nil).
func (c *Cluster) Ins() *trace.Instrumentation { return c.ins }

func (c *Cluster) resolveFS(node string) (vfs.FS, error) {
	if node == filem.StableNode {
		return c.stable, nil
	}
	return c.nodeFS(node)
}

// NodeFS resolves a live node's local filesystem (fault-wrapped when a
// plan is installed). Dead nodes resolve to an error, which is exactly
// what the replica resolver needs: a copy on a dead node is unreadable.
func (c *Cluster) NodeFS(node string) (vfs.FS, error) { return c.nodeFS(node) }

func (c *Cluster) nodeFS(node string) (vfs.FS, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[node]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown node %q", node)
	}
	if !n.alive {
		return nil, fmt.Errorf("runtime: node %q is down", node)
	}
	return n.fs, nil
}

func (c *Cluster) resolveJob(id names.JobID) (snapc.JobView, error) {
	j, err := c.Job(id)
	if err != nil {
		return nil, err // not a typed-nil JobView
	}
	return j, nil
}

// Job returns a running (or finished, not yet forgotten) job by id.
func (c *Cluster) Job(id names.JobID) (*Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown job %d", id)
	}
	return j, nil
}

// JobIDs lists the ids of all known jobs in ascending order (ids are
// allocated sequentially, so the last element is the newest job).
func (c *Cluster) JobIDs() []names.JobID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]names.JobID, 0, len(c.jobs))
	for id := range c.jobs {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
