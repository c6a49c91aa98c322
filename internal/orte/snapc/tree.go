package snapc

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/orte/names"
	"repro/internal/orte/rml"
	"repro/internal/trace"
)

// Tree is the hierarchical snapshot coordinator: the alternative
// technique the paper's framework design explicitly anticipates
// ("initiating multiple local checkpoints concurrently in a hierarchal
// tree structure", §5.1). Instead of the HNP messaging every node's
// local coordinator directly, the request descends a k-ary tree of
// daemons and the acknowledgements aggregate back up: the HNP exchanges
// exactly two messages per checkpoint regardless of node count, trading
// fan-out load at the root for tree depth. The arity comes from the
// snapc_tree_fanout parameter (default 2); at 1k+ nodes a wider tree
// (8–16) keeps the depth at 3–4 levels while still bounding any one
// daemon's relay load.
//
// The FILEM aggregation and metadata steps are identical to the full
// component — only the coordination topology changes, which is exactly
// the kind of isolated experiment the MCA decomposition exists for.
type Tree struct{}

// Name implements mca.Component.
func (*Tree) Name() string { return "tree" }

// Priority implements mca.Component; full remains the default.
func (*Tree) Priority() int { return 10 }

// treeRequest descends the daemon tree. Nodes is the ordered list of
// involved nodes (the tree's vertex numbering); each orted finds its own
// index i, relays to children k·i+1 … k·i+k, handles its local ranks,
// and aggregates its subtree's results.
type treeRequest struct {
	Job       int                   `json:"job"`
	Interval  int                   `json:"interval"`
	BaseDir   string                `json:"base_dir"`
	Terminate bool                  `json:"terminate"`
	Nodes     []string              `json:"nodes"`
	Vpids     map[string][]int      `json:"vpids"`      // node -> ranks
	Daemons   map[string]treeDaemon `json:"daemons"`    // node -> daemon RML name
	SelfIndex int                   `json:"self_index"` // receiver's position in Nodes
	Fanout    int                   `json:"fanout"`     // tree arity k (>= 2)
}

// treeDaemon is a daemon RML name in wire form.
type treeDaemon struct {
	Job  int `json:"job"`
	Vpid int `json:"vpid"`
}

func (r *treeRequest) daemonName(node string) (names.Name, bool) {
	d, ok := r.Daemons[node]
	if !ok {
		return names.Name{}, false
	}
	return names.Name{Job: names.JobID(d.Job), Vpid: names.Vpid(d.Vpid)}, true
}

// Checkpoint implements Component: the global coordinator, tree flavor —
// Capture immediately followed by Drain, like full.
func (t *Tree) Checkpoint(env *Env, job JobView, hnp *rml.Endpoint, daemons map[string]names.Name,
	globalDir string, interval int, opts Options) (Result, error) {
	cap, err := t.Capture(env, job, hnp, daemons, globalDir, interval, opts)
	if err != nil {
		return Result{}, err
	}
	return Drain(env, cap)
}

// Capture implements Component: the synchronous phase, tree flavor.
func (t *Tree) Capture(env *Env, job JobView, hnp *rml.Endpoint, daemons map[string]names.Name,
	globalDir string, interval int, opts Options) (*Captured, error) {
	began := time.Now()
	log := env.Ins
	csp := env.Ins.Span("snapc.capture", trace.WithInterval(interval), trace.WithSource("snapc.global"))
	log.Emit("snapc.global", "ckpt.request", "job %d interval %d terminate=%v (tree)", job.JobID(), interval, opts.Terminate)

	byNode, err := ranksByNode(job)
	if err != nil {
		csp.End(err)
		return nil, err
	}
	// Deterministic vertex numbering: the job's stable node order.
	nodes := job.Nodes()
	req := treeRequest{
		Job: int(job.JobID()), Interval: interval,
		BaseDir: snapshot.LocalStageBase(int(job.JobID()), interval), Terminate: opts.Terminate,
		Nodes: nodes, Vpids: byNode,
		Daemons: make(map[string]treeDaemon, len(nodes)),
	}
	for _, n := range nodes {
		dn, ok := daemons[n]
		if !ok {
			err := fmt.Errorf("snapc tree: no local coordinator on node %q", n)
			csp.End(err)
			return nil, err
		}
		req.Daemons[n] = treeDaemon{Job: int(dn.Job), Vpid: int(dn.Vpid)}
	}
	// One message down to the root of the tree...
	rootDaemon, _ := req.daemonName(nodes[0])
	req.SelfIndex = 0
	req.Fanout = job.Params().Int("snapc_tree_fanout", 2)
	if req.Fanout < 2 {
		req.Fanout = 2
	}
	if err := hnp.SendJSON(rootDaemon, rml.TagSnapcRequest, req); err != nil {
		csp.End(err)
		return nil, fmt.Errorf("snapc tree: order root %q: %w", nodes[0], err)
	}
	// ...and one aggregated ack back up, within the request deadline.
	// Acks are matched on (job, interval) so stale reports from aborted
	// intervals are discarded, and any failure aborts the interval
	// atomically (local temporaries and staged data removed).
	deadline := time.Now().Add(ackTimeout(env))
	var ack localAck
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			abortInterval(env, job, byNode, globalDir, interval, fmt.Errorf("deadline exceeded"))
			err := fmt.Errorf("snapc tree: checkpoint interval %d: %w deadline exceeded", interval, errAborted)
			csp.End(err)
			return nil, err
		}
		// Job-matched receive: concurrent captures by other jobs share
		// the HNP mailbox (see Full.Capture).
		m, err := hnp.RecvWhere(rml.TagSnapcAck, ackForJob(job.JobID()), remaining)
		if err != nil {
			abortInterval(env, job, byNode, globalDir, interval, err)
			csp.End(err)
			return nil, fmt.Errorf("snapc tree: waiting for aggregated ack: %w", err)
		}
		if err := json.Unmarshal(m.Data, &ack); err != nil {
			abortInterval(env, job, byNode, globalDir, interval, err)
			csp.End(err)
			return nil, fmt.Errorf("snapc tree: decode ack from %v: %w", m.From, err)
		}
		if ack.Job != int(job.JobID()) || ack.Interval != interval {
			log.Emit("snapc.global", "ckpt.stale-ack", "discarding ack for job %d interval %d (running interval %d)",
				ack.Job, ack.Interval, interval)
			continue
		}
		break
	}
	if ack.Err != "" {
		abortInterval(env, job, byNode, globalDir, interval, errors.New(ack.Err))
		err := fmt.Errorf("snapc tree: %s", ack.Err)
		csp.End(err)
		return nil, err
	}
	results := make(map[int]procResult, job.NumProcs())
	for _, pr := range ack.Results {
		if pr.Err != "" {
			abortInterval(env, job, byNode, globalDir, interval, errors.New(pr.Err))
			err := fmt.Errorf("snapc tree: rank %d: %s", pr.Vpid, pr.Err)
			csp.End(err)
			return nil, err
		}
		results[pr.Vpid] = pr
	}
	if len(results) != job.NumProcs() {
		abortInterval(env, job, byNode, globalDir, interval,
			fmt.Errorf("%d of %d local snapshots reported", len(results), job.NumProcs()))
		err := fmt.Errorf("snapc tree: %d of %d local snapshots reported", len(results), job.NumProcs())
		csp.End(err)
		return nil, err
	}
	log.Emit("snapc.global", "ckpt.node-done", "aggregated ack covers %d procs (tree)", len(results))
	csp.End(nil)
	return newCaptured(job, globalDir, interval, opts, byNode, results, began), nil
}

// ServeLocal implements Component: relay down, handle locally, aggregate
// up. Like Full.ServeLocal, each request runs on its own goroutine so
// concurrent jobs' subtrees interleave on a shared node instead of
// queueing; a subtree handler's child-ack collection matches on
// (child, job, interval), so interleaved aggregations never steal each
// other's traffic.
func (t *Tree) ServeLocal(env *Env, node string, ep *rml.Endpoint, resolve func(names.JobID) (JobView, error)) error {
	full := &Full{} // reuse the per-node checkpoint core
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		var req treeRequest
		from, err := ep.RecvJSON(rml.TagSnapcRequest, &req)
		if err != nil {
			if errors.Is(err, rml.ErrClosed) {
				return nil
			}
			return fmt.Errorf("snapc tree local[%s]: %w", node, err)
		}
		handlers.Add(1)
		go func(from names.Name, req treeRequest) {
			defer handlers.Done()
			ack := t.handleSubtree(env, node, ep, req, full, resolve)
			if err := ep.SendJSON(from, rml.TagSnapcAck, ack); err != nil {
				// Parent (or HNP) vanished mid-interval: same orphaned-ack
				// tolerance as the full component — the subtree's stages
				// are sealed, keep serving for the reattach.
				env.Ins.Counter("ompi_snapc_orphaned_acks_total").Inc()
				env.Ins.Emit("snapc.local["+node+"]", "ckpt.ack-orphaned",
					"interval %d aggregated ack undeliverable: %v", req.Interval, err)
			}
		}(from, req)
	}
}

// handleSubtree relays the request to this vertex's children, runs the
// local checkpoints, and merges the children's aggregated results.
func (t *Tree) handleSubtree(env *Env, node string, ep *rml.Endpoint, req treeRequest,
	full *Full, resolve func(names.JobID) (JobView, error)) localAck {
	ack := localAck{Job: req.Job, Interval: req.Interval, Node: node}
	i := req.SelfIndex
	if i < 0 || i >= len(req.Nodes) || req.Nodes[i] != node {
		ack.Err = fmt.Sprintf("snapc tree: node %q received request for vertex %d (%v)", node, i, req.Nodes)
		return ack
	}
	// Relay to children first so subtrees work concurrently with our
	// own local checkpoints. The relays go out as one batch: an interior
	// vertex of a wide tree orders up to k children at once.
	fanout := req.Fanout
	if fanout < 2 {
		fanout = 2 // requests from older coordinators carry no fanout
	}
	var children []names.Name
	var relays []rml.Outgoing
	for ci := fanout*i + 1; ci <= fanout*i+fanout && ci < len(req.Nodes); ci++ {
		child := req.Nodes[ci]
		dn, ok := req.daemonName(child)
		if !ok {
			ack.Err = fmt.Sprintf("snapc tree: no daemon for child node %q", child)
			return ack
		}
		out, err := rml.JSONOutgoing(dn, rml.TagSnapcRequest, pruneSubtree(req, ci, fanout))
		if err != nil {
			ack.Err = fmt.Sprintf("snapc tree: relay to %q: %v", child, err)
			return ack
		}
		relays = append(relays, out)
		children = append(children, dn)
	}
	if err := ep.SendBatch(relays); err != nil {
		ack.Err = fmt.Sprintf("snapc tree: relay from vertex %d: %v", i, err)
		return ack
	}
	env.Ins.Emit("snapc.local["+node+"]", "ckpt.tree-relay", "vertex %d, %d children", i, len(children))

	// Local checkpoints of this node's ranks (reusing full's core).
	local := full.handleLocal(env, node, localRequest{
		Job: req.Job, Interval: req.Interval,
		Vpids: req.Vpids[node], BaseDir: req.BaseDir, Terminate: req.Terminate,
	}, resolve)
	if local.Err != "" {
		ack.Err = local.Err
		return ack
	}
	ack.Results = append(ack.Results, local.Results...)

	// Aggregate children.
	timeout := env.AckTimeout
	if timeout == 0 {
		timeout = DefaultAckTimeout
	}
	for _, child := range children {
		var cack localAck
		// Match on (sender, job, interval): with concurrent jobs (or a
		// retried interval) traversing the same daemons, a child's ack
		// for another coordination must stay queued for its own
		// aggregator.
		m, err := ep.RecvWhere(rml.TagSnapcAck, func(m rml.Message) bool {
			if m.From != child {
				return false
			}
			var hdr struct {
				Job      int `json:"job"`
				Interval int `json:"interval"`
			}
			if err := json.Unmarshal(m.Data, &hdr); err != nil {
				return true
			}
			return hdr.Job == req.Job && hdr.Interval == req.Interval
		}, timeout)
		if err != nil {
			ack.Err = fmt.Sprintf("snapc tree: waiting for child %v: %v", child, err)
			return ack
		}
		if err := decodeJSON(m.Data, &cack); err != nil {
			ack.Err = err.Error()
			return ack
		}
		if cack.Err != "" {
			ack.Err = cack.Err
			return ack
		}
		ack.Results = append(ack.Results, cack.Results...)
	}
	return ack
}

// pruneSubtree re-roots the request at vertex root: only the subtree's
// nodes, in BFS order, with only their Vpids/Daemons rows. The heap
// numbering is over a complete k-ary tree, and a subtree of a complete
// k-ary tree is itself complete, so BFS relabeling from 0 preserves the
// children-of-j-at-k·j+1…k·j+k arithmetic. Without pruning every relay
// re-serializes the whole cluster's tables and the coordination's total
// payload is O(n²) in node count; pruned it is O(n·depth), which is
// what lets trees deeper than two levels win at 1k+ nodes.
func pruneSubtree(req treeRequest, root, fanout int) treeRequest {
	sub := treeRequest{
		Job: req.Job, Interval: req.Interval, BaseDir: req.BaseDir,
		Terminate: req.Terminate, SelfIndex: 0, Fanout: req.Fanout,
	}
	for queue := []int{root}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		sub.Nodes = append(sub.Nodes, req.Nodes[v])
		for c := fanout*v + 1; c <= fanout*v+fanout && c < len(req.Nodes); c++ {
			queue = append(queue, c)
		}
	}
	sub.Vpids = make(map[string][]int, len(sub.Nodes))
	sub.Daemons = make(map[string]treeDaemon, len(sub.Nodes))
	for _, n := range sub.Nodes {
		if vpids, ok := req.Vpids[n]; ok {
			sub.Vpids[n] = vpids
		}
		if d, ok := req.Daemons[n]; ok {
			sub.Daemons[n] = d
		}
	}
	return sub
}

var _ Component = (*Tree)(nil)

// decodeJSON unwraps an aggregated ack payload.
func decodeJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("snapc tree: bad ack payload: %w", err)
	}
	return nil
}
