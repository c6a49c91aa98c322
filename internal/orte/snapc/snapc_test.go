package snapc

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/ompi"
	"repro/internal/orte/filem"
	"repro/internal/orte/names"
	"repro/internal/orte/rml"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// fakeJob is a JobView whose "processes" respond to directives by
// writing a fake image file — coordinator logic can be tested without
// the full MPI stack.
type fakeJob struct {
	id        names.JobID
	np        int
	placement map[int]string
	nodeFS    map[string]*vfs.Mem
	ckptable  []bool
	failRank  int // rank whose participation fails; -1 = none
	delivered []int
	imageBody func(v, interval int) []byte // nil = default per-interval body
	params    map[string]string            // extra MCA params
	mu        sync.Mutex
}

func (j *fakeJob) JobID() names.JobID  { return j.id }
func (j *fakeJob) AppName() string     { return "fake" }
func (j *fakeJob) AppArgs() []string   { return []string{"-x", "1"} }
func (j *fakeJob) NumProcs() int       { return j.np }
func (j *fakeJob) NodeOf(v int) string { return j.placement[v] }
func (j *fakeJob) Params() *mca.Params {
	p := mca.NewParams()
	p.Set("crcp", "bkmrk")
	for k, v := range j.params {
		p.Set(k, v)
	}
	return p
}
func (j *fakeJob) Checkpointable(v int) bool {
	return j.ckptable[v]
}
func (j *fakeJob) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for v := 0; v < j.np; v++ {
		n := j.placement[v]
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func (j *fakeJob) Deliver(v int, d *ompi.Directive) {
	j.mu.Lock()
	j.delivered = append(j.delivered, v)
	j.mu.Unlock()
	go func() {
		res := ompi.ParticipationResult{Rank: v, Component: "simcr"}
		if v == j.failRank {
			res.Err = errors.New("injected participation failure")
		} else {
			body := []byte(fmt.Sprintf("image of rank %d at interval %d", v, d.Interval))
			if j.imageBody != nil {
				body = j.imageBody(v, d.Interval)
			}
			if err := d.FS.WriteFile(path.Join(d.Dir, "process_image.bin"), body); err != nil {
				res.Err = err
			} else {
				res.Files = []string{"process_image.bin"}
			}
		}
		d.Result <- res
	}()
}

// harness wires a fake cluster: router, HNP endpoint, local
// coordinators, FILEM env, stable storage.
type harness struct {
	env     *Env
	hnp     *rml.Endpoint
	daemons map[string]names.Name
	orteds  map[string]*rml.Endpoint
	job     *fakeJob
	stable  *vfs.Mem
	router  *rml.Router
	log     *trace.Log
}

func newHarness(t *testing.T, np int) *harness {
	return newHarnessNodes(t, np, 2)
}

// newHarnessNodes builds a harness with the given node count; rank v
// runs on node n(v mod nnodes).
func newHarnessNodes(t *testing.T, np, nnodes int) *harness {
	t.Helper()
	var nodes []string
	nodeFS := map[string]*vfs.Mem{}
	for i := 0; i < nnodes; i++ {
		name := fmt.Sprintf("n%d", i)
		nodes = append(nodes, name)
		nodeFS[name] = vfs.NewMem()
	}
	stable := vfs.NewMem()
	topo := netsim.NewTopology(netsim.DefaultIngress)
	for _, n := range nodes {
		topo.AddNode(n, netsim.DefaultUplink)
	}
	log := &trace.Log{}
	env := &Env{
		Filem: &filem.RSH{},
		FilemEnv: &filem.Env{
			Resolve: func(node string) (vfs.FS, error) {
				if node == filem.StableNode {
					return stable, nil
				}
				fs, ok := nodeFS[node]
				if !ok {
					return nil, fmt.Errorf("unknown node %q", node)
				}
				return fs, nil
			},
			Topo:  topo,
			Clock: &netsim.Clock{},
			Ins:   trace.WithLogOnly(log),
		},
		Stable: stable,
		NodeFS: func(node string) (vfs.FS, error) {
			fs, ok := nodeFS[node]
			if !ok {
				return nil, fmt.Errorf("unknown node %q", node)
			}
			return fs, nil
		},
		Ins:        trace.WithLogOnly(log),
		AckTimeout: 5 * time.Second,
	}
	placement := make(map[int]string, np)
	ckptable := make([]bool, np)
	for v := 0; v < np; v++ {
		placement[v] = nodes[v%nnodes]
		ckptable[v] = true
	}
	job := &fakeJob{
		id: 7, np: np, placement: placement,
		nodeFS: nodeFS, ckptable: ckptable, failRank: -1,
	}
	router := rml.NewRouter()
	hnp, err := router.Register(names.HNP)
	if err != nil {
		t.Fatal(err)
	}
	daemons := make(map[string]names.Name)
	orteds := make(map[string]*rml.Endpoint)
	for i, n := range nodes {
		dn := names.Daemon(i)
		ep, err := router.Register(dn)
		if err != nil {
			t.Fatal(err)
		}
		daemons[n] = dn
		orteds[n] = ep
		n := n
		knownID := job.id // captured at registration time, like a job table
		go func(ep *rml.Endpoint) {
			_ = (&Full{}).ServeLocal(env, n, ep, func(id names.JobID) (JobView, error) {
				if id != knownID {
					return nil, fmt.Errorf("unknown job %d", id)
				}
				return job, nil
			})
		}(ep)
	}
	t.Cleanup(router.Close)
	return &harness{env: env, hnp: hnp, daemons: daemons, orteds: orteds, job: job, stable: stable, router: router, log: log}
}

// checkpoint runs one synchronous global checkpoint of the harness job:
// Capture, then Drain.
func (h *harness) checkpoint(globalDir string, interval int, opts Options) (Result, error) {
	cpt, err := (&Full{}).Capture(h.env, h.job, h.hnp, h.daemons, globalDir, interval, opts)
	if err != nil {
		return Result{}, err
	}
	return Drain(h.env, cpt)
}

func TestFrameworkHasFull(t *testing.T) {
	f := NewFramework()
	c, err := f.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "full" {
		t.Errorf("default = %q", c.Name())
	}
	if names := f.Names(); len(names) != 1 || names[0] != "full" {
		t.Errorf("components = %v, want only full", names)
	}
}

func TestGlobalCheckpointEndToEnd(t *testing.T) {
	h := newHarness(t, 4)
	res, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if res.Interval != 0 {
		t.Errorf("Interval = %d", res.Interval)
	}
	if res.Meta.NumProcs != 4 || res.Meta.AppName != "fake" {
		t.Errorf("meta = %+v", res.Meta)
	}
	if res.Meta.MCAParams["crcp"] != "bkmrk" {
		t.Errorf("MCAParams = %v (runtime parameters must be recorded)", res.Meta.MCAParams)
	}
	// The global snapshot holds a readable metadata file and every
	// rank's local snapshot with its image and local metadata.
	ref := res.Ref
	meta, err := snapshot.ReadGlobal(ref, 0)
	if err != nil {
		t.Fatalf("ReadGlobal: %v", err)
	}
	for _, pe := range meta.Procs {
		lref := snapshot.LocalRefIn(ref, 0, pe)
		lmeta, err := snapshot.ReadLocal(lref)
		if err != nil {
			t.Fatalf("rank %d local metadata: %v", pe.Vpid, err)
		}
		if lmeta.Component != "simcr" || lmeta.Node != h.job.placement[pe.Vpid] {
			t.Errorf("rank %d local meta = %+v", pe.Vpid, lmeta)
		}
		img, err := lref.FS.ReadFile(path.Join(lref.Dir, "process_image.bin"))
		if err != nil {
			t.Fatalf("rank %d image: %v", pe.Vpid, err)
		}
		want := fmt.Sprintf("image of rank %d at interval 0", pe.Vpid)
		if string(img) != want {
			t.Errorf("rank %d image = %q", pe.Vpid, img)
		}
	}
	// FILEM remove cleaned the node-local copies of this interval.
	for _, nodeFS := range h.job.nodeFS {
		if vfs.Exists(nodeFS, "tmp/ckpt/job7/0") {
			t.Error("node-local snapshot data survived cleanup")
		}
	}
	// Every rank was delivered exactly one directive.
	h.job.mu.Lock()
	defer h.job.mu.Unlock()
	if len(h.job.delivered) != 4 {
		t.Errorf("delivered = %v", h.job.delivered)
	}
	if res.GatherStats.Transfers != 4 || res.GatherStats.Bytes <= 0 {
		t.Errorf("gather stats = %+v", res.GatherStats)
	}
	// The committed interval carries its phase breakdown, both in the
	// returned metadata and re-read from stable storage (where the
	// in-memory copy additionally folds in the commit's rename tail).
	if res.Meta.Phases == nil || res.Meta.Phases.TotalNS <= 0 || res.Meta.Phases.CommitNS <= 0 {
		t.Fatalf("returned meta phases = %+v", res.Meta.Phases)
	}
	if res.Meta.Phases.BytesGathered != res.GatherStats.Bytes {
		t.Errorf("phase bytes = %d, want %d", res.Meta.Phases.BytesGathered, res.GatherStats.Bytes)
	}
	if meta.Phases == nil || meta.Phases.CommitNS <= 0 {
		t.Errorf("persisted meta phases = %+v", meta.Phases)
	}
}

func TestKeepLocalOption(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{KeepLocal: true}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	found := false
	for _, nodeFS := range h.job.nodeFS {
		if vfs.Exists(nodeFS, "tmp/ckpt/job7/0") {
			found = true
		}
	}
	if !found {
		t.Error("KeepLocal did not preserve node-local snapshots")
	}
}

func TestNonCheckpointableFailsAtomically(t *testing.T) {
	h := newHarness(t, 4)
	h.job.ckptable[2] = false
	_, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if !errors.Is(err, ErrNotCheckpointable) {
		t.Fatalf("err = %v, want ErrNotCheckpointable", err)
	}
	// §5.1: no process may be affected.
	h.job.mu.Lock()
	defer h.job.mu.Unlock()
	if len(h.job.delivered) != 0 {
		t.Errorf("directives were delivered despite the refusal: %v", h.job.delivered)
	}
	if vfs.Exists(h.stable, snapshot.GlobalDirName(7)) {
		t.Error("global snapshot dir created despite the refusal")
	}
}

func TestParticipationFailurePropagates(t *testing.T) {
	h := newHarness(t, 4)
	h.job.failRank = 1
	_, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err == nil || !strings.Contains(err.Error(), "injected participation failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

func TestUnknownNodeDaemon(t *testing.T) {
	h := newHarness(t, 2)
	// A job placed on a node with no local coordinator.
	h.job.placement[0] = "ghost"
	_, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err == nil {
		t.Fatal("Checkpoint succeeded with an uncovered node")
	}
}

func TestSequentialIntervals(t *testing.T) {
	h := newHarness(t, 2)
	for iv := 0; iv < 3; iv++ {
		if _, err := h.checkpoint(snapshot.GlobalDirName(7), iv, Options{}); err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
	}
	ref := snapshot.GlobalRef{FS: h.stable, Dir: snapshot.GlobalDirName(7)}
	ivs, err := snapshot.Intervals(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 3 {
		t.Errorf("intervals = %v", ivs)
	}
	latest, err := snapshot.LatestInterval(ref)
	if err != nil || latest != 2 {
		t.Errorf("latest = %d, %v", latest, err)
	}
}

func TestUnknownJobAtLocalCoordinator(t *testing.T) {
	h := newHarness(t, 2)
	h.job.id = 99 // global coordinator asks for job 99; resolver only knows 7
	_, err := h.checkpoint(snapshot.GlobalDirName(99), 0, Options{})
	if err == nil {
		t.Fatal("Checkpoint succeeded for unknown job")
	}
}

// --- the daemon tree ----------------------------------------------------------

// countDeliveries counts, from now on, the RML messages delivered to
// each endpoint of the harness.
func (h *harness) countDeliveries() func(names.Name) int {
	var mu sync.Mutex
	got := map[string]int{}
	h.router.SetInject(func(point string) error {
		mu.Lock()
		got[strings.TrimPrefix(point, "rml.deliver:")]++
		mu.Unlock()
		return nil
	})
	return func(n names.Name) int {
		mu.Lock()
		defer mu.Unlock()
		return got[n.String()]
	}
}

// relaySources lists the sources of the ckpt.tree-relay events.
func relaySources(log *trace.Log) []string {
	var out []string
	for _, e := range log.Events() {
		if e.Kind == "ckpt.tree-relay" {
			out = append(out, e.Source)
		}
	}
	return out
}

func TestHeapSplitReachesEveryNodeOnce(t *testing.T) {
	for _, k := range []int{2, 3, 32} {
		for _, n := range []int{1, 7, 33, 100, 1057} {
			t.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(t *testing.T) {
				root := request{Job: 7, Vpids: map[string][]int{}, Daemons: map[string]names.Name{}}
				for i := 0; i < n; i++ {
					node := fmt.Sprintf("n%d", i)
					root.Below = append(root.Below, node)
					root.Vpids[node] = []int{i, i + n}
					root.Daemons[node] = names.Daemon(i)
				}
				reached := map[string]int{}
				depth := 0
				var walk func(req request, level int)
				walk = func(req request, level int) {
					orders := req.split(k)
					if want := min(k, len(req.Below)); len(orders) != want {
						t.Fatalf("level %d: %d orders for %d nodes below, want %d", level, len(orders), len(req.Below), want)
					}
					for _, o := range orders {
						reached[o.node]++
						depth = max(depth, level+1)
						// The child's request carries its own subtree's rows
						// and nothing else: its own ranks, and the ranks and
						// daemons of the nodes below it.
						if len(o.req.Vpids) != len(o.req.Below)+1 || len(o.req.Daemons) != len(o.req.Below) {
							t.Fatalf("%s: %d vpid rows and %d daemon rows for %d nodes below",
								o.node, len(o.req.Vpids), len(o.req.Daemons), len(o.req.Below))
						}
						for _, node := range append([]string{o.node}, o.req.Below...) {
							if fmt.Sprint(o.req.Vpids[node]) != fmt.Sprint(root.Vpids[node]) {
								t.Fatalf("%s: vpid row of %s = %v, want %v", o.node, node, o.req.Vpids[node], root.Vpids[node])
							}
						}
						for _, node := range o.req.Below {
							if d, ok := o.req.Daemons[node]; !ok || d != root.Daemons[node] {
								t.Fatalf("%s: daemon row of %s = %v (%v)", o.node, node, d, ok)
							}
						}
						walk(o.req, level+1)
					}
				}
				walk(root, 0)
				if len(reached) != n {
					t.Fatalf("reached %d of %d nodes", len(reached), n)
				}
				for node, times := range reached {
					if times != 1 {
						t.Errorf("%s ordered %d times", node, times)
					}
				}
				want, span := 0, 0
				for pow := 1; span < n; want++ {
					pow *= k
					span += pow
				}
				if depth != want {
					t.Errorf("depth = %d, want %d", depth, want)
				}
			})
		}
	}
}

func TestTreeCheckpointAcrossManyNodes(t *testing.T) {
	// 40 nodes: the HNP orders nodes n0..n31, and n0 (vertex 1) relays
	// to n32..n39 (vertices 33..40).
	h := newHarnessNodes(t, 80, 40)
	delivered := h.countDeliveries()
	res, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if res.Meta.NumProcs != 80 || len(res.Meta.Procs) != 80 {
		t.Fatalf("meta = %+v", res.Meta)
	}
	for _, pe := range res.Meta.Procs {
		if _, err := snapshot.ReadLocal(snapshot.LocalRefIn(res.Ref, 0, pe)); err != nil {
			t.Errorf("rank %d: %v", pe.Vpid, err)
		}
	}
	// Every vertex answers the vertex that ordered it, so the HNP's acks
	// count its requests.
	if got := delivered(names.HNP); got != 32 {
		t.Errorf("HNP received %d acks, want 32 (one per request)", got)
	}
	for i := 0; i < 40; i++ {
		want := 1 // the request
		if i == 0 {
			want += 8 // the acks of its children
		}
		if got := delivered(h.daemons[fmt.Sprintf("n%d", i)]); got != want {
			t.Errorf("n%d received %d messages, want %d", i, got, want)
		}
	}
	if src := relaySources(h.log); len(src) != 1 || src[0] != "snapc.local[n0]" {
		t.Errorf("tree-relay sources = %v, want only the interior vertex n0", src)
	}
}

func TestFlatTreeOrdersEveryNodeFromTheHNP(t *testing.T) {
	// Up to 32 nodes every node is a leaf child of the HNP: n requests in
	// one batch, n acks, no relay.
	h := newHarnessNodes(t, 64, 32)
	delivered := h.countDeliveries()
	if _, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := delivered(names.HNP); got != 32 {
		t.Errorf("HNP received %d acks, want 32", got)
	}
	for node, d := range h.daemons {
		if got := delivered(d); got != 1 {
			t.Errorf("%s received %d messages, want its one request", node, got)
		}
	}
	if src := relaySources(h.log); len(src) != 0 {
		t.Errorf("tree-relay sources = %v, want none", src)
	}
	if got := h.log.Count("ckpt.node-done"); got != 32 {
		t.Errorf("node-done events = %d, want 32", got)
	}
}

func TestTreeNonCheckpointableAtomic(t *testing.T) {
	h := newHarnessNodes(t, 80, 40)
	h.job.ckptable[75] = false
	_, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if !errors.Is(err, ErrNotCheckpointable) {
		t.Fatalf("err = %v", err)
	}
	h.job.mu.Lock()
	defer h.job.mu.Unlock()
	if len(h.job.delivered) != 0 {
		t.Errorf("directives delivered despite refusal: %v", h.job.delivered)
	}
}

func TestTreeParticipationFailurePropagates(t *testing.T) {
	h := newHarnessNodes(t, 80, 40)
	h.job.failRank = 75 // on n35, a leaf below the interior vertex n0
	_, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err == nil || !strings.Contains(err.Error(), `rank 75 on "n35": injected participation failure`) {
		t.Fatalf("err = %v, want rank 75's injected failure", err)
	}
}

// assertNoDebris checks that a failed capture left no node-local stage
// and no unread message in any mailbox of the tree.
func assertNoDebris(t *testing.T, h *harness) {
	t.Helper()
	base := snapshot.LocalStageBase(7, 0)
	for node, fsys := range h.job.nodeFS {
		if vfs.Exists(fsys, base) {
			t.Errorf("%s still holds the aborted interval's stage %s", node, base)
		}
	}
	if n := h.hnp.Pending(); n != 0 {
		t.Errorf("HNP mailbox holds %d unread messages", n)
	}
	for node, ep := range h.orteds {
		if n := ep.Pending(); n != 0 {
			t.Errorf("%s mailbox holds %d unread messages", node, n)
		}
	}
}

func TestAbortedIntervalLeavesNoStage(t *testing.T) {
	slowRank := func(slow int) func(v, interval int) []byte {
		return func(v, interval int) []byte {
			if v == slow {
				time.Sleep(50 * time.Millisecond)
			}
			return []byte(fmt.Sprintf("image of rank %d at interval %d", v, interval))
		}
	}
	for _, tc := range []struct {
		name                      string
		np, nodes, failRank, slow int
	}{
		// Rank 0 fails on n0 while rank 1 is still capturing on n1.
		{"flat", 2, 2, 0, 1},
		// Rank 0 fails on the interior vertex n0 while rank 35 is still
		// capturing on n35, a leaf below it.
		{"interior", 40, 40, 0, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarnessNodes(t, tc.np, tc.nodes)
			h.job.failRank = tc.failRank
			h.job.imageBody = slowRank(tc.slow)
			_, err := (&Full{}).Capture(h.env, h.job, h.hnp, h.daemons, snapshot.GlobalDirName(7), 0, Options{})
			if err == nil || !strings.Contains(err.Error(), "injected participation failure") {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			// Give a straggler time to seal its stage and ack. There should
			// be none: Capture returns only after every subtree answered.
			time.Sleep(100 * time.Millisecond)
			assertNoDebris(t, h)
		})
	}
}

func TestUnreachableChildIsNotAwaited(t *testing.T) {
	// n1's local coordinator is gone: the order to it fails at once, and
	// the capture fails as soon as n0 has answered, not at the deadline.
	h := newHarness(t, 4)
	h.router.Deregister(h.daemons["n1"])
	start := time.Now()
	_, err := (&Full{}).Capture(h.env, h.job, h.hnp, h.daemons, snapshot.GlobalDirName(7), 0, Options{})
	if !errors.Is(err, rml.ErrUnknownPeer) {
		t.Fatalf("err = %v, want the unknown peer", err)
	}
	if waited := time.Since(start); waited >= h.env.AckTimeout {
		t.Errorf("capture waited %v, the whole ack deadline", waited)
	}
	if vfs.Exists(h.job.nodeFS["n0"], snapshot.LocalStageBase(7, 0)) {
		t.Error("n0 still holds the aborted interval's stage")
	}
	if n := h.hnp.Pending(); n != 0 {
		t.Errorf("HNP mailbox holds %d unread messages", n)
	}
}
