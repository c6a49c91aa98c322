package runtime

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/orte/cadence"
	"repro/internal/orte/names"
	"repro/internal/orte/sched"
	"repro/internal/orte/snapc"
)

// DefaultControlTimeout bounds control-channel I/O: how long the server
// waits for a request on an accepted connection, and how long the
// client tools wait to connect and to read a reply. A connect-and-hang
// peer (or a wedged mpirun) fails the operation instead of blocking a
// tool forever. The server side is tunable via the "control_timeout"
// MCA parameter.
const DefaultControlTimeout = 30 * time.Second

// The control plane reproduces the paper's asynchronous command-line
// tool path (§4, Fig. 1-A): `ompi-checkpoint PID_MPIRUN` reaches the
// mpirun process from outside, requests a checkpoint of a running job,
// and receives the global snapshot reference — with the option to
// checkpoint-and-terminate for system maintenance.
//
// ompi-run serves a loopback TCP socket and registers its address in a
// per-user session directory keyed by its OS pid, so the tools address
// the job exactly as the paper's tools do.

// ControlVersion is the control protocol version spoken by this build.
// Version 1 frames every exchange in a controlEnvelope; a request
// without a version is refused.
const ControlVersion = 1

// controlEnvelope is the versioned request frame: the op travels in the
// envelope, everything op-specific in Args (a ControlRequest).
type controlEnvelope struct {
	V    int             `json:"v"`
	Op   string          `json:"op"`
	Args json.RawMessage `json:"args,omitempty"`
}

// controlReply is the versioned response frame mirroring the envelope:
// outcome in the frame, op-specific payload (a ControlResponse) in Body.
type controlReply struct {
	V    int             `json:"v"`
	OK   bool            `json:"ok"`
	Err  string          `json:"err,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
}

// ControlRequest is one tool command. Op is "checkpoint", "ps", "jobs",
// "ranks", "migrate", "metrics", "health", "sched" or "ping".
type ControlRequest struct {
	Op        string `json:"op"`
	Job       int    `json:"job,omitempty"` // 0 = the only/first job
	Terminate bool   `json:"terminate,omitempty"`
	// Async runs only the capture phase before replying; the drain
	// happens in the background queue. With Wait also set, the reply
	// waits for the background drain's outcome (still exercising the
	// async engine, unlike the plain synchronous op).
	Async bool `json:"async,omitempty"`
	Wait  bool `json:"wait,omitempty"`
	// Rank and Node parameterize the "migrate" op: move Rank of Job to
	// live node Node through an in-job recovery session.
	Rank int    `json:"rank,omitempty"`
	Node string `json:"node,omitempty"`
	// Weight parameterizes the "sched" op: > 0 sets Job's drain QoS
	// weight before the scheduler snapshot is taken.
	Weight int `json:"weight,omitempty"`
}

// ControlJobInfo describes one job in a "ps" or "jobs" response. The
// scheduler columns (Weight, QueuedDrains) are populated by the "jobs"
// op only.
type ControlJobInfo struct {
	Job   int      `json:"job"`
	App   string   `json:"app"`
	NP    int      `json:"np"`
	Nodes []string `json:"nodes"`
	Done  bool     `json:"done"`
	Ckpts int      `json:"checkpoints"`
	// Weight is the job's drain QoS weight as last seen by the
	// scheduler (0 until the lineage first enqueues a drain).
	Weight int `json:"weight,omitempty"`
	// QueuedDrains counts the job's intervals waiting in the drain
	// scheduler.
	QueuedDrains int `json:"queued_drains,omitempty"`
}

// ControlSchedFlow is one checkpoint lineage's row in a "sched"
// response.
type ControlSchedFlow struct {
	Flow       string `json:"flow"` // global snapshot directory = lineage key
	Weight     int    `json:"weight"`
	Queued     int    `json:"queued"`
	Busy       bool   `json:"busy"`
	ServedCost int64  `json:"served_cost"`
	QueuedCost int64  `json:"queued_cost"`
}

// ControlSched is the "sched" op's payload: the drain scheduler's
// worker pool size and per-lineage SFQ state.
type ControlSched struct {
	Workers int                `json:"workers"`
	Flows   []ControlSchedFlow `json:"flows,omitempty"`
}

// ControlRankInfo is one rank's row in a "ranks" response: where it
// runs, its lifecycle state, the last checkpoint interval it took part
// in (-1 before the first), and where its current incarnation's state
// came from.
type ControlRankInfo struct {
	Rank     int    `json:"rank"`
	Node     string `json:"node"`
	State    string `json:"state"`
	Interval int    `json:"interval"`
	Source   string `json:"source"`
}

// ControlResponse is the reply to one ControlRequest.
type ControlResponse struct {
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	GlobalRef string `json:"global_ref,omitempty"`
	Interval  int    `json:"interval,omitempty"`
	// State reports the interval's drain-lifecycle position at reply
	// time: "committed" for completed checkpoints, "queued" for an
	// async request that returned at capture end.
	State string            `json:"state,omitempty"`
	Jobs  []ControlJobInfo  `json:"jobs,omitempty"`
	Ranks []ControlRankInfo `json:"ranks,omitempty"`
	// Metrics is the Prometheus-text rendering of the cluster's metrics
	// registry (the "metrics" op): the HNP's /metrics endpoint, served
	// over the control channel instead of HTTP.
	Metrics string `json:"metrics,omitempty"`
	// Health is the "health" op's payload.
	Health *ControlHealth `json:"health,omitempty"`
	// Sched is the "sched" op's payload.
	Sched *ControlSched `json:"sched,omitempty"`
	// Tuner is the "tuner" op's payload: the job's cadence-tuner plan.
	Tuner *ControlTuner `json:"tuner,omitempty"`
}

// ControlTunerLevel is one checkpoint level's row in a "tuner"
// response. Durations are nanoseconds (time.Duration wire form).
type ControlTunerLevel struct {
	Level      int    `json:"level"`
	Label      string `json:"label"`
	IntervalNS int64  `json:"interval_ns"`
	CostNS     int64  `json:"cost_ns"`
	MTBFNS     int64  `json:"mtbf_ns"`
	Failures   int    `json:"failures"`
	Retunes    int    `json:"retunes"`
	Suppressed int    `json:"suppressed"`
}

// ControlTuner is the wire form of a supervised job's Young/Daly
// cadence-tuner state (ompi-ps --tuner).
type ControlTuner struct {
	Auto   bool                `json:"auto"`
	Levels []ControlTunerLevel `json:"levels,omitempty"`
}

// ControlNodeHealth is one node's failure-detector row in a "health"
// response. LastBeatMs is the age of the last heard heartbeat in
// milliseconds; -1 means never heard this HNP incarnation.
type ControlNodeHealth struct {
	Node       string `json:"node"`
	Alive      bool   `json:"alive"`
	LastBeatMs int64  `json:"last_beat_ms"`
}

// ControlHealth is the wire form of the HNP's health view: headless
// state, stable-store degradation, drain backlog, ledger durability
// lag, and per-node failure-detector freshness.
type ControlHealth struct {
	Headless          bool                `json:"headless"`
	StoreDegraded     bool                `json:"store_degraded"`
	OutageScore       int                 `json:"outage_score"`
	ParkedIntervals   int                 `json:"parked_intervals"`
	JournalBacklog    int                 `json:"journal_backlog"`
	DrainQueueDepth   int                 `json:"drain_queue_depth"`
	LedgerSeq         int                 `json:"ledger_seq"`
	LedgerLag         int                 `json:"ledger_lag"`
	LedgerFlushErrors int                 `json:"ledger_flush_errors"`
	Nodes             []ControlNodeHealth `json:"nodes,omitempty"`
}

// ControlServer accepts tool connections for a cluster.
type ControlServer struct {
	cluster *Cluster
	ln      net.Listener
	wg      sync.WaitGroup
	session string        // session file path, removed on Close
	timeout time.Duration // per-connection request-read / reply-write bound
}

// SessionDir is where running ompi-run instances register their control
// addresses, keyed by OS pid.
func SessionDir() string {
	return filepath.Join(os.TempDir(), "ompi-go-sessions")
}

// SessionFile returns the session file path for an mpirun OS pid.
func SessionFile(pid int) string {
	return filepath.Join(SessionDir(), strconv.Itoa(pid)+".addr")
}

// ServeControl starts the control server on a loopback address
// ("127.0.0.1:0" picks a free port) and registers the session file for
// this process's pid. Pass register=false to skip registration (tests).
func (c *Cluster) ServeControl(addr string, register bool) (*ControlServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runtime: control listen: %w", err)
	}
	s := &ControlServer{
		cluster: c,
		ln:      ln,
		timeout: c.params.Duration("control_timeout", DefaultControlTimeout),
	}
	if register {
		if err := os.MkdirAll(SessionDir(), 0o755); err != nil {
			ln.Close()
			return nil, fmt.Errorf("runtime: session dir: %w", err)
		}
		s.session = SessionFile(os.Getpid())
		if err := os.WriteFile(s.session, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return nil, fmt.Errorf("runtime: session file: %w", err)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	c.ins.Emit("hnp", "control.up", "%s", ln.Addr())
	return s, nil
}

// Addr returns the bound control address.
func (s *ControlServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and removes the session file.
func (s *ControlServer) Close() {
	s.ln.Close()
	if s.session != "" {
		os.Remove(s.session)
	}
	s.wg.Wait()
}

func (s *ControlServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one tool connection: one JSON request, one reply.
// The request read is deadline-bounded so a connect-and-hang peer can't
// pin an accept slot forever; the reply write is bounded the same way.
// The handler itself (a synchronous checkpoint, say) is not bounded —
// only the wire I/O is.
//
// Every request is a versioned controlEnvelope and every reply a
// controlReply.
func (s *ControlServer) serveConn(conn net.Conn) {
	var env controlEnvelope
	_ = conn.SetReadDeadline(time.Now().Add(s.timeout))
	err := json.NewDecoder(bufio.NewReader(conn)).Decode(&env)
	_ = conn.SetReadDeadline(time.Time{})
	var req ControlRequest
	switch {
	case err != nil:
	case env.V <= 0:
		err = fmt.Errorf("no control version (this build speaks %d)", ControlVersion)
	case env.V > ControlVersion:
		err = fmt.Errorf("control version %d not supported (max %d)", env.V, ControlVersion)
	case len(env.Args) > 0:
		err = json.Unmarshal(env.Args, &req)
	}
	req.Op = env.Op

	var resp ControlResponse
	if err != nil {
		resp = ControlResponse{Err: fmt.Sprintf("bad request: %v", err)}
	} else {
		resp = s.handle(req)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(s.timeout))
	body, _ := json.Marshal(resp) // nil on failure: the frame still carries OK and Err
	_ = json.NewEncoder(conn).Encode(controlReply{V: ControlVersion, OK: resp.OK, Err: resp.Err, Body: body})
}

func (s *ControlServer) handle(req ControlRequest) ControlResponse {
	switch req.Op {
	case "ping":
		return ControlResponse{OK: true}
	case "ps":
		var out []ControlJobInfo
		for _, id := range s.cluster.JobIDs() {
			j, err := s.cluster.Job(id)
			if err != nil {
				continue
			}
			j.mu.Lock()
			interval := j.nextInterval
			j.mu.Unlock()
			out = append(out, ControlJobInfo{
				Job: int(id), App: j.spec.Name, NP: j.spec.NP,
				Nodes: j.Nodes(), Done: j.Done(), Ckpts: interval,
			})
		}
		return ControlResponse{OK: true, Jobs: out}
	case "jobs":
		// The job-scoped view: "ps" columns joined with the drain
		// scheduler's per-lineage state. --job filters to one job.
		flows := make(map[string]sched.FlowState)
		for _, f := range s.cluster.SchedFlows() {
			flows[f.Key] = f
		}
		var out []ControlJobInfo
		for _, id := range s.cluster.JobIDs() {
			if req.Job != 0 && int(id) != req.Job {
				continue
			}
			j, err := s.cluster.Job(id)
			if err != nil {
				continue
			}
			j.mu.Lock()
			interval := j.nextInterval
			j.mu.Unlock()
			info := ControlJobInfo{
				Job: int(id), App: j.spec.Name, NP: j.spec.NP,
				Nodes: j.Nodes(), Done: j.Done(), Ckpts: interval,
			}
			if f, ok := flows[snapshot.GlobalDirName(int(id))]; ok {
				info.Weight = f.Weight
				info.QueuedDrains = f.Queued
			}
			out = append(out, info)
		}
		if req.Job != 0 && len(out) == 0 {
			return ControlResponse{Err: fmt.Sprintf("no job %d", req.Job)}
		}
		return ControlResponse{OK: true, Jobs: out}
	case "sched":
		if req.Weight > 0 {
			id, err := s.resolveJobID(req.Job)
			if err != nil {
				return ControlResponse{Err: err.Error()}
			}
			if _, err := s.cluster.Job(id); err != nil {
				return ControlResponse{Err: err.Error()}
			}
			s.cluster.SetJobDrainWeight(id, req.Weight)
		}
		out := &ControlSched{Workers: s.cluster.Drainer().Workers()}
		for _, f := range s.cluster.SchedFlows() {
			out.Flows = append(out.Flows, ControlSchedFlow{
				Flow: f.Key, Weight: f.Weight, Queued: f.Queued, Busy: f.Busy,
				ServedCost: f.ServedCost, QueuedCost: f.QueuedCost,
			})
		}
		return ControlResponse{OK: true, Sched: out}
	case "ranks":
		id, err := s.resolveJobID(req.Job)
		if err != nil {
			return ControlResponse{Err: err.Error()}
		}
		j, err := s.cluster.Job(id)
		if err != nil {
			return ControlResponse{Err: err.Error()}
		}
		var rows []ControlRankInfo
		for _, ri := range j.RankTable() {
			rows = append(rows, ControlRankInfo{
				Rank: ri.Rank, Node: ri.Node, State: string(ri.State),
				Interval: ri.Interval, Source: ri.Source,
			})
		}
		return ControlResponse{OK: true, Ranks: rows}
	case "migrate":
		id, err := s.resolveJobID(req.Job)
		if err != nil {
			return ControlResponse{Err: err.Error()}
		}
		if req.Node == "" {
			return ControlResponse{Err: "migrate needs a target node"}
		}
		if err := s.cluster.MigrateRank(id, req.Rank, req.Node); err != nil {
			return ControlResponse{Err: err.Error()}
		}
		return ControlResponse{OK: true}
	case "metrics":
		return ControlResponse{OK: true, Metrics: s.cluster.ins.RenderMetrics()}
	case "health":
		h := s.cluster.Health()
		out := &ControlHealth{
			Headless:          h.Headless,
			StoreDegraded:     h.Store.Degraded,
			OutageScore:       h.Store.OutageScore,
			ParkedIntervals:   h.Store.Parked,
			JournalBacklog:    h.Store.JournalBacklog,
			DrainQueueDepth:   h.Store.QueueDepth,
			LedgerSeq:         h.LedgerSeq,
			LedgerLag:         h.LedgerLag,
			LedgerFlushErrors: h.LedgerFlushErrors,
		}
		for _, n := range h.Nodes {
			ms := int64(-1)
			if n.SinceBeat >= 0 {
				ms = n.SinceBeat.Milliseconds()
			}
			out.Nodes = append(out.Nodes, ControlNodeHealth{
				Node: n.Node, Alive: n.Alive, LastBeatMs: ms,
			})
		}
		return ControlResponse{OK: true, Health: out}
	case "tuner":
		id, err := s.resolveJobID(req.Job)
		if err != nil {
			return ControlResponse{Err: err.Error()}
		}
		st, ok := s.cluster.TunerState(id)
		if !ok {
			return ControlResponse{Err: fmt.Sprintf("job %d publishes no cadence tuner (supervise with --levels)", id)}
		}
		out := &ControlTuner{Auto: st.Auto}
		for _, lp := range st.Levels {
			out.Levels = append(out.Levels, ControlTunerLevel{
				Level:      lp.Level,
				Label:      cadence.LevelName(lp.Level),
				IntervalNS: int64(lp.Interval),
				CostNS:     int64(lp.Cost),
				MTBFNS:     int64(lp.MTBF),
				Failures:   lp.Failures,
				Retunes:    lp.Retunes,
				Suppressed: lp.Suppressed,
			})
		}
		return ControlResponse{OK: true, Tuner: out}
	case "checkpoint":
		id, err := s.resolveJobID(req.Job)
		if err != nil {
			return ControlResponse{Err: err.Error()}
		}
		// A synchronous request is the asynchronous one awaited.
		p, err := s.cluster.CheckpointJobAsync(id, snapc.Options{Terminate: req.Terminate})
		if err != nil {
			return ControlResponse{Err: err.Error()}
		}
		if req.Async && !req.Wait {
			// Capture done, drain queued: the tool returns while the
			// gather/commit proceeds in the background.
			return ControlResponse{OK: true, Interval: p.Interval, State: "queued"}
		}
		res, err := p.Wait()
		if err != nil {
			return ControlResponse{Err: err.Error(), Interval: p.Interval}
		}
		return ControlResponse{OK: true, GlobalRef: res.Ref.Dir, Interval: res.Interval, State: "committed"}
	default:
		return ControlResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// resolveJobID maps the tool's job argument (0 = "the job") to an id.
func (s *ControlServer) resolveJobID(arg int) (names.JobID, error) {
	if arg != 0 {
		return names.JobID(arg), nil
	}
	ids := s.cluster.JobIDs()
	switch len(ids) {
	case 0:
		return 0, fmt.Errorf("no jobs running")
	case 1:
		return ids[0], nil
	default:
		return 0, fmt.Errorf("%d jobs running; specify one with --job", len(ids))
	}
}

// ControlDial sends one request to a control address and returns the
// response; the client half used by the tools. I/O is bounded by
// DefaultControlTimeout — use ControlDialTimeout for long-running ops
// (a synchronous checkpoint of a large job can legitimately exceed it).
func ControlDial(addr string, req ControlRequest) (ControlResponse, error) {
	return ControlDialTimeout(addr, req, DefaultControlTimeout)
}

// ControlDialTimeout is ControlDial with an explicit bound covering the
// connect, the request write, and the response read. A dead or wedged
// mpirun fails the call instead of hanging the tool. timeout <= 0 means
// unbounded (connect still uses DefaultControlTimeout).
//
// The request goes out framed in the versioned envelope, and the reply
// must come back framed the same way.
func ControlDialTimeout(addr string, req ControlRequest, timeout time.Duration) (ControlResponse, error) {
	connectTO := timeout
	if connectTO <= 0 {
		connectTO = DefaultControlTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, connectTO)
	if err != nil {
		return ControlResponse{}, fmt.Errorf("runtime: dial mpirun control %s: %w", addr, err)
	}
	defer conn.Close()
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	args, err := json.Marshal(req)
	if err != nil {
		return ControlResponse{}, fmt.Errorf("runtime: encode control request: %w", err)
	}
	env := controlEnvelope{V: ControlVersion, Op: req.Op, Args: args}
	if err := json.NewEncoder(conn).Encode(env); err != nil {
		return ControlResponse{}, fmt.Errorf("runtime: send control request: %w", err)
	}
	var reply controlReply
	if err := json.NewDecoder(conn).Decode(&reply); err != nil {
		return ControlResponse{}, fmt.Errorf("runtime: read control response: %w", err)
	}
	if reply.V <= 0 {
		return ControlResponse{}, fmt.Errorf("runtime: control reply carries no version")
	}
	var resp ControlResponse
	if len(reply.Body) > 0 {
		if err := json.Unmarshal(reply.Body, &resp); err != nil {
			return ControlResponse{}, fmt.Errorf("runtime: decode control reply body: %w", err)
		}
	}
	resp.OK, resp.Err = reply.OK, reply.Err
	return resp, nil
}

// ResolveSession reads the control address registered by the mpirun
// with the given OS pid.
func ResolveSession(pid int) (string, error) {
	data, err := os.ReadFile(SessionFile(pid))
	if err != nil {
		return "", fmt.Errorf("runtime: no mpirun session for pid %d: %w", pid, err)
	}
	return string(data), nil
}

// ScanSessions lists every registered mpirun session: pid → control
// address. Stale files from crashed mpiruns are included — callers
// probe each address (a short-timeout ping) to tell live from dead.
// A missing session directory is an empty map, not an error.
func ScanSessions() (map[int]string, error) {
	entries, err := os.ReadDir(SessionDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return map[int]string{}, nil
		}
		return nil, fmt.Errorf("runtime: scan sessions: %w", err)
	}
	out := make(map[int]string, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".addr") {
			continue
		}
		pid, err := strconv.Atoi(strings.TrimSuffix(name, ".addr"))
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(SessionDir(), name))
		if err != nil {
			continue
		}
		out[pid] = string(data)
	}
	return out, nil
}
