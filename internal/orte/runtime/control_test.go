package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/orte/plm"
	"repro/internal/trace"
)

func controlFixture(t *testing.T) (*Cluster, *ControlServer, *Job) {
	t.Helper()
	c, err := New(Config{
		Nodes: []plm.NodeSpec{{Name: "n0", Slots: 4}, {Name: "n1", Slots: 4}},
		Ins:   trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv, err := c.ServeControl("", false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	return c, srv, job
}

func TestControlPing(t *testing.T) {
	_, srv, _ := controlFixture(t)
	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Errorf("ping: %+v", resp)
	}
}

func TestControlUnknownOp(t *testing.T) {
	_, srv, _ := controlFixture(t)
	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "reboot"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("resp = %+v", resp)
	}
}

func TestControlPsAndCheckpoint(t *testing.T) {
	c, srv, job := controlFixture(t)
	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "ps"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Jobs) != 1 || resp.Jobs[0].App != "stencil" || resp.Jobs[0].NP != 4 {
		t.Fatalf("ps = %+v", resp)
	}
	if resp.Jobs[0].Done {
		t.Error("job reported done while running")
	}

	// Checkpoint with job 0 = "the only job".
	ck, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint"})
	if err != nil {
		t.Fatal(err)
	}
	if !ck.OK || ck.GlobalRef == "" {
		t.Fatalf("checkpoint = %+v", ck)
	}
	// ps now shows one checkpoint taken.
	resp, err = ControlDial(srv.Addr(), ControlRequest{Op: "ps"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Jobs[0].Ckpts != 1 {
		t.Errorf("ckpts = %d, want 1", resp.Jobs[0].Ckpts)
	}

	// Terminate over the wire.
	ck2, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint", Terminate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ck2.OK || ck2.Interval != 1 {
		t.Fatalf("checkpoint --term = %+v", ck2)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = c
}

func TestControlCheckpointExplicitJob(t *testing.T) {
	_, srv, job := controlFixture(t)
	ck, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint", Job: int(job.JobID()), Terminate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ck.OK {
		t.Fatalf("checkpoint = %+v", ck)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Unknown job id fails.
	bad, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint", Job: 777})
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK {
		t.Error("checkpoint of unknown job succeeded")
	}
}

func TestControlRanksAndMigrate(t *testing.T) {
	_, srv, job := controlFixture(t)
	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "ranks"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Ranks) != 4 {
		t.Fatalf("ranks = %+v", resp)
	}
	for i, r := range resp.Ranks {
		if r.Rank != i || r.Node == "" {
			t.Errorf("rank row %d = %+v", i, r)
		}
		if r.State != string(RankRunning) {
			t.Errorf("rank %d state = %q, want running", i, r.State)
		}
		if r.Interval != -1 {
			t.Errorf("rank %d interval = %d before first checkpoint", i, r.Interval)
		}
	}

	// Migrate without a target node is rejected.
	bad, err := ControlDial(srv.Addr(), ControlRequest{Op: "migrate", Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK || !strings.Contains(bad.Err, "target node") {
		t.Errorf("migrate without node = %+v", bad)
	}
	// Migrate on a job with no recovery handler fails cleanly.
	bad, err = ControlDial(srv.Addr(), ControlRequest{Op: "migrate", Rank: 1, Node: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK || !strings.Contains(bad.Err, "recovery handler") {
		t.Errorf("migrate without handler = %+v", bad)
	}
	ck, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint", Terminate: true})
	if err != nil || !ck.OK {
		t.Fatalf("checkpoint: %v %+v", err, ck)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// After completion the per-rank view reports the final states.
	resp, err = ControlDial(srv.Addr(), ControlRequest{Op: "ranks"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Ranks {
		if r.State != string(RankDone) {
			t.Errorf("rank %d state = %q after completion", r.Rank, r.State)
		}
		if r.Interval != 0 {
			t.Errorf("rank %d interval = %d, want 0", r.Rank, r.Interval)
		}
	}
}

func TestControlSessionRegistration(t *testing.T) {
	c, err := New(Config{
		Nodes: []plm.NodeSpec{{Name: "n0", Slots: 2}},
		Ins:   trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := c.ServeControl("", true)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ResolveSession(os.Getpid())
	if err != nil {
		t.Fatalf("ResolveSession: %v", err)
	}
	if addr != srv.Addr() {
		t.Errorf("session addr = %q, want %q", addr, srv.Addr())
	}
	srv.Close()
	if _, err := ResolveSession(os.Getpid()); err == nil {
		t.Error("session file survived Close")
	}
}

func TestControlDialErrors(t *testing.T) {
	if _, err := ControlDial("127.0.0.1:1", ControlRequest{Op: "ping"}); err == nil {
		t.Error("dial to dead port succeeded")
	}
	if _, err := ResolveSession(-42); err == nil {
		t.Error("ResolveSession of bogus pid succeeded")
	}
}

// A client that connects and then says nothing must not hold a server
// goroutine forever: the control_timeout read deadline kicks in, the
// server answers with a bad-request error (or just closes), and normal
// clients keep being served.
func TestControlSlowClientGetsDeadlined(t *testing.T) {
	params := mca.NewParams()
	params.Set("control_timeout", "100ms")
	c, err := New(Config{
		Nodes:  []plm.NodeSpec{{Name: "n0", Slots: 2}},
		Params: params,
		Ins:    trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := c.ServeControl("", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. Within a few deadline periods the server must give
	// up on us: either an error reply or a plain close, but not a hang.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("server neither replied nor closed the idle conn: %v", err)
	}
	if n > 0 && !strings.Contains(string(buf[:n]), "bad request") {
		t.Errorf("idle conn reply = %q, want a bad-request error", buf[:n])
	}
	// The server is still healthy for well-behaved clients.
	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "ping"})
	if err != nil || !resp.OK {
		t.Fatalf("ping after slow client: %v %+v", err, resp)
	}
}

// ControlDialTimeout against a listener that accepts and never replies
// must fail within the timeout instead of blocking forever.
func TestControlDialTimeoutHangingServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing
		}
	}()
	start := time.Now()
	_, err = ControlDialTimeout(ln.Addr().String(), ControlRequest{Op: "ping"}, 100*time.Millisecond)
	if err == nil {
		t.Fatal("dial to a hanging server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("hung for %v, want prompt failure", elapsed)
	}
}

func TestControlHealthOp(t *testing.T) {
	_, srv, _ := controlFixture(t)
	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "health"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Health == nil {
		t.Fatalf("health = %+v", resp)
	}
	h := resp.Health
	if h.Headless || h.StoreDegraded {
		t.Errorf("fresh cluster health = %+v, want up and store ok", h)
	}
	if len(h.Nodes) != 2 {
		t.Errorf("health nodes = %d, want 2", len(h.Nodes))
	}
	if h.LedgerSeq <= 0 {
		t.Errorf("ledger seq = %d, want >0 after a launch", h.LedgerSeq)
	}
}

// A session file left behind by a crashed mpirun is listed by
// ScanSessions but fails the liveness probe — the classification
// `ompi-run --reattach` uses to tell an adoptable corpse from a live
// coordinator it must refuse to fight.
func TestScanSessionsStaleFileFailsProbe(t *testing.T) {
	if err := os.MkdirAll(SessionDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	const pid = 999999999
	stale := filepath.Join(SessionDir(), "999999999.addr")
	if err := os.WriteFile(stale, []byte("127.0.0.1:1"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(stale)
	sessions, err := ScanSessions()
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := sessions[pid]
	if !ok {
		t.Fatalf("stale session file not listed: %v", sessions)
	}
	if _, err := ControlDialTimeout(addr, ControlRequest{Op: "ping"}, 500*time.Millisecond); err == nil {
		t.Error("probe of a dead session address succeeded")
	}
	// A live server at the same address flips the verdict.
	c, err := New(Config{Nodes: []plm.NodeSpec{{Name: "n0", Slots: 1}}, Ins: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := c.ServeControl("", false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := os.WriteFile(stale, []byte(srv.Addr()), 0o644); err != nil {
		t.Fatal(err)
	}
	sessions, err = ScanSessions()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ControlDialTimeout(sessions[pid], ControlRequest{Op: "ping"}, 2*time.Second)
	if err != nil || !resp.OK {
		t.Errorf("probe of a live session failed: %v %+v", err, resp)
	}
}

var _ = ompi.FuncApp{}

// TestControlLegacyUnversionedRequest speaks the pre-envelope dialect
// raw over the socket: a bare ControlRequest carries no version and
// must be refused with a versioned "bad request" reply, not served.
func TestControlLegacyUnversionedRequest(t *testing.T) {
	_, srv, _ := controlFixture(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"ps"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	body := string(buf)
	if !strings.Contains(body, `"v":1`) || !strings.Contains(body, "bad request") ||
		strings.Contains(body, `"ok":true`) || strings.Contains(body, "stencil") {
		t.Fatalf("unversioned request was not refused: %s", body)
	}
}

// TestControlEnvelopeVersionRejected: a request claiming a future
// protocol version must be refused, not half-parsed.
func TestControlEnvelopeVersionRejected(t *testing.T) {
	_, srv, _ := controlFixture(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"v":99,"op":"ps"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	body := string(buf)
	if !strings.Contains(body, "not supported") {
		t.Fatalf("future-version reply = %s", body)
	}
}

// TestControlJobsAndSchedOps drives the job-scoped ops end to end:
// "jobs" joins ps columns with scheduler state, "sched" sets a weight
// and returns the flow table.
func TestControlJobsAndSchedOps(t *testing.T) {
	c, srv, job := controlFixture(t)
	// One committed checkpoint so the job's lineage exists in the
	// scheduler's history.
	if _, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint"}); err != nil {
		t.Fatal(err)
	}
	c.FlushDrains()

	resp, err := ControlDial(srv.Addr(), ControlRequest{Op: "jobs"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Jobs) != 1 || resp.Jobs[0].App != "stencil" {
		t.Fatalf("jobs = %+v", resp)
	}
	if resp.Jobs[0].Weight < 1 {
		t.Errorf("jobs row missing scheduler weight: %+v", resp.Jobs[0])
	}

	// Filter to a job that does not exist.
	resp, err = ControlDial(srv.Addr(), ControlRequest{Op: "jobs", Job: 999})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "no job") {
		t.Fatalf("jobs --job 999 = %+v", resp)
	}

	// sched with a weight update: the next enqueue for the job uses it,
	// and the reply carries the flow table and worker count.
	resp, err = ControlDial(srv.Addr(), ControlRequest{Op: "sched", Job: int(job.JobID()), Weight: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Sched == nil || resp.Sched.Workers < 1 {
		t.Fatalf("sched = %+v", resp)
	}
	if len(resp.Sched.Flows) != 1 || resp.Sched.Flows[0].ServedCost <= 0 {
		t.Fatalf("sched flows = %+v", resp.Sched.Flows)
	}
	if _, err := ControlDial(srv.Addr(), ControlRequest{Op: "checkpoint"}); err != nil {
		t.Fatal(err)
	}
	c.FlushDrains()
	resp, err = ControlDial(srv.Addr(), ControlRequest{Op: "sched"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Sched.Flows) != 1 || resp.Sched.Flows[0].Weight != 7 {
		t.Fatalf("weight update not applied: %+v", resp.Sched)
	}
}

// fuzzConn is one tool connection's worth of bytes: serveConn reads the
// request from in and writes its reply to out.
type fuzzConn struct {
	net.Conn // the methods serveConn does not call stay nil
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *fuzzConn) Read(b []byte) (int, error)       { return c.in.Read(b) }
func (c *fuzzConn) Write(b []byte) (int, error)      { return c.out.Write(b) }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzControlEnvelope feeds arbitrary bytes to serveConn as a tool's
// request, against a cluster with no job. No input may panic or hang,
// and every reply is one versioned frame: OK, or an error that says
// why not.
func FuzzControlEnvelope(f *testing.F) {
	for _, op := range []string{"ping", "ps", "jobs", "ranks", "migrate", "metrics", "health", "tuner", "sched", "checkpoint"} {
		req := ControlRequest{Op: op, Job: 1, Rank: 2, Node: "n1", Weight: 3, Terminate: op == "checkpoint", Async: true, Wait: true}
		args, _ := json.Marshal(req)
		env, _ := json.Marshal(controlEnvelope{V: ControlVersion, Op: op, Args: args})
		f.Add(env)
	}
	for _, s := range []string{
		``, `{}`, `null`, `{"v":2,"op":"ping"}`, `{"v":0,"op":"ping"}`, `{"v":1}`,
		`{"v":1,"op":"ps","args":"x"}`, `{"v":1,"op":"jobs","args":{"job":-1}}`,
		`{"v":1,"op":"sched","args":{"weight":-5}}`, `{"v":1,"op":"ping"`, `[1,2]`,
	} {
		f.Add([]byte(s))
	}
	c, err := New(Config{Nodes: []plm.NodeSpec{{Name: "n0", Slots: 2}, {Name: "n1", Slots: 2}}, Ins: trace.New()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	srv := &ControlServer{cluster: c, timeout: time.Second}
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &fuzzConn{in: bytes.NewReader(data)}
		srv.serveConn(conn)
		var reply controlReply
		if err := json.Unmarshal(conn.out.Bytes(), &reply); err != nil {
			t.Fatalf("reply %q: %v", conn.out.Bytes(), err)
		}
		if reply.V != ControlVersion || reply.OK == (reply.Err != "") {
			t.Fatalf("reply frame %+v", reply)
		}
	})
}
