package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/trace"
)

// TestObservabilityUnderFaultInjection checkpoints a 16-rank job while
// the fault plan fails a fraction of FILEM transfers (absorbed by the
// retry policy) and a reader goroutine renders the metrics registry
// concurrently — the ompi-ps --watch access pattern. Under -race this
// is the data-race proof for spans, counters and trace events flowing
// from every layer at once. It then checks the whole pipeline end to
// end: each committed interval carries a phase breakdown, the span log
// holds the nested interval/gather/commit and per-rank participate/
// capture regions, and the counters add up.
func TestObservabilityUnderFaultInjection(t *testing.T) {
	const np, intervals = 16, 4
	ins := trace.New()
	params := mca.NewParams()
	params.Set("fault_plan", "seed=7; filem.transfer=p0.1")
	params.Set("filem_retry_max", "6")
	params.Set("filem_retry_backoff", "1ms")
	sys, err := NewSystem(Options{Nodes: 4, SlotsPerNode: 4, Params: params, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	factory, _ := counterFactory(0)
	job, err := sys.Launch(JobSpec{Name: "counter", NP: np, AppFactory: factory})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent metrics scrapes while checkpoints run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ins.RenderMetrics()
				_ = ins.Spans.Spans()
			}
		}
	}()

	committed := 0
	var metas []snapshot.GlobalMeta
	for i := 0; i < intervals; i++ {
		term := i == intervals-1
		res, err := job.Checkpoint(term)
		if err != nil {
			if term {
				t.Fatalf("terminating checkpoint aborted: %v", err)
			}
			continue // aborted by injected faults beyond the retry budget
		}
		committed++
		metas = append(metas, res.Meta)
	}
	close(stop)
	wg.Wait()
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if committed == 0 {
		t.Fatal("no interval committed")
	}

	// Every committed interval carries a sane phase breakdown.
	for _, m := range metas {
		pb := m.Phases
		if pb == nil {
			t.Fatalf("interval %d has no phase breakdown", m.Interval)
		}
		if pb.TotalNS <= 0 || pb.CommitNS <= 0 || pb.CaptureWallNS <= 0 {
			t.Errorf("interval %d phases implausible: %+v", m.Interval, pb)
		}
		if pb.QuiesceSumNS < pb.QuiesceWallNS || pb.CaptureSumNS < pb.CaptureWallNS {
			t.Errorf("interval %d: per-rank sum below wall max: %+v", m.Interval, pb)
		}
		if pb.BytesGathered <= 0 {
			t.Errorf("interval %d gathered no bytes: %+v", m.Interval, pb)
		}
	}

	// The span log holds the nesting: each committed interval has a
	// snapc.interval root with gather and commit children, and every
	// rank recorded a participate span with a capture child.
	roots := make(map[int64]trace.Span) // id -> snapc.interval span
	for _, s := range ins.Spans.ByName("snapc.interval") {
		if s.Err == "" {
			roots[s.ID] = s
		}
	}
	if len(roots) != committed {
		t.Errorf("snapc.interval spans = %d, want %d", len(roots), committed)
	}
	gatherChildren := 0
	for _, s := range ins.Spans.ByName("filem.gather") {
		if _, ok := roots[s.Parent]; ok {
			gatherChildren++
		}
	}
	if gatherChildren != committed {
		t.Errorf("filem.gather spans under interval roots = %d, want %d", gatherChildren, committed)
	}
	commitChildren := 0
	for _, s := range ins.Spans.ByName("snapshot.commit") {
		if _, ok := roots[s.Parent]; ok {
			commitChildren++
		}
	}
	if commitChildren != committed {
		t.Errorf("snapshot.commit spans under interval roots = %d, want %d", commitChildren, committed)
	}
	ranksSeen := make(map[int]bool)
	for _, s := range ins.Spans.ByName("ckpt.participate") {
		if s.Rank >= 0 {
			ranksSeen[s.Rank] = true
		}
	}
	if len(ranksSeen) != np {
		t.Errorf("participate spans cover %d ranks, want %d", len(ranksSeen), np)
	}
	if got := len(ins.Spans.ByName("crs.capture")); got < committed*np {
		t.Errorf("crs.capture spans = %d, want >= %d", got, committed*np)
	}

	// Counters add up across the layers.
	if got := ins.Counter("ompi_snapc_intervals_committed_total").Value(); got != int64(committed) {
		t.Errorf("committed counter = %d, want %d", got, committed)
	}
	if got := ins.Counter("ompi_snapc_intervals_aborted_total").Value(); got != int64(intervals-committed) {
		t.Errorf("aborted counter = %d, want %d", got, intervals-committed)
	}
	if got := ins.Counter("ompi_inc_ft_events_total").Value(); got < int64(committed*np) {
		t.Errorf("ft-event counter = %d, want >= %d", got, committed*np)
	}
	if got := ins.Counter("ompi_filem_bytes_gathered_total").Value(); got <= 0 {
		t.Errorf("bytes-gathered counter = %d, want > 0", got)
	}
	if injected := ins.Counter("ompi_faultsim_injected_total").Value(); injected > 0 {
		if got := ins.Counter("ompi_filem_retries_total").Value(); got <= 0 {
			t.Errorf("faults injected (%d) but retry counter = %d", injected, got)
		}
	}
	// The quiesce histogram saw one observation per rank per attempt.
	if got := ins.Histogram("ompi_crcp_quiesce_stall_seconds", nil).Count(); got < uint64(committed*np) {
		t.Errorf("quiesce histogram count = %d, want >= %d", got, committed*np)
	}

	// And the rendering a tool would scrape names all of them.
	text := ins.RenderMetrics()
	for _, name := range []string{
		"ompi_snapc_intervals_committed_total",
		"ompi_crcp_quiesce_total",
		"ompi_filem_bytes_gathered_total",
		"ompi_span_snapc_interval_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics rendering lacks %s", name)
		}
	}
}
