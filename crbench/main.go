// Command crbench is the repository's end-to-end checkpoint/restart
// benchmark. One closed-loop client, like an operator's checkpoint
// loop, drives a stencil job through the public core API: a ping-pong
// probe through the C/R-enabled messaging stack, back-to-back
// checkpoints, and kill/recover/restart cycles. A workload fixes the
// job's shape and the share of the run each phase gets. See README.md.
//
// Usage:
//
//	crbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 they are
// the per-layer ones, from a traced pass compared against an untraced
// one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/trace"
)

// workloads are the job shapes a run can measure. README.md gives the
// reasons for each.
var workloads = []workload{
	// Four ranks, not two: in-job recovery needs a majority to survive.
	{name: "pingpong", np: 4, nodes: 6, slots: 1, cells: 64, probe: 0.5, ckpt: 0.2, resil: 0.3},
	// Tiny state: coordination is most of every checkpoint.
	{name: "ckpt-wide", np: 32, nodes: 8, slots: 6, cells: 64, probe: 0.1, ckpt: 0.6, resil: 0.3},
	// 1 MiB per rank on a bandwidth-bound store: bytes set the cost.
	{name: "ckpt-bulk", np: 8, nodes: 4, slots: 4, cells: 131072, storeMiBps: 64, probe: 0.1, ckpt: 0.6, resil: 0.3},
	// One 1 MiB rank per node plus two spare nodes: mostly node loss.
	{name: "recover", np: 8, nodes: 10, slots: 1, cells: 131072, probe: 0.1, ckpt: 0.3, resil: 0.6},
}

// runLimit bounds a whole run, set-up and checks included.
const runLimit = 160 * time.Second

// result is the benchmark's report line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for victims, kill offsets, payloads and oracle samples")
	seconds := flag.Int("seconds", 22, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "crbench: need --workload (%s) and --seconds >= 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// A wedged job must not hold the run past its time limit: a run
	// that has not finished by then fails without a result.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "crbench: %s: run exceeded %v\n", w.name, runLimit)
		os.Exit(1)
	})
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	if !traced {
		s := newSession(w, seed, nil)
		if err := s.run(d); err != nil {
			return result{}, err
		}
		m := s.endToEnd()
		if bad := m.undefined(); len(bad) > 0 {
			return result{}, fmt.Errorf("no samples for %v", bad)
		}
		return s.result(m), nil
	}
	// Per-layer run: an untraced pass and a traced pass of half the
	// budget each, so the cost of tracing is itself a number; then the
	// paired CRCP probe.
	plain := newSession(w, seed, nil)
	if err := plain.run(d / 2); err != nil {
		return result{}, err
	}
	s := newSession(w, seed, trace.New())
	if err := s.run(d / 2); err != nil {
		return result{}, err
	}
	m := s.perLayer(plain)
	if err := pairedProbe(seed, m); err != nil {
		return result{}, err
	}
	// A layer metric without samples (no recovery to re-arm from, say)
	// reads 0; its sample count says why.
	for _, name := range m.undefined() {
		m.set(name, m[name].Unit, 0)
	}
	res := s.result(m)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.correct()
	return res, nil
}

func (s *session) correct() bool {
	return s.oracleErr == nil && s.probeErr == nil && s.oracleChecks > 0
}

func (s *session) result(m metrics) result {
	fmt.Fprintf(os.Stderr, "crbench: %s: %d setups, %d rtt8, %d rtt64k, %d ckpts, %d mttr, %d restarts, %d rearm, %d rearm stalls, %d refusals, %d stalls, %d/%d failed\n",
		s.w.name, len(s.setup), len(s.rtt8), len(s.rtt64k), len(s.ckpt), len(s.mttr), len(s.restart), len(s.rearm), s.rearmStalls, s.refusals, s.stalls, s.failed, s.attempted)
	if s.oracleErr != nil {
		fmt.Fprintf(os.Stderr, "crbench: %v\n", s.oracleErr)
	}
	if s.probeErr != nil {
		fmt.Fprintf(os.Stderr, "crbench: %v\n", s.probeErr)
	}
	return result{Correct: s.correct(), Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// endToEnd reports what a user of the system sees: the median set-up,
// and for every other metric the median over rounds of its per-round
// value. A host that steals CPU for a few seconds slows the rounds it
// overlaps; the median round leaves them out, where a median over the
// pooled samples would shift with them.
func (s *session) endToEnd() metrics {
	m := metrics{}
	m.set("setup_s", "s", median(in(time.Second, s.setup)))
	for name, v := range s.rounds[0] {
		var xs []float64
		for _, r := range s.rounds {
			if x := r[name].Value; !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		m.set(name, v.Unit, median(xs))
	}
	return m
}

// roundMetrics computes the end-to-end metrics, bar set-up, over the
// samples taken since from.
func (s *session) roundMetrics(from mark) metrics {
	m := metrics{}
	m.set("rtt_us_p50", "us", median(in(time.Microsecond, s.rtt8[from.rtt8:])))
	m.set("bw_mib_s", "MiB/s", 2*64.0/1024/median(in(time.Second, s.rtt64k[from.rtt64k:])))
	m.set("ckpt_ms_p50", "ms", median(in(time.Millisecond, s.ckpt[from.ckpt:])))
	m.set("blocked_ms_p50", "ms", median(in(time.Millisecond, s.blocked[from.ckpt:])))
	wall := (s.ckptWall - from.ckptWall).Seconds()
	m.set("ckpt_per_s", "1/s", float64(len(s.ckpt)-from.ckpt)/wall)
	m.set("app_efficiency", "ratio", float64(s.ckptSteps-from.ckptSteps)/float64(s.w.np)*stepDelay.Seconds()/wall)
	m.set("mttr_ms_p50", "ms", median(in(time.Millisecond, s.mttr[from.mttr:])))
	m.set("restart_ms_p50", "ms", median(in(time.Millisecond, s.restart[from.restart:])))
	return m
}
