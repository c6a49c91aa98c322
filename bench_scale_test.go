// A13: control-plane scale. Two benchmarks chart where the PR 9
// batching and scheduling work moves the curves:
//
//	BenchmarkScaleTopology  checkpoint latency and drain throughput vs
//	                        node count (64 -> 4096) through the SNAPC
//	                        daemon tree (arity 32) over batched RML
//	BenchmarkMultiJobQoS    one weighted high-priority job checkpointing
//	                        against a storm of best-effort neighbors
//	                        (1 -> 32 concurrent jobs) through the SFQ
//	                        drain scheduler and a throttled store
//
// Both honor environment caps so CI can run the same code at reduced
// scale: REPRO_A13_MAX_NODES and REPRO_A13_MAX_JOBS clamp the sweep
// axes without changing the per-point measurement.
package repro

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// axisCap clamps a sweep axis from the environment (CI runs the A13
// benches at reduced scale; the measurement per point is unchanged).
func axisCap(env string, def int) int {
	if s := os.Getenv(env); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// pctl returns the p-quantile (0..1) of ms via nearest-rank on a copy.
func pctl(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}

// --- A13a: latency and drain throughput vs node count ----------------------

// BenchmarkScaleTopology checkpoints a one-rank-per-node ring job at 64
// to 4096 nodes. The SNAPC daemon tree has arity 32, so the HNP orders
// 32 nodes and the rest are relayed: two levels up to 1,056 nodes,
// three beyond. One heartbeat pump beats for every node. Reported per
// point: blocking checkpoint latency (ns/op and capture-ms/ckpt) and
// the drain throughput of an async four-interval burst (drain-ckpt/s).
func BenchmarkScaleTopology(b *testing.B) {
	const burst = 4
	maxNodes := axisCap("REPRO_A13_MAX_NODES", 4096)
	for _, nodes := range []int{64, 256, 1024, 4096} {
		if nodes > maxNodes {
			continue
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			params := mca.NewParams()
			params.Set("filem_dedup", "0") // measure full gathers (see bench_test.go header)
			sys, err := core.NewSystem(core.Options{
				Nodes: nodes, SlotsPerNode: 1, Params: params, Ins: trace.New(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			factory, err := apps.Lookup("ring", []string{"-iters", "0"})
			if err != nil {
				b.Fatal(err)
			}
			job, err := sys.Launch(core.JobSpec{Name: "ring", Args: []string{"-iters", "0"}, NP: nodes, AppFactory: factory})
			if err != nil {
				b.Fatal(err)
			}
			var phases snapshot.PhaseBreakdown
			var drainWindow time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Latency: one blocking end-to-end checkpoint.
				res, err := job.Checkpoint(false)
				if err != nil {
					b.Fatal(err)
				}
				phases.Accumulate(res.Meta.Phases)
				// Throughput: an async burst; the window from first
				// capture to last commit is pure pipeline drain time.
				start := time.Now()
				pendings := make([]*core.PendingCheckpoint, 0, burst)
				for k := 0; k < burst; k++ {
					p, err := job.CheckpointAsync(false)
					if err != nil {
						b.Fatal(err)
					}
					pendings = append(pendings, p)
				}
				for _, p := range pendings {
					if _, err := p.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				drainWindow += time.Since(start)
			}
			b.StopTimer()
			reportPhases(b, &phases)
			b.ReportMetric(float64(burst*b.N)/drainWindow.Seconds(), "drain-ckpt/s")
			if _, err := job.Checkpoint(true); err != nil {
				b.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- A13b: multi-job QoS under a checkpoint storm ---------------------------

// BenchmarkMultiJobQoS launches one high-priority job (drain weight 8)
// plus a fleet of best-effort jobs (weight 1), all sharing 16 nodes,
// two drain workers and a bandwidth-throttled stable store. Each round
// measures the priority job's captures twice at identical cluster
// occupancy: once while the other jobs compute but do not checkpoint
// (quiet — the job's solo-checkpointing baseline at that load), then
// while they checkpoint-storm. Reported: quiet p99 capture latency,
// storm p50/p99 capture latency (what the application blocks on) and
// p99 end-to-end interval latency, plus aggregate committed drain
// throughput during the storm. The acceptance bar: storm p99 capture
// stays within 2x the quiet baseline — the storm may queue behind the
// priority job in the scheduler but must not stretch its captures.
func BenchmarkMultiJobQoS(b *testing.B) {
	const (
		np    = 4
		burst = 6        // intervals per job per measured round
		cells = 4096     // ~32 KiB of state per rank
		rate  = 32 << 20 // stable-store write bandwidth: 32 MiB/s
	)
	maxJobs := axisCap("REPRO_A13_MAX_JOBS", 32)
	for _, jobs := range []int{1, 2, 4, 8, 16, 32} {
		if jobs > maxJobs {
			continue
		}
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			params := mca.NewParams()
			params.Set("snapc_drain_workers", "2")
			// Bound simultaneous quiesce/capture fan-outs the same way
			// drains are bounded; weighted-fair, so the priority job
			// admits promptly (DESIGN.md §5f).
			params.Set("snapc_capture_gate", "2")
			params.Set("filem_dedup", "0") // measure full gathers (see bench_test.go header)
			sys, err := core.NewSystem(core.Options{
				Nodes: 16, SlotsPerNode: (jobs*np + 15) / 16, Params: params,
				Stable: vfs.NewThrottle(vfs.NewMem(), rate),
				Ins:    trace.New(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			// Per-step compute is sleep-modeled (see apps.StencilApp.Delay):
			// with up to 128 concurrent ranks, busy-loop stepping would
			// oversubscribe the shared host CPU and the capture percentiles
			// would measure the Go scheduler, not the control plane.
			args := []string{"-steps", "0", "-cells", fmt.Sprint(cells), "-delay", "5ms"}
			factory, err := apps.Lookup("stencil", args)
			if err != nil {
				b.Fatal(err)
			}
			launch := func(name string) *core.Job {
				j, err := sys.Launch(core.JobSpec{Name: name, Args: args, NP: np, AppFactory: factory})
				if err != nil {
					b.Fatal(err)
				}
				return j
			}
			prio := launch("prio")
			prio.SetDrainWeight(8)
			storm := make([]*core.Job, 0, jobs-1)
			for i := 1; i < jobs; i++ {
				storm = append(storm, launch(fmt.Sprintf("storm%d", i)))
			}
			var quietMS, capMS, e2eMS []float64
			var committed int
			var stormDur time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Quiet baseline: same cluster load, no competing
				// checkpoint traffic.
				for k := 0; k < burst; k++ {
					t0 := time.Now()
					p, err := prio.CheckpointAsync(false)
					if err != nil {
						b.Fatal(err)
					}
					quietMS = append(quietMS, time.Since(t0).Seconds()*1e3)
					if _, err := p.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				stormStart := time.Now()
				var wg sync.WaitGroup
				for _, j := range storm {
					wg.Add(1)
					go func(j *core.Job) {
						defer wg.Done()
						pendings := make([]*core.PendingCheckpoint, 0, burst)
						for k := 0; k < burst; k++ {
							p, err := j.CheckpointAsync(false)
							if err != nil {
								b.Error(err)
								return
							}
							pendings = append(pendings, p)
						}
						for _, p := range pendings {
							if _, err := p.Wait(); err != nil {
								b.Error(err)
							}
						}
					}(j)
				}
				// The measured job: capture latency is what the
				// application blocks on; e2e includes the weighted drain.
				for k := 0; k < burst; k++ {
					t0 := time.Now()
					p, err := prio.CheckpointAsync(false)
					if err != nil {
						b.Fatal(err)
					}
					capMS = append(capMS, time.Since(t0).Seconds()*1e3)
					if _, err := p.Wait(); err != nil {
						b.Fatal(err)
					}
					e2eMS = append(e2eMS, time.Since(t0).Seconds()*1e3)
				}
				wg.Wait()
				stormDur += time.Since(stormStart)
				committed += jobs * burst
			}
			b.StopTimer()
			b.ReportMetric(pctl(quietMS, 0.50), "p50-capture-quiet-ms")
			b.ReportMetric(pctl(quietMS, 0.99), "p99-capture-quiet-ms")
			b.ReportMetric(pctl(capMS, 0.50), "p50-capture-ms")
			b.ReportMetric(pctl(capMS, 0.99), "p99-capture-ms")
			b.ReportMetric(pctl(e2eMS, 0.99), "p99-e2e-ms")
			b.ReportMetric(float64(committed)/stormDur.Seconds(), "drain-ckpt/s")
			for _, j := range append([]*core.Job{prio}, storm...) {
				if _, err := j.Checkpoint(true); err != nil {
					b.Fatal(err)
				}
				if err := j.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
