package main

import (
	"time"

	"repro/internal/core/snapshot"
)

// perLayer reports the traced pass's layer metrics. Tails and sample
// counts come from the untraced pass plain, whose timings tracing did
// not touch; trace.overhead_pct compares the two passes.
func (s *session) perLayer(plain *session) metrics {
	m := metrics{}
	phase := func(f func(p snapshot.PhaseBreakdown) int64) float64 {
		xs := make([]float64, len(s.phases))
		for i, p := range s.phases {
			xs[i] = float64(f(p)) / 1e6
		}
		return median(xs)
	}
	n := float64(len(s.ckpt))
	perCkpt := func(v float64) float64 { return ratio(v, n) }

	// CRCP: coordination.
	m.set("crcp.quiesce_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.QuiesceWallNS }))
	m.set("crcp.quiesce_sum_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.QuiesceSumNS }))
	// CRS: capture.
	m.set("crs.capture_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.CaptureWallNS }))
	m.set("crs.capture_sum_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.CaptureSumNS }))
	m.set("go.alloc_mib_per_op", "MiB", perCkpt(float64(s.ckptAlloc)/(1<<20)))
	// FILEM and the drain engine: moving bytes to the store.
	m.set("filem.gather_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.GatherNS }))
	var moved int64
	for _, p := range s.phases {
		moved += p.BytesMoved
	}
	m.set("filem.moved_kib_per_ckpt", "KiB", perCkpt(float64(moved)/1024))
	m.set("filem.retries_per_ckpt", "count", perCkpt(float64(s.ckptCounters["ompi_filem_retries_total"])))
	m.set("snapc.drain_wait_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.DrainWaitNS }))
	m.set("snapc.drain_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.DrainNS }))
	// Snapshot commit and the coordinator's own time.
	m.set("snapshot.commit_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.CommitNS }))
	m.set("snapc.total_ms_p50", "ms", phase(func(p snapshot.PhaseBreakdown) int64 { return p.TotalNS }))
	m.set("snapc.unattributed_ms_p50", "ms", median(in(time.Millisecond, s.unattributed)))
	m.set("snapc.aborted_per_ckpt", "count", ratio(float64(s.ckptCounters["ompi_snapc_intervals_aborted_total"]), float64(s.ckptAttempts)))
	m.set("netsim.modelled_ms_per_ckpt", "ms", perCkpt(ms(s.ckptModelled)))
	// The stable store, split by what the traffic is for.
	var writes int64
	var busy time.Duration
	for c, name := range classNames {
		m.set("vfs."+name+"_kib_per_ckpt", "KiB", perCkpt(float64(s.ckptStore[c].WriteBytes)/1024))
		writes += s.ckptStore[c].Writes
		busy += s.ckptStore[c].WriteBusy
	}
	m.set("vfs.writes_per_ckpt", "count", perCkpt(float64(writes)))
	m.set("vfs.write_busy_ms_per_ckpt", "ms", perCkpt(ms(busy)))
	// In-job recovery, per session.
	sessions := float64(s.recovery["ompi_recovery_sessions_total"])
	perSession := func(name string) float64 { return ratio(float64(s.recovery[name]), sessions) }
	m.set("recovery.sessions", "count", sessions)
	m.set("recovery.detect_ms", "ms", perSession("ompi_recovery_detect_ns_total")/1e6)
	m.set("recovery.resolve_ms", "ms", perSession("ompi_recovery_resolve_ns_total")/1e6)
	m.set("recovery.respawn_ms", "ms", perSession("ompi_recovery_respawn_ns_total")/1e6)
	m.set("recovery.reknit_ms", "ms", perSession("ompi_recovery_reknit_ns_total")/1e6)
	m.set("recovery.restored_kib", "KiB", perSession("ompi_recovery_restored_bytes_total")/1024)
	m.set("recovery.fallbacks", "count", float64(s.recovery["ompi_recovery_fallbacks_total"]))
	m.set("recovery.rearm_ms_p50", "ms", median(in(time.Millisecond, s.rearm)))
	m.set("recovery.rearm_n", "count", float64(len(s.rearm)))
	m.set("recovery.rearm_stalls", "count", float64(s.rearmStalls+plain.rearmStalls))
	// Whole-job restart from the store.
	restarts := float64(len(s.restart))
	m.set("runtime.restart_call_ms_p50", "ms", median(in(time.Millisecond, s.restartCall)))
	m.set("runtime.restored_kib_per_restart", "KiB", ratio(float64(s.restartRestored)/1024, restarts))
	m.set("vfs.read_mib_per_restart", "MiB", ratio(float64(s.restartReadBytes)/(1<<20), restarts))
	// The client's failures.
	m.set("client.refusals", "count", float64(s.refusals+plain.refusals))
	m.set("client.stalls", "count", float64(s.stalls+plain.stalls))

	// Tails with their sample counts, from the untraced pass.
	m.set("ckpt_ms_p90", "ms", quantile(in(time.Millisecond, plain.ckpt), 0.9))
	m.set("blocked_ms_p90", "ms", quantile(in(time.Millisecond, plain.blocked), 0.9))
	m.set("ckpt_n", "count", float64(len(plain.ckpt)))
	m.set("mttr_ms_p90", "ms", quantile(in(time.Millisecond, plain.mttr), 0.9))
	m.set("mttr_n", "count", float64(len(plain.mttr)))
	m.set("restart_ms_p90", "ms", quantile(in(time.Millisecond, plain.restart), 0.9))
	m.set("restart_n", "count", float64(len(plain.restart)))
	m.set("rtt_us_p99", "us", quantile(in(time.Microsecond, plain.rtt8), 0.99))
	m.set("rtt_n", "count", float64(len(plain.rtt8)))

	// What tracing costs: the traced pass's checkpoint latency against
	// the untraced pass's.
	m.set("trace.overhead_pct", "%", 100*(median(in(time.Millisecond, s.ckpt))/median(in(time.Millisecond, plain.ckpt))-1))
	return m
}
