// Multilevel supervision (DESIGN.md §5g): the supervise-loop side of
// the L1/L2/L3 checkpoint-level split, with a self-tuning Young/Daly
// cadence per level.
//
// Each level runs its own ticker: L1 seals a fresh interval node-local
// (cheap, frequent), L2 promotes the newest hold onto peer-node stage
// replicas (medium), L3 commits to stable storage (expensive, rare).
// With Levels.Auto the cadences are re-planned online from each level's
// EWMA-smoothed cost and the failure classes it protects against —
// node kills for L1/L2, stable-store outages for L3 — using the
// Young/Daly optimum sqrt(2·δ·MTBF) with hysteresis (see orte/cadence).
package core

import (
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/ompi"
	"repro/internal/orte/cadence"
	"repro/internal/orte/snapc"
)

// DefaultReplan is the auto tuner's re-planning period when
// Levels.Replan is unset.
const DefaultReplan = 100 * time.Millisecond

// Levels configures multilevel checkpointing for Supervise. The zero
// value disables it (Supervise checkpoints at one level, as ever);
// setting any cadence — or Auto — starts the level engine, which is
// typically used instead of CheckpointEvery, not alongside it.
type Levels struct {
	// L1, L2 and L3 are fixed per-level cadences: every L1 tick seals a
	// fresh interval node-local, every L2 tick promotes the newest hold
	// onto peer-node stage replicas, every L3 tick commits the newest
	// hold to stable storage (or takes a full checkpoint when nothing is
	// held). A zero duration disables that level's ticker.
	L1, L2, L3 time.Duration
	// Auto derives all three cadences online with the Young/Daly tuner
	// instead of fixed tickers: per level, interval = sqrt(2·δ·MTBF)
	// from the EWMA cost δ and the observed failure rate of the classes
	// that level protects against. Non-zero L1/L2/L3 values seed the
	// tuner's starting cadences.
	Auto bool
	// Replan is the auto tuner's re-planning period (DefaultReplan when
	// unset). Ignored without Auto.
	Replan time.Duration
	// Tuning bounds the tuner: Min/Max interval clamps, hysteresis
	// band, EWMA weight. The zero value uses the cadence defaults.
	Tuning cadence.Config
}

// enabled reports whether the level engine should run at all.
func (l Levels) enabled() bool { return l.Auto || l.L1 > 0 || l.L2 > 0 || l.L3 > 0 }

// levelSup is one supervised lineage's level engine. The tuner outlives
// incarnations — a restart keeps the cost and cadence estimates — while
// run is re-entered per incarnation with its job handle.
type levelSup struct {
	sys   *System
	tuner *cadence.Tuner
	start time.Time // supervision epoch, the failure-rate window
	opts  SuperviseOptions
	rep   *SuperviseReport
	mu    *sync.Mutex
}

// newLevelSup builds the engine and seeds the tuner from the fixed
// cadences (the starting point hysteresis measures against).
func newLevelSup(s *System, opts SuperviseOptions, rep *SuperviseReport, mu *sync.Mutex) *levelSup {
	lv := opts.Levels
	tn := cadence.New(lv.Tuning)
	tn.SetAuto(lv.Auto)
	for level, iv := range map[int]time.Duration{cadence.L1: lv.L1, cadence.L2: lv.L2, cadence.L3: lv.L3} {
		if iv > 0 {
			tn.SetInterval(level, iv)
		}
	}
	return &levelSup{
		sys: s, tuner: tn, start: time.Now(),
		opts: opts, rep: rep, mu: mu,
	}
}

// run drives one incarnation's level tickers until the incarnation
// stops. Auto mode re-plans on its own ticker and resets any level
// whose cadence the tuner retuned.
func (ls *levelSup) run(job *Job, stop <-chan struct{}) {
	lv := ls.opts.Levels
	if lv.Auto {
		// Initial plan: with no failures observed the tuner plans
		// against its Laplace prior — tight cadences at first, relaxing
		// as sqrt(elapsed) while the run stays clean — so a cold start
		// is protected before the first fault ever lands.
		ls.replan(job)
	}
	var tick [cadence.NumLevels]*time.Ticker
	var ch [cadence.NumLevels]<-chan time.Time
	for i := 0; i < cadence.NumLevels; i++ {
		if iv := ls.tuner.Interval(i + 1); iv > 0 {
			tick[i] = time.NewTicker(iv)
			ch[i] = tick[i].C
			defer tick[i].Stop()
		}
	}
	var replanC <-chan time.Time
	if lv.Auto {
		replan := lv.Replan
		if replan <= 0 {
			replan = DefaultReplan
		}
		rt := time.NewTicker(replan)
		defer rt.Stop()
		replanC = rt.C
	}
	ls.sys.cluster.SetTunerState(job.JobID(), ls.tuner.State())
	for {
		select {
		case <-stop:
			return
		case <-ch[cadence.L1-1]:
			if job.Done() {
				return
			}
			ls.seal(job, snapshot.LevelLocal)
		case <-ch[cadence.L2-1]:
			if job.Done() {
				return
			}
			ls.promoteReplicas(job)
		case <-ch[cadence.L3-1]:
			if job.Done() {
				return
			}
			ls.promoteStable(job)
		case <-replanC:
			changed := ls.replan(job)
			for i, c := range changed {
				if c && tick[i] != nil {
					tick[i].Reset(ls.tuner.Interval(i + 1))
				}
			}
		}
	}
}

// replan recomputes every level's cadence from its cost estimate and
// the failure classes it protects against, publishes the tuner state to
// the control plane, and reports which levels retuned. L1 and L2 guard
// against node loss; L3 against stable-store outages.
func (ls *levelSup) replan(job *Job) [cadence.NumLevels]bool {
	var changed [cadence.NumLevels]bool
	elapsed := time.Since(ls.start)
	faults := ls.sys.cluster.Faults()
	kills := faults.Fired("node.kill")
	outages := faults.Fired("fs.outage")
	feed := [cadence.NumLevels]int{kills, kills, outages}
	for i := 0; i < cadence.NumLevels; i++ {
		if iv, retuned := ls.tuner.Plan(i+1, feed[i], elapsed); retuned {
			changed[i] = true
			ls.mu.Lock()
			ls.rep.Retunes++
			ls.mu.Unlock()
			ls.sys.ins.Counter("ompi_ckpt_retunes_total").Inc()
			ls.sys.ins.Emit("core", "supervise.retune", "job %d: %s cadence -> %v",
				job.JobID(), cadence.LevelName(i+1), iv)
		}
	}
	ls.sys.cluster.SetTunerState(job.JobID(), ls.tuner.State())
	return changed
}

// seal takes one sub-stable checkpoint (an L1 hold) and feeds its cost
// into the tuner.
func (ls *levelSup) seal(job *Job, level int) {
	t0 := time.Now()
	if _, err := ls.sys.cluster.CheckpointJobLevel(job.JobID(), level, snapc.Options{}); err != nil {
		ls.sys.noteCkptErr(job.JobID(), err, ls.rep, ls.mu, ls.opts)
		return
	}
	ls.tuner.ObserveCost(level, time.Since(t0))
	ls.mu.Lock()
	ls.rep.LevelCheckpoints[level-1]++
	ls.mu.Unlock()
}

// promoteReplicas lifts the newest L1 hold to L2. Holding nothing
// promotable is the idle case, not an error.
func (ls *levelSup) promoteReplicas(job *Job) {
	t0 := time.Now()
	if _, ok, err := ls.sys.cluster.PromoteJobReplicas(job.JobID()); err != nil || !ok {
		if err != nil {
			ls.sys.noteCkptErr(job.JobID(), err, ls.rep, ls.mu, ls.opts)
		}
		return
	}
	ls.tuner.ObserveCost(cadence.L2, time.Since(t0))
	ls.mu.Lock()
	ls.rep.LevelCheckpoints[cadence.L2-1]++
	ls.mu.Unlock()
}

// promoteStable commits the newest hold to stable storage; with nothing
// held it takes a full checkpoint instead, so the stable rung advances
// on its own cadence either way.
func (ls *levelSup) promoteStable(job *Job) {
	t0 := time.Now()
	p, held, err := ls.sys.cluster.PromoteJobStable(job.JobID())
	if err != nil {
		ls.sys.noteCkptErr(job.JobID(), err, ls.rep, ls.mu, ls.opts)
		return
	}
	var res CheckpointResult
	if held {
		res, err = result(p.Wait())
	} else {
		res, err = ls.sys.checkpoint(job.JobID(), snapc.Options{})
	}
	if err != nil {
		ls.sys.noteCkptErr(job.JobID(), err, ls.rep, ls.mu, ls.opts)
		return
	}
	ls.tuner.ObserveCost(cadence.L3, time.Since(t0))
	ls.mu.Lock()
	ls.rep.Checkpoints++
	ls.rep.LevelCheckpoints[cadence.L3-1]++
	ls.rep.Phases.Accumulate(res.Meta.Phases)
	ls.mu.Unlock()
	if ls.opts.Progress != nil {
		ls.opts.Progress(res)
	}
}

// holdRestart is the hold-direct restart path (Cluster.RestartFromHold):
// the MTTR path never pays the stable store's ingress for data only the
// restart itself will read. Returns a nil job on any miss; the caller
// falls through to the whole-job path, which is strictly more general.
func (s *System) holdRestart(current *Job, appFactory func(rank int) ompi.App) (*Job, RestartSource) {
	next, e, ok, err := s.cluster.RestartFromHold(current.Job, appFactory)
	if err != nil {
		s.ins.Emit("core", "supervise.hold-restart-failed", "%s: %v", current.GlobalDir(), err)
	}
	if !ok {
		return nil, RestartSource{}
	}
	return s.wrap(next), RestartSource{Dir: current.GlobalDir(), Interval: e.Interval, Copy: "held:" + e.LevelLabel()}
}
