package core

import (
	"fmt"

	"repro/internal/orte/names"
	"repro/internal/orte/recovery"
)

// RecoveryPolicy selects what Supervise does when a node dies under a
// supervised job.
type RecoveryPolicy int

const (
	// RecoverWholeJob is the paper's baseline: the job aborts and is
	// relaunched from the newest restartable global snapshot.
	RecoverWholeJob RecoveryPolicy = iota
	// RecoverInJob keeps the surviving ranks alive: only the lost ranks
	// are respawned on replacement nodes, every rank rolls back to the
	// newest committed interval in place, and the job continues. When an
	// in-job session cannot converge (quorum loss, a second failure
	// mid-recovery, verification failure) it falls back to the
	// whole-job restart ladder automatically.
	RecoverInJob
)

// Recovery returns the system's in-job recovery coordinator, creating
// it on first use. Attaching it to a job (SetRecoveryHandler) opts that
// job into in-job recovery; Supervise does this when its policy is
// RecoverInJob.
func (s *System) Recovery() *recovery.Coordinator {
	s.recovMu.Lock()
	defer s.recovMu.Unlock()
	if s.recov == nil {
		s.recov = recovery.New(s.cluster)
	}
	return s.recov
}

// Migrate moves one rank of a running job onto another live node
// through an in-job recovery session: a fresh checkpoint pins the
// frontier, and since the job has a recovery coordinator its commit
// keeps the node-local stages, so survivors roll back in place (each
// share hashed once, on its node) and the migrating rank is respawned
// on the target restoring from the best available source. The job
// keeps its identity; no whole-job restart happens.
func (s *System) Migrate(id names.JobID, rank int, node string) error {
	j, err := s.cluster.Job(id)
	if err != nil {
		return err
	}
	if !j.HasRecoveryHandler() {
		j.SetRecoveryHandler(s.Recovery())
	}
	if err := s.cluster.MigrateRank(id, rank, node); err != nil {
		return fmt.Errorf("core: migrate rank %d to %q: %w", rank, node, err)
	}
	return nil
}
