package runtime

import (
	"sync"
	"testing"

	"repro/internal/orte/filem"
	"repro/internal/orte/snapc"
)

// recordingFilem passes moves through to a FILEM component and keeps
// the stats each one returned.
type recordingFilem struct {
	filem.Component
	mu    sync.Mutex
	moves []filem.Stats
}

func (r *recordingFilem) Move(env *filem.Env, reqs []filem.Request) (filem.Stats, error) {
	st, err := r.Component.Move(env, reqs)
	r.mu.Lock()
	r.moves = append(r.moves, st)
	r.mu.Unlock()
	return st, err
}

// TestRestoreStagingHashesNothing: the copies restart stages from
// stable storage onto the placed nodes carry no digests. The manifest
// is computed once, by the checkpoint's gather, and restart pays no
// hashing for it.
func TestRestoreStagingHashesNothing(t *testing.T) {
	c := fourNodeCluster(t, nil)
	factory, _ := newStencilFactory(0, 0)
	job, err := c.Launch(JobSpec{Name: "stencil", NP: 4, AppFactory: factory})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := c.CheckpointJob(job.JobID(), snapc.Options{Terminate: true})
	if err != nil {
		t.Fatalf("CheckpointJob: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(res.GatherStats.Digests) == 0 {
		t.Fatal("the checkpoint's gather returned no digests")
	}
	// Only the restore tail goes through the recorder: SNAPC keeps the
	// component it was built with.
	rec := &recordingFilem{Component: c.filemComp}
	c.filemComp = rec
	factory2, _ := newStencilFactory(0, 3)
	job2, err := c.Restart(res.Ref, res.Interval, factory2)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatalf("restarted Wait: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var staged int64
	for i, st := range rec.moves {
		staged += st.Bytes
		if st.BytesHashed != 0 || st.Digests != nil {
			t.Errorf("restore move %d hashed %d bytes (%d digests), want none", i, st.BytesHashed, len(st.Digests))
		}
	}
	if staged == 0 {
		t.Fatalf("restart staged nothing through FILEM (%d moves)", len(rec.moves))
	}
}
