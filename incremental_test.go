// System-level coverage for content-addressed incremental gathers: the
// full stack (SNAPC baseline handoff -> FILEM dedup -> snapshot commit)
// must produce intervals that are byte-identical to a full gather and
// restart cleanly.
package repro

import (
	"bytes"
	"path"
	"testing"

	"repro/internal/core"
	"repro/internal/core/snapshot"
	"repro/internal/mca"
	"repro/internal/ompi"
	"repro/internal/opal/crs"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// blobState is 64 KiB of fixed per-rank state. Checkpointed through the
// SELF component the payload bytes are exactly the application state, so
// an unchanged rank re-stages identical files — the workload where the
// content-addressed gather skips everything after the first interval.
// (A system-level image from simcr would never dedup whole-file: the
// protocol bookkeeping inside it advances every interval.)
type blobState struct {
	Blob []byte
}

const blobSize = 64 << 10

const blobFile = "state.bin"

// staticAppFactory builds ranks that hold static state and run until
// checkpoint-terminated, recording each rank's state so the test can
// inspect what a restart restored.
func staticAppFactory(states []*blobState) func(rank int) ompi.App {
	return func(rank int) ompi.App {
		st := &blobState{}
		states[rank] = st
		return &ompi.FuncApp{
			SetupFn: func(p *ompi.Proc) error {
				st.Blob = bytes.Repeat([]byte{byte(rank + 1)}, blobSize)
				p.RegisterSelfCallbacks(&crs.SelfCallbacks{
					Checkpoint: func(fsys vfs.FS, dir string) error {
						return fsys.WriteFile(path.Join(dir, blobFile), st.Blob)
					},
					Restart: func(fsys vfs.FS, dir string) error {
						data, err := fsys.ReadFile(path.Join(dir, blobFile))
						if err != nil {
							return err
						}
						st.Blob = data
						return nil
					},
				})
				return nil
			},
			StepFn: func(p *ompi.Proc) (bool, error) { return false, nil },
		}
	}
}

func TestIncrementalCheckpointAndRestart(t *testing.T) {
	const np = 4
	log := &trace.Log{}
	params := mca.NewParams()
	params.Set("crs", "self")
	sys, err := core.NewSystem(core.Options{Nodes: 2, SlotsPerNode: 2, Params: params, Ins: trace.WithLogOnly(log)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	states := make([]*blobState, np)
	job, err := sys.Launch(core.JobSpec{Name: "static", NP: np, AppFactory: staticAppFactory(states)})
	if err != nil {
		t.Fatal(err)
	}
	res0, err := job.Checkpoint(false)
	if err != nil {
		t.Fatalf("interval 0: %v", err)
	}
	res1, err := job.Checkpoint(true)
	if err != nil {
		t.Fatalf("interval 1: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	// Interval 0 had no baseline; interval 1 dedups all np payload blobs.
	if g := res0.Meta.Gather; g == nil || g.BytesDeduped != 0 || g.BytesMoved != g.Bytes {
		t.Errorf("interval 0 gather record = %+v, want a full transfer", res0.Meta.Gather)
	}
	g := res1.Meta.Gather
	if g == nil || !g.Dedup {
		t.Fatalf("interval 1 gather record = %+v, want dedup enabled", g)
	}
	if g.BytesDeduped < np*blobSize {
		t.Errorf("BytesDeduped = %d, want >= %d (all %d blobs)", g.BytesDeduped, np*blobSize, np)
	}
	if g.BytesDeduped <= g.BytesMoved {
		t.Errorf("BytesDeduped = %d not >> BytesMoved = %d", g.BytesDeduped, g.BytesMoved)
	}
	if log.Count("filem.dedup.hit") < np {
		t.Errorf("filem.dedup.hit events = %d, want >= %d", log.Count("filem.dedup.hit"), np)
	}

	// Both intervals fully verify, and the deduped interval's payloads
	// are byte-for-byte what the full gather produced at interval 0.
	for _, res := range []core.CheckpointResult{res0, res1} {
		if _, err := snapshot.VerifyInterval(res.Ref, res.Interval); err != nil {
			t.Fatalf("VerifyInterval(%d): %v", res.Interval, err)
		}
	}
	for _, pe := range res1.Meta.Procs {
		blob1, err := res1.Ref.FS.ReadFile(path.Join(res1.Ref.IntervalDir(res1.Interval), pe.LocalDir, blobFile))
		if err != nil {
			t.Fatalf("rank %d interval 1 blob: %v", pe.Vpid, err)
		}
		blob0, err := res0.Ref.FS.ReadFile(path.Join(res0.Ref.IntervalDir(res0.Interval), pe.LocalDir, blobFile))
		if err != nil {
			t.Fatalf("rank %d interval 0 blob: %v", pe.Vpid, err)
		}
		if !bytes.Equal(blob0, blob1) {
			t.Errorf("rank %d: deduped payload differs from the full-gather payload", pe.Vpid)
		}
	}

	// Restart from the deduped interval and confirm every rank's state
	// came back intact.
	ref, err := sys.OpenGlobalSnapshot(res1.Dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := make([]*blobState, np)
	job2, err := sys.RestartLatest(ref, staticAppFactory(restored))
	if err != nil {
		t.Fatalf("restart from deduped interval: %v", err)
	}
	if _, err := job2.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	if err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < np; r++ {
		want := bytes.Repeat([]byte{byte(r + 1)}, blobSize)
		if restored[r] == nil || !bytes.Equal(restored[r].Blob, want) {
			t.Errorf("rank %d restored state differs from checkpointed state", r)
		}
	}
}
