package snapc

import (
	"bytes"
	"fmt"
	"path"
	"testing"

	"repro/internal/core/snapshot"
)

// staticImage gives every rank a distinct but interval-independent image:
// exactly the workload where content-addressed gathers pay off.
func staticImage(v, _ int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("rank%d-state|", v)), 512)
}

func TestIncrementalGatherDedupsUnchangedState(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		h := newHarnessNodes(t, 4, 2)
		h.job.imageBody = staticImage
		dir := snapshot.GlobalDirName(7)

		res0, err := h.checkpoint(dir, 0, Options{})
		if err != nil {
			t.Fatalf("interval 0: %v", err)
		}
		// Interval 0 has nothing to dedup against.
		if g := res0.Meta.Gather; g == nil || g.BytesDeduped != 0 || g.BytesMoved != g.Bytes {
			t.Errorf("interval 0 gather record = %+v, want a full transfer", res0.Meta.Gather)
		}

		res1, err := h.checkpoint(dir, 1, Options{})
		if err != nil {
			t.Fatalf("interval 1: %v", err)
		}
		g := res1.Meta.Gather
		if g == nil || !g.Dedup {
			t.Fatalf("interval 1 gather record = %+v, want dedup enabled", g)
		}
		// Every rank's (unchanged) image dedups; only the per-interval
		// local metadata still crosses the network.
		imageBytes := 4 * int64(len(staticImage(0, 0)))
		if g.BytesDeduped < imageBytes {
			t.Errorf("BytesDeduped = %d, want >= %d (all four images)", g.BytesDeduped, imageBytes)
		}
		if g.BytesMoved >= imageBytes {
			t.Errorf("BytesMoved = %d: unchanged images crossed the network", g.BytesMoved)
		}
		if g.BytesHashed != g.Bytes {
			t.Errorf("BytesHashed = %d, want the whole payload %d", g.BytesHashed, g.Bytes)
		}
		if n := h.log.Count("filem.dedup.hit"); n != 4 {
			t.Errorf("filem.dedup.hit events = %d, want 4", n)
		}
		if h.log.Count("ckpt.dedup-baseline") != 1 {
			t.Errorf("ckpt.dedup-baseline events = %d, want 1", h.log.Count("ckpt.dedup-baseline"))
		}

		// The deduped interval is a first-class snapshot: full
		// verification passes and the images are byte-identical to the
		// rank state.
		meta, err := snapshot.VerifyInterval(res1.Ref, 1)
		if err != nil {
			t.Fatalf("VerifyInterval on deduped interval: %v", err)
		}
		for _, pe := range meta.Procs {
			img, err := res1.Ref.FS.ReadFile(path.Join(res1.Ref.IntervalDir(1), pe.LocalDir, "process_image.bin"))
			if err != nil {
				t.Fatalf("rank %d image: %v", pe.Vpid, err)
			}
			if !bytes.Equal(img, staticImage(pe.Vpid, 1)) {
				t.Errorf("rank %d deduped image differs from rank state", pe.Vpid)
			}
		}
	})
}

func TestFilemDedupParamRestoresFullGathers(t *testing.T) {
	h := newHarness(t, 4)
	h.job.imageBody = staticImage
	h.job.params = map[string]string{"filem_dedup": "0"}
	dir := snapshot.GlobalDirName(7)
	for iv := 0; iv < 2; iv++ {
		res, err := h.checkpoint(dir, iv, Options{})
		if err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
		g := res.Meta.Gather
		if g == nil || g.Dedup || g.BytesDeduped != 0 || g.BytesHashed != 0 || g.BytesMoved != g.Bytes {
			t.Errorf("interval %d gather record = %+v, want a plain full transfer", iv, g)
		}
	}
	if n := h.log.CountPrefix("filem.dedup."); n != 0 {
		t.Errorf("dedup events with filem_dedup=0: %d", n)
	}
}

func TestDedupSurvivesDamagedPreviousInterval(t *testing.T) {
	// A corrupt or pruned previous interval degrades to a full gather —
	// the optimization never fails a checkpoint.
	h := newHarness(t, 2)
	h.job.imageBody = staticImage
	dir := snapshot.GlobalDirName(7)
	if _, err := h.checkpoint(dir, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	ref := snapshot.GlobalRef{FS: h.stable, Dir: dir}
	// Wreck interval 0's metadata so the baseline read fails.
	if err := h.stable.WriteFile(path.Join(ref.IntervalDir(0), snapshot.GlobalMetaFile), []byte("junk")); err != nil {
		t.Fatal(err)
	}
	res, err := h.checkpoint(dir, 1, Options{})
	if err != nil {
		t.Fatalf("checkpoint after damaged baseline: %v", err)
	}
	if g := res.Meta.Gather; g == nil || g.Dedup || g.BytesMoved != g.Bytes {
		t.Errorf("gather record = %+v, want fallback to a full transfer", res.Meta.Gather)
	}
	if _, err := snapshot.VerifyInterval(res.Ref, 1); err != nil {
		t.Fatalf("VerifyInterval: %v", err)
	}
}
