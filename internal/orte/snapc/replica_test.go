package snapc

import (
	"testing"

	"repro/internal/core/snapshot"
)

// replicated harness: np ranks on the first nodes of an nnodes cluster,
// with the cluster's node list wired into the SNAPC env so finishGlobal
// can place replicas.
func newReplicaHarness(t *testing.T, np, nnodes int, k string) *harness {
	t.Helper()
	h := newHarnessNodes(t, np, nnodes)
	// Deterministic candidate order n0..nN, matching the harness layout.
	h.env.Nodes = func() []string {
		out := make([]string, 0, nnodes)
		for i := 0; i < nnodes; i++ {
			out = append(out, "n"+itoa(i))
		}
		return out
	}
	h.job.params = map[string]string{"filem_replicas": k}
	return h
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCheckpointPlacesVerifiedReplicas(t *testing.T) {
	// 2 ranks on n0/n1 of a 4-node cluster: both replicas must land on
	// the free nodes n2 and n3.
	h := newReplicaHarness(t, 2, 4, "2")
	res, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if res.ReplicasPlaced != 2 {
		t.Fatalf("ReplicasPlaced = %d, want 2", res.ReplicasPlaced)
	}
	if len(res.Meta.Replicas) != 2 {
		t.Fatalf("meta.Replicas = %+v", res.Meta.Replicas)
	}
	wantManifest := snapshot.ManifestHash(res.Meta.Checksums)
	for i, rec := range res.Meta.Replicas {
		want := "n" + itoa(2+i)
		if rec.Node != want {
			t.Errorf("replica %d on %s, want %s (job nodes must be avoided)", i, rec.Node, want)
		}
		if rec.Manifest != wantManifest {
			t.Errorf("replica %d manifest = %q, want %q", i, rec.Manifest, wantManifest)
		}
		// Each copy is a standalone, fully-verifiable interval directory.
		fsys := h.job.nodeFS[rec.Node]
		rm, err := snapshot.VerifyDir(fsys, rec.Path)
		if err != nil {
			t.Errorf("replica on %s: %v", rec.Node, err)
			continue
		}
		if rm.Interval != 0 || rm.NumProcs != 2 {
			t.Errorf("replica meta on %s = %+v", rec.Node, rm)
		}
	}
	if h.log.Count("ckpt.replicated") != 2 {
		t.Errorf("ckpt.replicated events = %d, want 2", h.log.Count("ckpt.replicated"))
	}
	if res.ReplicaStats.Bytes <= 0 {
		t.Errorf("replica stats = %+v", res.ReplicaStats)
	}
}

func TestReplicationDedupsAgainstPreviousInterval(t *testing.T) {
	h := newReplicaHarness(t, 2, 4, "1")
	// Rank images that never change between intervals: the second
	// interval's replica push should move (almost) nothing.
	h.job.imageBody = func(v, interval int) []byte {
		body := make([]byte, 4096)
		for i := range body {
			body[i] = byte(v)
		}
		return body
	}
	if _, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{}); err != nil {
		t.Fatalf("interval 0: %v", err)
	}
	res, err := h.checkpoint(snapshot.GlobalDirName(7), 1, Options{})
	if err != nil {
		t.Fatalf("interval 1: %v", err)
	}
	if res.ReplicasPlaced != 1 {
		t.Fatalf("ReplicasPlaced = %d", res.ReplicasPlaced)
	}
	if res.ReplicaStats.BytesDeduped <= 0 {
		t.Errorf("replica push moved everything again: %+v (want dedup against the holder's interval-0 replica)", res.ReplicaStats)
	}
	if res.ReplicaStats.BytesMoved >= res.ReplicaStats.Bytes {
		t.Errorf("replica ingress not reduced: %+v", res.ReplicaStats)
	}
	// Both replica generations verify on the holder.
	rec := res.Meta.Replicas[0]
	fsys := h.job.nodeFS[rec.Node]
	for iv := 0; iv <= 1; iv++ {
		if _, err := snapshot.VerifyDir(fsys, snapshot.ReplicaDir(snapshot.GlobalDirName(7), iv)); err != nil {
			t.Errorf("replica interval %d on %s: %v", iv, rec.Node, err)
		}
	}
}

func TestReplicationDegradesWhenClusterTooSmall(t *testing.T) {
	// 2 ranks on a 2-node cluster asking for 3 replicas: only the two
	// job nodes exist, so the checkpoint commits with 2 replicas and a
	// degradation event — never an error.
	h := newReplicaHarness(t, 2, 2, "3")
	res, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if res.ReplicasPlaced != 2 {
		t.Errorf("ReplicasPlaced = %d, want 2 (all available nodes)", res.ReplicasPlaced)
	}
	if h.log.Count("ckpt.replica-degraded") == 0 {
		t.Error("no ckpt.replica-degraded event")
	}
	if _, err := snapshot.VerifyInterval(res.Ref, 0); err != nil {
		t.Errorf("primary commit: %v", err)
	}
}

func TestReplicaPushFailureDoesNotFailCheckpoint(t *testing.T) {
	// One holder is unreachable: its push fails and is cleaned up, the
	// other lands, the checkpoint still commits.
	h := newReplicaHarness(t, 2, 4, "2")
	inner := h.env.Nodes
	h.env.Nodes = func() []string { return append([]string{"ghost"}, inner()...) }
	res, err := h.checkpoint(snapshot.GlobalDirName(7), 0, Options{})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if res.ReplicasPlaced != 1 {
		t.Errorf("ReplicasPlaced = %d, want 1 (ghost push must fail alone)", res.ReplicasPlaced)
	}
	if h.log.Count("ckpt.replica-failed") == 0 {
		t.Error("no ckpt.replica-failed event for the unreachable holder")
	}
	if _, err := snapshot.VerifyInterval(res.Ref, 0); err != nil {
		t.Errorf("primary commit: %v", err)
	}
	// The surviving holder's copy verifies.
	placed := 0
	for _, rec := range res.Meta.Replicas {
		fsys, ok := h.job.nodeFS[rec.Node]
		if !ok {
			continue
		}
		if _, err := snapshot.VerifyDir(fsys, rec.Path); err == nil {
			placed++
		}
	}
	if placed != 1 {
		t.Errorf("%d intact replicas on reachable nodes, want 1", placed)
	}
}
