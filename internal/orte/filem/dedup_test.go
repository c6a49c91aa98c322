package filem

import (
	"bytes"
	"fmt"
	"path"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/vfs"
)

// seedBaseline writes a previous interval's tree on stable storage and
// returns the content-addressed index over it, the way SNAPC builds one
// from a committed manifest.
func seedBaseline(t *testing.T, stable vfs.FS, dir string, files map[string][]byte) *Baseline {
	t.Helper()
	byHash := make(map[string]string, len(files))
	for rel, data := range files {
		if err := stable.WriteFile(path.Join(dir, rel), data); err != nil {
			t.Fatal(err)
		}
		byHash[vfs.HashBytes(data)] = rel
	}
	return &Baseline{Dir: dir, ByHash: byHash}
}

func TestDedupMoveIsByteIdenticalToFull(t *testing.T) {
	for name, comp := range components() {
		t.Run(name, func(t *testing.T) {
			// Interval 0 on stable storage: two unchanged files, large
			// enough that transfer bandwidth (not per-request latency)
			// dominates the modeled cost — the regime dedup targets.
			envA, storesA := testEnv(1)
			envB, storesB := testEnv(1)
			prev := map[string][]byte{
				"s/keep1": bytes.Repeat([]byte("unchanged content one|"), 12000),
				"s/keep2": bytes.Repeat([]byte("unchanged content two|"), 12000),
			}
			base := seedBaseline(t, storesA[StableNode], "g/0", prev)
			seedBaseline(t, storesB[StableNode], "g/0", prev)

			// The node's interval-1 state: keep1/keep2 unchanged, delta new.
			for _, stores := range []map[string]*vfs.Mem{storesA, storesB} {
				for rel, data := range prev {
					if err := stores["n0"].WriteFile(path.Join("tmp", rel), data); err != nil {
						t.Fatal(err)
					}
				}
				if err := stores["n0"].WriteFile("tmp/s/delta", []byte("fresh bytes")); err != nil {
					t.Fatal(err)
				}
			}

			full := Request{SrcNode: "n0", SrcPath: "tmp", DstNode: StableNode, DstPath: "g/1"}
			incr := full
			incr.Baseline = base
			stFull, err := comp.Move(envA, []Request{full})
			if err != nil {
				t.Fatalf("full Move: %v", err)
			}
			stIncr, err := comp.Move(envB, []Request{incr})
			if err != nil {
				t.Fatalf("incremental Move: %v", err)
			}

			// Byte-identical destination trees.
			err = vfs.Walk(storesA[StableNode], "g/1", func(p string, _ vfs.FileInfo) error {
				want, _ := storesA[StableNode].ReadFile(p)
				got, err := storesB[StableNode].ReadFile(p)
				if err != nil || string(got) != string(want) {
					t.Errorf("%s: full=%q incremental=%q (%v)", p, want, got, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			// Accounting: same total payload, but only the delta crossed the
			// network and the rest was materialized locally after hashing.
			total := int64(len(prev["s/keep1"]) + len(prev["s/keep2"]) + len("fresh bytes"))
			if stFull.Bytes != total || stIncr.Bytes != total {
				t.Errorf("Bytes: full=%d incr=%d, want %d", stFull.Bytes, stIncr.Bytes, total)
			}
			if stFull.BytesMoved != total || stFull.BytesDeduped != 0 || stFull.BytesHashed != 0 {
				t.Errorf("full stats = %+v, want all bytes moved, none hashed/deduped", stFull)
			}
			if want := int64(len("fresh bytes")); stIncr.BytesMoved != want {
				t.Errorf("incremental BytesMoved = %d, want %d", stIncr.BytesMoved, want)
			}
			if want := total - int64(len("fresh bytes")); stIncr.BytesDeduped != want {
				t.Errorf("incremental BytesDeduped = %d, want %d", stIncr.BytesDeduped, want)
			}
			if stIncr.BytesHashed != total {
				t.Errorf("incremental BytesHashed = %d, want %d", stIncr.BytesHashed, total)
			}
			if envB.Ins.Log.Count("filem.dedup.hit") != 2 || envB.Ins.Log.Count("filem.dedup.miss") != 1 {
				t.Errorf("dedup events: %d hits, %d misses, want 2/1",
					envB.Ins.Log.Count("filem.dedup.hit"), envB.Ins.Log.Count("filem.dedup.miss"))
			}
			if envB.Ins.Log.CountPrefix("filem.dedup.") != 3 {
				t.Errorf("CountPrefix(filem.dedup.) = %d, want 3", envB.Ins.Log.CountPrefix("filem.dedup."))
			}
			if stIncr.Simulated >= stFull.Simulated {
				t.Errorf("incremental cost %v not below full cost %v", stIncr.Simulated, stFull.Simulated)
			}
		})
	}
}

func TestFullyDedupedMoveSkipsNetwork(t *testing.T) {
	env, stores := testEnv(1)
	data := []byte("static state that never changes")
	base := seedBaseline(t, stores[StableNode], "g/0", map[string][]byte{"img": data})
	if err := stores["n0"].WriteFile("tmp/img", data); err != nil {
		t.Fatal(err)
	}
	// Every network transfer would fail — a fully deduplicated gather must
	// not notice, because no byte touches a link.
	withFaults(env, faultsim.Rule{Point: "filem.transfer", Prob: 1})
	netFired := 0
	env.Topo.SetInject(func(point string) error {
		netFired++
		return nil
	})
	st, err := (&Raw{}).Move(env, []Request{{
		SrcNode: "n0", SrcPath: "tmp", DstNode: StableNode, DstPath: "g/1", Baseline: base,
	}})
	if err != nil {
		t.Fatalf("fully deduplicated Move hit the dead network: %v", err)
	}
	if st.BytesMoved != 0 || st.BytesDeduped != int64(len(data)) {
		t.Errorf("stats = %+v, want all bytes deduped", st)
	}
	if netFired != 0 {
		t.Errorf("netsim link injection fired %d times for a network-free gather", netFired)
	}
	if got, _ := stores[StableNode].ReadFile("g/1/img"); string(got) != string(data) {
		t.Errorf("materialized content = %q", got)
	}
}

func TestDedupFallsBackWhenBaselineUnreadable(t *testing.T) {
	env, stores := testEnv(1)
	data := []byte("content whose baseline copy was pruned")
	base := seedBaseline(t, stores[StableNode], "g/0", map[string][]byte{"img": data})
	// The index claims a hit but the previous interval is gone.
	if err := stores[StableNode].Remove("g/0"); err != nil {
		t.Fatal(err)
	}
	if err := stores["n0"].WriteFile("tmp/img", data); err != nil {
		t.Fatal(err)
	}
	st, err := (&RSH{}).Move(env, []Request{{
		SrcNode: "n0", SrcPath: "tmp", DstNode: StableNode, DstPath: "g/1", Baseline: base,
	}})
	if err != nil {
		t.Fatalf("Move with stale baseline: %v", err)
	}
	if st.BytesMoved != int64(len(data)) || st.BytesDeduped != 0 {
		t.Errorf("stats = %+v, want fallback to a full transfer", st)
	}
	if got, _ := stores[StableNode].ReadFile("g/1/img"); string(got) != string(data) {
		t.Errorf("content after fallback = %q", got)
	}
}

// TestRawOverlapsRetryBackoffs is the regression test for the grouped
// retry-accounting bug: Raw.Move used to charge each stream's backoff to
// the shared clock from its goroutine, serializing overlapped backoffs
// (and never charging failed attempts' transfer time). With the fix the
// clock is charged exactly the grouped schedule cost, so two streams
// backing off concurrently cost one backoff, not two.
func TestRawOverlapsRetryBackoffs(t *testing.T) {
	const backoff = 10 * time.Millisecond
	env, stores := testEnv(2)
	env.Retry = RetryPolicy{Max: 1, Backoff: backoff}
	// Each node's first transfer attempt fails; the retry lands.
	withFaults(env,
		faultsim.Rule{Point: "filem.transfer:n0", Prob: 1, Times: 1},
		faultsim.Rule{Point: "filem.transfer:n1", Prob: 1, Times: 1},
	)
	for _, n := range []string{"n0", "n1"} {
		if err := stores[n].WriteFile("snap/img", []byte("payload-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	before := env.Clock.Elapsed()
	st, err := (&Raw{}).Move(env, []Request{
		{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/s0"},
		{SrcNode: "n1", SrcPath: "snap", DstNode: StableNode, DstPath: "g/s1"},
	})
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	charged := env.Clock.Elapsed() - before
	if charged != st.Simulated {
		t.Errorf("clock charged %v, want exactly Stats.Simulated %v", charged, st.Simulated)
	}
	if st.Simulated < backoff {
		t.Errorf("Simulated = %v, want at least one %v backoff", st.Simulated, backoff)
	}
	if st.Simulated >= 2*backoff {
		t.Errorf("Simulated = %v: concurrent backoffs were serialized (>= %v)", st.Simulated, 2*backoff)
	}
}

// TestFailedMoveChargesTimeSpent pins the other half of the accounting
// fix: an exhausted request charges the clock for the backoffs and the
// modeled time its failed attempts consumed, instead of charging nothing.
func TestFailedMoveChargesTimeSpent(t *testing.T) {
	for name, comp := range components() {
		t.Run(name, func(t *testing.T) {
			env, stores := testEnv(1)
			env.Retry = RetryPolicy{Max: 2, Backoff: time.Millisecond}
			withFaults(env, faultsim.Rule{Point: "filem.transfer", Prob: 1})
			if err := stores["n0"].WriteFile("snap/img", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			before := env.Clock.Elapsed()
			if _, err := comp.Move(env, []Request{{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/snap"}}); err == nil {
				t.Fatal("Move under a dead link succeeded")
			}
			// Two backoffs (1ms + 2ms) were spent waiting before giving up.
			if charged := env.Clock.Elapsed() - before; charged < 3*time.Millisecond {
				t.Errorf("failed Move charged %v, want >= 3ms of consumed backoff", charged)
			}
		})
	}
}

// TestDedupRequestStillTimesOut ensures the per-request timeout applies
// to the incremental path's modeled cost too.
func TestDedupRequestStillTimesOut(t *testing.T) {
	env, stores := testEnv(1)
	env.Retry = RetryPolicy{Max: 3, Backoff: time.Microsecond, Timeout: time.Nanosecond}
	base := seedBaseline(t, stores[StableNode], "g/0", map[string][]byte{"other": []byte("different")})
	if err := stores["n0"].WriteFile("tmp/img", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	_, err := (&RSH{}).Move(env, []Request{{
		SrcNode: "n0", SrcPath: "tmp", DstNode: StableNode, DstPath: "g/1", Baseline: base,
	}})
	if err == nil {
		t.Fatal("over-budget dedup request succeeded")
	}
	if n := env.Ins.Log.Count("filem.retry"); n != 0 {
		t.Errorf("timed-out dedup request was retried %d times", n)
	}
	if vfs.Exists(stores[StableNode], "g/1") {
		t.Error("timed-out dedup move left debris on stable storage")
	}
}

// quick sanity: an env without topology or clock still dedups correctly.
func TestDedupWithoutTopology(t *testing.T) {
	stores := map[string]*vfs.Mem{StableNode: vfs.NewMem(), "n0": vfs.NewMem()}
	env := &Env{Resolve: func(node string) (vfs.FS, error) {
		fsys, ok := stores[node]
		if !ok {
			return nil, fmt.Errorf("no such node")
		}
		return fsys, nil
	}}
	data := []byte("x")
	base := seedBaseline(t, stores[StableNode], "g/0", map[string][]byte{"img": data})
	if err := stores["n0"].WriteFile("tmp/img", data); err != nil {
		t.Fatal(err)
	}
	st, err := (&RSH{}).Move(env, []Request{{
		SrcNode: "n0", SrcPath: "tmp", DstNode: StableNode, DstPath: "g/1", Baseline: base,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDeduped != 1 || st.Simulated != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDigestGatherReturnsSourceDigests(t *testing.T) {
	for name, comp := range components() {
		t.Run(name, func(t *testing.T) {
			files := map[string][]byte{
				"n0:tmp/opal_snapshot_0.ckpt/image.bin": []byte("rank0"),
				"n0:tmp/opal_snapshot_0.ckpt/meta.json": []byte("{}"),
				"n1:tmp/opal_snapshot_1.ckpt/image.bin": []byte("rank1!"),
			}
			gather := func(digest bool) (Stats, *Env) {
				env, stores := testEnv(2)
				for key, data := range files {
					node, p, _ := strings.Cut(key, ":")
					if err := stores[node].WriteFile(p, data); err != nil {
						t.Fatal(err)
					}
				}
				st, err := comp.Move(env, []Request{
					{SrcNode: "n0", SrcPath: "tmp/opal_snapshot_0.ckpt", DstNode: StableNode, DstPath: "g/s/opal_snapshot_0.ckpt", Digest: digest},
					{SrcNode: "n1", SrcPath: "tmp/opal_snapshot_1.ckpt", DstNode: StableNode, DstPath: "g/s/opal_snapshot_1.ckpt", Digest: digest},
				})
				if err != nil {
					t.Fatalf("Move: %v", err)
				}
				return st, env
			}
			st, _ := gather(true)
			want := make(map[string]string)
			for key, data := range files {
				_, p, _ := strings.Cut(key, ":")
				want[strings.Replace(p, "tmp/", "g/s/", 1)] = vfs.HashBytes(data)
			}
			if !reflect.DeepEqual(st.Digests, want) {
				t.Errorf("Digests = %v, want %v", st.Digests, want)
			}
			// Digesting is not a dedup scan: no bytes count as hashed
			// for lookups and the modeled cost is a plain gather's.
			plain, _ := gather(false)
			if st.BytesHashed != 0 || st.Simulated != plain.Simulated || plain.Digests != nil {
				t.Errorf("digest gather %+v vs plain %+v: want no scan cost and no digests without Digest", st, plain)
			}
		})
	}
}

func TestStatsAddLeavesInputsUnchanged(t *testing.T) {
	a := Stats{Bytes: 1, Digests: map[string]string{"a": "1"}}
	b := Stats{Bytes: 2, Digests: map[string]string{"b": "2"}}
	sum := a.Add(b)
	want := map[string]string{"a": "1", "b": "2"}
	if sum.Bytes != 3 || !reflect.DeepEqual(sum.Digests, want) {
		t.Errorf("Add = %+v, want 3 bytes and digests %v", sum, want)
	}
	if len(a.Digests) != 1 || len(b.Digests) != 1 {
		t.Errorf("Add changed its inputs: a %v, b %v", a.Digests, b.Digests)
	}
	sum.Digests["c"] = "3"
	if len(a.Digests) != 1 || len(b.Digests) != 1 {
		t.Errorf("Add result shares a map with its inputs: a %v, b %v", a.Digests, b.Digests)
	}
}

func TestKnownSumsDecideHitsWithoutReadingTheSource(t *testing.T) {
	env, stores := testEnv(1)
	data := bytes.Repeat([]byte("unchanged|"), 100)
	base := seedBaseline(t, stores["n0"], "r/0", map[string][]byte{"img": data})
	if err := stores[StableNode].WriteFile("g/1/img", data); err != nil {
		t.Fatal(err)
	}
	if err := stores[StableNode].WriteFile("g/1/meta.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	reads := &countReads{FS: stores[StableNode]}
	resolve := env.Resolve
	env.Resolve = func(node string) (vfs.FS, error) {
		if node == StableNode {
			return reads, nil
		}
		return resolve(node)
	}
	st, err := (&RSH{}).Move(env, []Request{{
		SrcNode: StableNode, SrcPath: "g/1", DstNode: "n0", DstPath: "r/1",
		Baseline: base, Sums: map[string]string{"img": vfs.HashBytes(data)},
	}})
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	if st.BytesHashed != 0 || st.BytesDeduped != int64(len(data)) || st.BytesMoved != 2 {
		t.Errorf("stats = %+v, want the image deduped by its known sum and only meta.json moved, nothing hashed", st)
	}
	if reads.paths != "g/1/meta.json" {
		t.Errorf("source reads = %q, want only the file the sums do not list", reads.paths)
	}
}

// countReads records the files read through it.
type countReads struct {
	vfs.FS
	paths string
}

func (c *countReads) ReadFile(name string) ([]byte, error) {
	c.paths = strings.TrimPrefix(c.paths+" "+name, " ")
	return c.FS.ReadFile(name)
}
