package filem

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/vfs"
)

// withFaults arms env with a seeded injector and a fail-fast-by-default
// retry policy the individual tests override.
func withFaults(env *Env, rules ...faultsim.Rule) *faultsim.Injector {
	inj := faultsim.New(11, rules...)
	env.Inject = inj.Fire
	return inj
}

func TestTransferRetriesThenSucceeds(t *testing.T) {
	for name, comp := range components() {
		t.Run(name, func(t *testing.T) {
			env, stores := testEnv(1)
			env.Retry = RetryPolicy{Max: 3, Backoff: time.Millisecond}
			// The first two attempts fail, the third lands.
			inj := withFaults(env, faultsim.Rule{Point: "filem.transfer", Prob: 1, Times: 2})
			if err := stores["n0"].WriteFile("snap/img", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			before := env.Clock.Elapsed()
			st, err := comp.Move(env, []Request{{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/snap"}})
			if err != nil {
				t.Fatalf("Move under transient faults: %v", err)
			}
			if st.Transfers != 1 {
				t.Errorf("Transfers = %d, want 1", st.Transfers)
			}
			if got, _ := stores[StableNode].ReadFile("g/snap/img"); string(got) != "payload" {
				t.Errorf("stable content = %q", got)
			}
			if n := env.Ins.Log.Count("filem.retry"); n != 2 {
				t.Errorf("filem.retry events = %d, want 2", n)
			}
			// Exponential backoff (1ms + 2ms) is folded into the stream's
			// reported time, and the clock is charged exactly once with it —
			// not separately per retry.
			if st.Simulated < 3*time.Millisecond {
				t.Errorf("Simulated = %v, want >= 3ms of folded backoff", st.Simulated)
			}
			if charged := env.Clock.Elapsed() - before; charged != st.Simulated {
				t.Errorf("clock charged %v, want exactly Stats.Simulated %v", charged, st.Simulated)
			}
			if inj.Fired("filem.transfer") != 2 {
				t.Errorf("injector fired %d times, want 2", inj.Fired("filem.transfer"))
			}
		})
	}
}

func TestExhaustedRetriesFailAndAreMarked(t *testing.T) {
	for name, comp := range components() {
		t.Run(name, func(t *testing.T) {
			env, stores := testEnv(1)
			env.Retry = RetryPolicy{Max: 2, Backoff: time.Microsecond}
			inj := withFaults(env, faultsim.Rule{Point: "filem.transfer", Prob: 1})
			if err := stores["n0"].WriteFile("snap/img", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			_, err := comp.Move(env, []Request{{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/snap"}})
			if !errors.Is(err, faultsim.ErrInjected) {
				t.Fatalf("Move = %v, want wrapped ErrInjected", err)
			}
			if got := inj.Ops("filem.transfer"); got != 3 {
				t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
			}
			if vfs.Exists(stores[StableNode], "g/snap") {
				t.Error("failed move left debris on stable storage")
			}
		})
	}
}

func TestPartialCopyIsCleanedBeforeRetry(t *testing.T) {
	env, stores := testEnv(1)
	env.Retry = RetryPolicy{Max: 2, Backoff: time.Microsecond}
	// Fault the destination filesystem, not the transfer request: the
	// second write of the tree copy fails, leaving a partial destination
	// that the retry machinery must clean up before attempt two.
	inj := faultsim.New(3, faultsim.Rule{Point: "vfs.write:stable", After: 1, Times: 1})
	wrapped := faultsim.WrapFS(stores[StableNode], inj, "stable")
	inner := env.Resolve
	env.Resolve = func(node string) (vfs.FS, error) {
		if node == StableNode {
			return wrapped, nil
		}
		return inner(node)
	}
	for _, f := range []string{"snap/a", "snap/b", "snap/c"} {
		if err := stores["n0"].WriteFile(f, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := (&RSH{}).Move(env, []Request{{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/snap"}})
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	if st.Transfers != 1 {
		t.Errorf("Transfers = %d, want 1", st.Transfers)
	}
	if env.Ins.Log.Count("filem.cleanup") != 1 {
		t.Errorf("filem.cleanup events = %d, want 1", env.Ins.Log.Count("filem.cleanup"))
	}
	for _, f := range []string{"g/snap/a", "g/snap/b", "g/snap/c"} {
		if !vfs.Exists(stores[StableNode], f) {
			t.Errorf("missing %s after retried copy", f)
		}
	}
}

func TestGroupedMoveRollsBackOnPartialFailure(t *testing.T) {
	for name, comp := range components() {
		t.Run(name, func(t *testing.T) {
			env, stores := testEnv(2)
			env.Retry = RetryPolicy{Max: 1, Backoff: time.Microsecond}
			// Transfers out of n1 always fail; n0's succeed and must be
			// rolled back so the gather is all-or-nothing.
			withFaults(env, faultsim.Rule{Point: "filem.transfer:n1", Prob: 1})
			if err := stores["n0"].WriteFile("snap/img", []byte("r0")); err != nil {
				t.Fatal(err)
			}
			if err := stores["n1"].WriteFile("snap/img", []byte("r1")); err != nil {
				t.Fatal(err)
			}
			reqs := []Request{
				{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/0/s0"},
				{SrcNode: "n1", SrcPath: "snap", DstNode: StableNode, DstPath: "g/0/s1"},
			}
			if _, err := comp.Move(env, reqs); err == nil {
				t.Fatal("grouped Move with a dead stream succeeded")
			}
			for _, p := range []string{"g/0/s0", "g/0/s1"} {
				if vfs.Exists(stores[StableNode], p) {
					t.Errorf("rollback left %s on stable storage", p)
				}
			}
		})
	}
}

func TestRequestTimeoutIsNotRetried(t *testing.T) {
	env, stores := testEnv(1)
	// A deterministic over-budget transfer: retrying cannot change the
	// modeled cost, so only one attempt is made even with retries allowed.
	env.Retry = RetryPolicy{Max: 5, Backoff: time.Microsecond, Timeout: time.Nanosecond}
	if err := stores["n0"].WriteFile("snap/img", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	_, err := (&RSH{}).Move(env, []Request{{SrcNode: "n0", SrcPath: "snap", DstNode: StableNode, DstPath: "g/snap"}})
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("Move = %v, want ErrRequestTimeout", err)
	}
	if n := env.Ins.Log.Count("filem.retry"); n != 0 {
		t.Errorf("timed-out request was retried %d times", n)
	}
	if vfs.Exists(stores[StableNode], "g/snap") {
		t.Error("timed-out move left debris on stable storage")
	}
}

func TestRemoveRetriesTransientFailures(t *testing.T) {
	env, stores := testEnv(1)
	env.Retry = RetryPolicy{Max: 2, Backoff: time.Microsecond}
	withFaults(env, faultsim.Rule{Point: "filem.remove:n0", Prob: 1, Times: 1})
	if err := stores["n0"].WriteFile("tmp/ckpt/img", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := (&RSH{}).Remove(env, "n0", []string{"tmp/ckpt"}); err != nil {
		t.Fatalf("Remove under transient fault: %v", err)
	}
	if vfs.Exists(stores["n0"], "tmp/ckpt") {
		t.Error("tree survived retried Remove")
	}

	// With retries disabled the same fault is fatal.
	env2, stores2 := testEnv(1)
	withFaults(env2, faultsim.Rule{Point: "filem.remove:n0", Prob: 1, Times: 1})
	if err := stores2["n0"].WriteFile("tmp/ckpt/img", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := (&RSH{}).Remove(env2, "n0", []string{"tmp/ckpt"}); !errors.Is(err, faultsim.ErrInjected) {
		t.Fatalf("Remove without retries = %v, want ErrInjected", err)
	}
}

// TestKnownSumsCheckShippedBytes: a request with known digests checks
// every listed file it ships against its digest, from the bytes it
// reads. A damaged or missing listed file fails the move with
// ErrDigestMismatch at the first attempt and leaves no copy behind; a
// source that cannot be read fails it with ErrSourceRead.
func TestKnownSumsCheckShippedBytes(t *testing.T) {
	img := []byte("process image")
	sums := map[string]string{"img": vfs.HashBytes(img)}
	rows := []struct {
		name    string
		src     map[string][]byte
		srcNode string
		want    error
	}{
		{name: "intact", src: map[string][]byte{"img": img, "meta.json": []byte("{}")}, srcNode: StableNode},
		{name: "damaged", src: map[string][]byte{"img": []byte("process imagE")}, srcNode: StableNode, want: ErrDigestMismatch},
		{name: "missing", src: map[string][]byte{"other": img}, srcNode: StableNode, want: ErrDigestMismatch},
		{name: "unreachable source", src: map[string][]byte{"img": img}, srcNode: "n9", want: ErrSourceRead},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			env, stores := testEnv(1)
			env.Retry = RetryPolicy{Max: 3, Backoff: time.Microsecond}
			for name, data := range row.src {
				if err := stores[StableNode].WriteFile("g/1/"+name, data); err != nil {
					t.Fatal(err)
				}
			}
			_, err := (&RSH{}).Move(env, []Request{{SrcNode: row.srcNode, SrcPath: "g/1", DstNode: "n0", DstPath: "r/1", Sums: sums}})
			if row.want == nil {
				if err != nil {
					t.Fatalf("Move: %v", err)
				}
				if got, _ := stores["n0"].ReadFile("r/1/img"); string(got) != string(img) {
					t.Errorf("staged image = %q", got)
				}
				return
			}
			if !errors.Is(err, row.want) {
				t.Fatalf("Move = %v, want %v", err, row.want)
			}
			if row.want == ErrDigestMismatch {
				if n := env.Ins.Log.Count("filem.retry"); n != 0 {
					t.Errorf("a damaged source was retried %d times", n)
				}
			}
			if vfs.Exists(stores["n0"], "r/1") {
				t.Error("the failed move left a copy behind")
			}
		})
	}
}
