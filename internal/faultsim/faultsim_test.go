package faultsim

import (
	"errors"
	"testing"

	"repro/internal/vfs"
)

// fireSeq records which of n operations at point fail.
func fireSeq(in *Injector, point string, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Fire(point) != nil
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	mk := func() *Injector { return New(42, Rule{Point: "x", Prob: 0.5}) }
	a := fireSeq(mk(), "x", 200)
	b := fireSeq(mk(), "x", 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails < 50 || fails > 150 {
		t.Errorf("p0.5 over 200 ops fired %d times, implausible", fails)
	}
	// A different seed should (overwhelmingly) produce a different schedule.
	c := fireSeq(New(43, Rule{Point: "x", Prob: 0.5}), "x", 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}

func TestAfterTrigger(t *testing.T) {
	// after3,once: ops 1..3 pass, op 4 fails, everything after passes.
	in := New(1, Rule{Point: "x", After: 3, Times: 1})
	got := fireSeq(in, "x", 6)
	want := []bool{false, false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: fired=%v, want %v (seq %v)", i+1, got[i], want[i], got)
		}
	}
	// afterN with no probability and no cap keeps firing.
	in = New(1, Rule{Point: "x", After: 2})
	got = fireSeq(in, "x", 5)
	want = []bool{false, false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uncapped after: op %d fired=%v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestTimesCap(t *testing.T) {
	in := New(7, Rule{Point: "x", Prob: 1, Times: 2})
	got := fireSeq(in, "x", 5)
	want := []bool{true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	if in.Fired("x") != 2 || in.Ops("x") != 5 {
		t.Errorf("counters: fired=%d ops=%d, want 2/5", in.Fired("x"), in.Ops("x"))
	}
}

func TestPrefixMatching(t *testing.T) {
	in := New(1, Rule{Point: "filem.transfer", Prob: 1})
	if in.Fire("filem.transfer:node0>#stable") == nil {
		t.Error("unqualified rule must match qualified point")
	}
	if in.Fire("filem.transferfoo") != nil {
		t.Error("prefix match must respect the qualifier boundary")
	}
	in = New(1, Rule{Point: "node.kill:node1", Prob: 1})
	if in.Fire("node.kill:node0") != nil {
		t.Error("qualified rule matched the wrong node")
	}
	if in.Fire("node.kill:node1") == nil {
		t.Error("qualified rule missed its node")
	}
}

func TestInjectedErrorsAreMarked(t *testing.T) {
	in := New(1, Rule{Point: "x", Prob: 1})
	if err := in.Fire("x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected failure should wrap ErrInjected, got %v", err)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Fire("anything"); err != nil {
		t.Fatal(err)
	}
	if in.Fired("x") != 0 || in.Ops("x") != 0 || in.Seed() != 0 {
		t.Error("nil injector counters should be zero")
	}
	in.SetInstr(nil) // must not panic
}

func TestParse(t *testing.T) {
	in, err := Parse("seed=42; filem.transfer=p0.25 ; node.kill:node1=after3,once")
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 42 {
		t.Errorf("seed = %d, want 42", in.Seed())
	}
	if len(in.rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(in.rules))
	}
	r := in.rules[0].Rule
	if r.Point != "filem.transfer" || r.Prob != 0.25 {
		t.Errorf("rule 0 = %+v", r)
	}
	r = in.rules[1].Rule
	if r.Point != "node.kill:node1" || r.After != 3 || r.Times != 1 {
		t.Errorf("rule 1 = %+v", r)
	}

	for _, bad := range []string{
		"nonsense",
		"x=p2",          // probability out of range
		"x=wat",         // unknown trigger
		"x=",            // no trigger
		"seed=notanint", // bad seed
		"x=times0",      // times must be >= 1
		"x=pNaN",        // NaN passes neither bound and never fires
		"=after1",       // empty point matches no injection point
		" =once",        // whitespace-only point
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted a bad plan", bad)
		}
	}
}

func TestParseRoundTripsRuleString(t *testing.T) {
	r := Rule{Point: "vfs.write:stable", Prob: 0.1, After: 2, Times: 3}
	in, err := Parse("seed=9;" + r.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := in.rules[0].Rule; got != r {
		t.Errorf("round trip = %+v, want %+v", got, r)
	}
}

func TestWrapFS(t *testing.T) {
	mem := vfs.NewMem()
	// Nil injector: passthrough, not a wrapper.
	if fs := WrapFS(mem, nil, "n0"); fs != vfs.FS(mem) {
		t.Error("WrapFS with nil injector should return the inner FS")
	}
	in := New(1,
		Rule{Point: "vfs.write:n0", After: 1, Times: 1},
		Rule{Point: "vfs.read:n0", Prob: 1, Times: 1},
		Rule{Point: "vfs.rename:n0", Prob: 1, Times: 1})
	fs := WrapFS(mem, in, "n0")
	if err := fs.WriteFile("a/b", []byte("ok")); err != nil {
		t.Fatalf("write 1 should pass: %v", err)
	}
	if err := fs.WriteFile("a/c", []byte("ok")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 should fail injected, got %v", err)
	}
	if _, err := fs.ReadFile("a/b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("read should fail injected, got %v", err)
	}
	if err := fs.Rename("a", "z"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename should fail injected, got %v", err)
	}
	// Non-injected ops delegate untouched.
	if data, err := fs.ReadFile("a/b"); err != nil || string(data) != "ok" {
		t.Fatalf("read after rules exhausted: %q, %v", data, err)
	}
	if _, err := fs.Stat("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadDir("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("d/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a/b"); err != nil {
		t.Fatal(err)
	}
}

func TestRuleString(t *testing.T) {
	for _, tc := range []struct {
		r    Rule
		want string
	}{
		{Rule{Point: "x", Prob: 0.5}, "x=p0.5"},
		{Rule{Point: "x", After: 3, Times: 1}, "x=after3,times1"},
		{Rule{Point: "x"}, "x=p0"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// FuzzFaultPlan: Parse never panics, and every rule it accepts names a
// point, fires when driven (deterministically for afterN/timesN rules)
// and survives a Rule.String round trip.
func FuzzFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"seed=42; filem.transfer=p0.25 ; node.kill:node1=after3,once",
		"x=pNaN", "=after1", "x=p0", "x=p1e-400,times2", "a,b=once",
		"fs.outage:stable=after10,times3", "x=p0x1p-2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		for _, rs := range in.rules {
			r := rs.Rule
			if r.Point == "" {
				t.Fatalf("Parse(%q) accepted a rule with an empty point", spec)
			}
			if !(r.Prob > 0 && r.Prob <= 1) && r.After == 0 && r.Times == 0 {
				t.Fatalf("Parse(%q) accepted rule %+v that can never fire", spec, r)
			}
			back, err := Parse("seed=1;" + r.String())
			if err != nil || back.rules[0].Rule != r {
				t.Fatalf("rule %+v does not round-trip through %q: %v", r, r.String(), err)
			}
			// afterN and prob-free rules fire at a known operation.
			if r.After > 1000 || (r.After == 0 && r.Prob > 0) {
				continue
			}
			probe := New(1, r)
			for i := 0; i < r.After; i++ {
				if probe.Fire(r.Point) != nil {
					t.Fatalf("rule %+v fired inside its after%d window", r, r.After)
				}
			}
			if probe.Fire(r.Point) == nil {
				t.Fatalf("rule %+v did not fire at operation %d", r, r.After+1)
			}
		}
	})
}
