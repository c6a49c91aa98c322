package mca

import (
	"math/big"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// fakeComponent is a minimal Component for registry tests.
type fakeComponent struct {
	name string
	prio int
}

func (c fakeComponent) Name() string  { return c.name }
func (c fakeComponent) Priority() int { return c.prio }

func TestParseParams(t *testing.T) {
	p, err := ParseParams([]string{"crs=self", "snapc_verbose=1", "filem_bw=125e6"})
	if err != nil {
		t.Fatalf("ParseParams: %v", err)
	}
	if got := p.String("crs", ""); got != "self" {
		t.Errorf("crs = %q, want self", got)
	}
	if got := p.Int("snapc_verbose", 0); got != 1 {
		t.Errorf("snapc_verbose = %d, want 1", got)
	}
	if _, err := ParseParams([]string{"novalue"}); err == nil {
		t.Error("ParseParams(novalue) succeeded, want error")
	}
	if _, err := ParseParams([]string{"=x"}); err == nil {
		t.Error("ParseParams(=x) succeeded, want error")
	}
}

func TestTypedAccessors(t *testing.T) {
	p := NewParams()
	p.Set("i", "42")
	p.Set("badint", "xyz")
	p.Set("b", "true")
	p.Set("d", "150ms")
	if got := p.Int("i", -1); got != 42 {
		t.Errorf("Int(i) = %d", got)
	}
	if got := p.Int("badint", -1); got != -1 {
		t.Errorf("Int(badint) = %d, want default", got)
	}
	if got := p.Int("missing", 7); got != 7 {
		t.Errorf("Int(missing) = %d, want 7", got)
	}
	if !p.Bool("b", false) {
		t.Error("Bool(b) = false, want true")
	}
	if p.Bool("missing", false) {
		t.Error("Bool(missing) = true, want default false")
	}
	if got := p.Duration("d", 0); got != 150*time.Millisecond {
		t.Errorf("Duration(d) = %v", got)
	}
	if got := p.Duration("missing", time.Second); got != time.Second {
		t.Errorf("Duration(missing) = %v, want 1s", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"4096", 4096, false},
		{"512B", 512, false},
		{"4KB", 4 << 10, false},
		{"4KiB", 4 << 10, false},
		{"4k", 4 << 10, false},
		{"1mb", 1 << 20, false},
		{"2GiB", 2 << 30, false},
		{" 8 K ", 8 << 10, false},
		{"0", 0, false},
		{"-1", 0, true},
		{"xyz", 0, true},
		{"", 0, true},
		{"8589934591g", 8589934591 << 30, false},
		{"9007199254740993k", 0, true}, // overflows
		{"8589934592g", 0, true},       // overflows to MinInt64
		{"4kmg", 0, true},              // stacked suffixes
		{"4ib", 0, true},               // "ib" without a multiple
		{"+4k", 0, true},
		{"4 k b", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseBytes(%q) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// bytesGrammar is FuzzParseBytes' oracle: digits, optional spaces, and
// at most one suffix.
var bytesGrammar = regexp.MustCompile(`(?s)^([0-9]+)(.*?)(kib|mib|gib|kb|mb|gb|k|m|g|b)?$`)

// FuzzParseBytes: a size ParseBytes accepts is non-negative and is
// exactly its digits times its one suffix's multiple, and every size of
// that grammar that fits an int64 is accepted.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"4096", "4KiB", " 8 K ", "2GiB", "512B", "",
		"9007199254740993k", "8589934592g", "4kmg", "4ib", "-1", "+4k"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBytes(s)
		m := bytesGrammar.FindStringSubmatch(strings.ToLower(strings.TrimSpace(s)))
		var want *big.Int
		if m != nil && strings.TrimSpace(m[2]) == "" {
			want, _ = new(big.Int).SetString(m[1], 10)
			if m[3] != "" && m[3] != "b" {
				want.Lsh(want, uint(10*(1+strings.IndexByte("kmg", m[3][0]))))
			}
			if !want.IsInt64() {
				want = nil
			}
		}
		switch {
		case err == nil && (got < 0 || want == nil || want.Int64() != got):
			t.Fatalf("ParseBytes(%q) = %d, want %v", s, got, want)
		case err != nil && want != nil:
			t.Fatalf("ParseBytes(%q) refused a size of %v: %v", s, want, err)
		}
	})
}

func TestBytesAccessor(t *testing.T) {
	p := NewParams()
	p.Set("limit", "4KiB")
	p.Set("bad", "much")
	if got := p.Bytes("limit", 1); got != 4<<10 {
		t.Errorf("Bytes(limit) = %d", got)
	}
	if got := p.Bytes("bad", 99); got != 99 {
		t.Errorf("Bytes(bad) = %d, want default", got)
	}
	if got := p.Bytes("missing", 123); got != 123 {
		t.Errorf("Bytes(missing) = %d, want default", got)
	}
}

func TestNilParamsSafe(t *testing.T) {
	var p *Params
	if _, ok := p.Lookup("x"); ok {
		t.Error("nil Params Lookup found a key")
	}
	if got := p.String("x", "d"); got != "d" {
		t.Errorf("nil Params String = %q", got)
	}
	if got := p.Keys(); got != nil {
		t.Errorf("nil Params Keys = %v", got)
	}
	if got := p.Clone(); got == nil || len(got.Keys()) != 0 {
		t.Errorf("nil Params Clone = %v", got)
	}
	if got := p.Map(); len(got) != 0 {
		t.Errorf("nil Params Map = %v", got)
	}
}

func TestMapRoundTrip(t *testing.T) {
	prop := func(m map[string]string) bool {
		clean := make(map[string]string)
		for k, v := range m {
			if k == "" {
				continue
			}
			clean[k] = v
		}
		got := FromMap(clean).Map()
		return reflect.DeepEqual(got, clean)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewParams()
	p.Set("a", "1")
	c := p.Clone()
	c.Set("a", "2")
	c.Set("b", "3")
	if got := p.String("a", ""); got != "1" {
		t.Errorf("original mutated through clone: a = %q", got)
	}
	if _, ok := p.Lookup("b"); ok {
		t.Error("original gained key from clone")
	}
}

func TestFrameworkRegisterAndLookup(t *testing.T) {
	f := NewFramework[fakeComponent]("crs")
	f.MustRegister(fakeComponent{"simcr", 20})
	f.MustRegister(fakeComponent{"self", 10})
	if err := f.Register(fakeComponent{"simcr", 5}); err == nil {
		t.Error("duplicate Register succeeded, want error")
	}
	c, err := f.Lookup("self")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if c.Name() != "self" {
		t.Errorf("Lookup(self).Name = %q", c.Name())
	}
	if _, err := f.Lookup("blcr"); err == nil {
		t.Error("Lookup(unknown) succeeded, want error")
	}
	if got, want := f.Names(), []string{"self", "simcr"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
}

func TestFrameworkSelectByParam(t *testing.T) {
	f := NewFramework[fakeComponent]("crs")
	f.MustRegister(fakeComponent{"simcr", 20})
	f.MustRegister(fakeComponent{"self", 10})

	p := NewParams()
	p.Set("crs", "self")
	c, err := f.Select(p)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if c.Name() != "self" {
		t.Errorf("Select with crs=self = %q", c.Name())
	}

	p.Set("crs", "missing")
	if _, err := f.Select(p); err == nil {
		t.Error("Select with unknown component succeeded, want error")
	}
}

func TestFrameworkSelectByPriority(t *testing.T) {
	f := NewFramework[fakeComponent]("crcp")
	f.MustRegister(fakeComponent{"none", 0})
	f.MustRegister(fakeComponent{"bkmrk", 30})
	c, err := f.Select(nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if c.Name() != "bkmrk" {
		t.Errorf("Select by priority = %q, want bkmrk", c.Name())
	}
}

func TestFrameworkSelectDeterministicTie(t *testing.T) {
	// Equal priorities: name order breaks the tie, deterministically.
	for i := 0; i < 10; i++ {
		f := NewFramework[fakeComponent]("x")
		f.MustRegister(fakeComponent{"zeta", 5})
		f.MustRegister(fakeComponent{"alpha", 5})
		c, err := f.Select(nil)
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		if c.Name() != "alpha" {
			t.Fatalf("tie-break selected %q, want alpha", c.Name())
		}
	}
}

func TestFrameworkSelectEmpty(t *testing.T) {
	f := NewFramework[fakeComponent]("empty")
	if _, err := f.Select(nil); err == nil {
		t.Error("Select on empty framework succeeded, want error")
	}
}
