package ompi

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ompi/pml"
	"repro/internal/opal/wire"
)

// imageState is registered application state for the image tests.
type imageState struct {
	Iter  int
	Cells []float64
	Tags  map[string]int
}

// register registers the image tests' state names on p, zero-valued.
func register(t *testing.T, p *Proc) (*imageState, *[]int) {
	t.Helper()
	st, xs := &imageState{}, &[]int{}
	if err := p.RegisterState("grid", st); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterState("a-list", xs); err != nil {
		t.Fatal(err)
	}
	return st, xs
}

// drainPort hands every queued fragment to p's engine.
func drainPort(t *testing.T, p *Proc) {
	t.Helper()
	if err := p.Engine().ProgressUntil(func() bool { return p.ep.Pending() == 0 }, time.Second); err != nil {
		t.Fatal(err)
	}
}

// randomImage drives random eager traffic from rank 1 to rank 0 so that
// rank 0 holds unexpected messages, posted (pending) receives and done
// but unwaited receives, and rank 1 holds done sends; any of them may be
// empty. It returns both ranks' images.
func randomImage(t *testing.T, rng *rand.Rand, procs []*Proc) [][]byte {
	t.Helper()
	for r, p := range procs {
		st, xs := register(t, p)
		if rng.Intn(3) > 0 {
			st.Iter, st.Cells = rng.Intn(1000), make([]float64, rng.Intn(8))
			for i := range st.Cells {
				st.Cells[i] = rng.NormFloat64()
			}
			st.Tags = map[string]int{"rank": r}
			*xs = rng.Perm(rng.Intn(5))
		}
	}
	for tag := rng.Intn(6); tag > 0; tag-- { // done receives
		if _, err := procs[0].Irecv(1, tag); err != nil {
			t.Fatal(err)
		}
	}
	for i := rng.Intn(3); i > 0; i-- { // posted receives, never matched
		if _, err := procs[0].Irecv(pml.AnySource, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := rng.Intn(8); i >= 0; i-- { // every tag 0..5; extras stay unexpected
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		if _, err := procs[1].Isend(0, rng.Intn(6), payload); err != nil {
			t.Fatal(err)
		}
	}
	drainPort(t, procs[0])
	imgs := make([][]byte, len(procs))
	for r, p := range procs {
		img, err := p.Image()
		if err != nil {
			t.Fatalf("rank %d Image: %v", r, err)
		}
		imgs[r] = img
	}
	return imgs
}

// TestQuickImageRoundTrip: a restored process re-encodes to the very
// image it was restored from — across unexpected messages, posted receives, done and pending
// requests, and empty tables.
func TestQuickImageRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		procs, _ := testWorld(t, 2, nil, nil)
		imgs := randomImage(t, rand.New(rand.NewSource(seed)), procs)
		fresh, _ := testWorld(t, 2, nil, nil)
		for r, img := range imgs {
			st, xs := register(t, fresh[r])
			if err := fresh[r].RestoreImage(img); err != nil {
				t.Logf("seed %d rank %d: %v", seed, r, err)
				return false
			}
			again, err := fresh[r].Image()
			if err != nil || !bytes.Equal(again, img) {
				t.Logf("seed %d rank %d: re-encoded image differs (%v)", seed, r, err)
				return false
			}
			// Image reads the restored engine and registered values, so
			// equal bytes mean every table and value came back.
			if !reflect.DeepEqual(st, procs[r].states["grid"].ptr.Interface()) || !reflect.DeepEqual(xs, procs[r].states["a-list"].ptr.Interface()) {
				t.Logf("seed %d rank %d: registered state not restored", seed, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestImageDecodeRejects: every strict prefix, trailing bytes, an
// oversized count, an unknown version, a format-1 image and an image
// from before format 1 are refused, and a refused image leaves the
// process untouched.
func TestImageDecodeRejects(t *testing.T) {
	procs, _ := testWorld(t, 2, nil, nil)
	img := randomImage(t, rand.New(rand.NewSource(3)), procs)[0]
	fresh, _ := testWorld(t, 2, nil, nil)
	st, _ := register(t, fresh[0])
	for n := 0; n < len(img); n++ {
		if err := fresh[0].RestoreImage(img[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte image restored", n, len(img))
		}
	}
	if st.Iter != 0 || fresh[0].coll.Seq() != 0 || fresh[0].eng.UnexpectedCount() != 0 {
		t.Error("a refused image changed the process")
	}
	for name, bad := range map[string][]byte{
		"trailing": append(append([]byte(nil), img...), 0),
		"version":  append([]byte(imageMagic+"\x03"), img[len(imageMagic)+1:]...),
		// header, then a PML section whose unexpected-message count
		// claims 2^40 entries
		"oversized": binary.AppendUvarint([]byte(imageMagic+"\x02\x02\x00\x04\x00"+"\x00\x04\x00\x02\x00"), 1<<40),
	} {
		if err := fresh[0].RestoreImage(bad); err == nil {
			t.Errorf("%s image restored", name)
		}
	}
	// A hand-built image whose state table is out of name order.
	table := func(names ...string) []byte {
		b := append([]byte(imageMagic), imageVersion)
		b = wire.AppendInt(wire.AppendInt(wire.AppendInt(b, 1), 0), 2)
		b = wire.AppendBytes(pml.AppendState(binary.AppendUvarint(b, 0), pml.SavedState{Size: 2}), nil)
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			v := reflect.ValueOf(map[string]any{"grid": imageState{Iter: 1}, "a-list": []int{1}}[name])
			c, err := wire.CodecFor(v.Type())
			if err != nil {
				t.Fatal(err)
			}
			if b, err = c.Append(wire.AppendBytes(b, []byte(name)), v); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	if err := fresh[0].RestoreImage(table("grid", "a-list")); err == nil {
		t.Error("state table out of name order restored")
	}
	if err := fresh[0].RestoreImage(table("grid", "grid")); err == nil {
		t.Error("state table with a repeated name restored")
	}
	if err := fresh[0].RestoreImage(table("a-list", "grid")); err != nil || st.Iter != 1 {
		t.Errorf("hand-built image in name order: %v (Iter %d)", err, st.Iter)
	}
	for file, want := range map[string]string{
		"gob-before-format-1": "gob-encoded image from before format 1",
		"format-1":            "image format 1: this build reads format 2",
	} {
		old, err := corpusEntry(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh[0].RestoreImage(old); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", file, err, want)
		}
	}
}

// exactState holds each thing a merging decoder gets wrong: a zero
// field, a map and a slice.
type exactState struct {
	Iter int
	Tags map[string]int
	Cell []float64
	Next *exactState
}

// TestRestoreIsExact: a restore sets each registered value to exactly
// what was captured — a zero field overwrites a live one, a map loses
// keys added since, and a slice that was nil comes back nil — including
// in a process whose live state has moved on (in-job rollback).
func TestRestoreIsExact(t *testing.T) {
	procs, _ := testWorld(t, 1, nil, nil)
	st := &exactState{Tags: map[string]int{"a": 1}}
	if err := procs[0].RegisterState("s", st); err != nil {
		t.Fatal(err)
	}
	img, err := procs[0].Image()
	if err != nil {
		t.Fatal(err)
	}
	want := &exactState{Tags: map[string]int{"a": 1}}
	*st = exactState{Iter: 42, Tags: map[string]int{"stale": 9}, Cell: []float64{7, 7}, Next: &exactState{Iter: 1}}
	if err := procs[0].RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("restored %+v, want %+v", *st, *want)
	}
}

// TestCorruptImageChangesNothing: an image whose last application value
// is corrupt is refused, and the PML tables, the CRCP counters, the
// collective sequence and every registered value stay as they were.
func TestCorruptImageChangesNothing(t *testing.T) {
	procs, _ := testWorld(t, 2, nil, nil)
	img := randomImage(t, rand.New(rand.NewSource(5)), procs)[0]
	// The state table ends with "grid", whose last field is the Tags map
	// and whose last byte is the final map value: 0x80 truncates it.
	bad := append(append([]byte(nil), img[:len(img)-1]...), 0x80)

	live, _ := testWorld(t, 2, nil, nil)
	randomImage(t, rand.New(rand.NewSource(6)), live)
	before, err := live[0].Image()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := live[0].prot.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := live[0].RestoreImage(bad); err == nil {
		t.Fatal("corrupt image restored")
	}
	after, err := live[0].Image()
	if err != nil {
		t.Fatal(err)
	}
	bm2, err := live[0].prot.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || !bytes.Equal(bm, bm2) {
		t.Error("a refused image changed the process")
	}
}

// TestImageDeterministic: capturing an unchanged process twice gives the
// same bytes, map-bearing state included, so content-addressed dedup can
// match them.
func TestImageDeterministic(t *testing.T) {
	procs, _ := testWorld(t, 1, nil, nil)
	st := &imageState{Iter: 3, Tags: map[string]int{}}
	for i := 0; i < 64; i++ {
		st.Tags[strconv.Itoa(i*7919)] = i
	}
	if err := procs[0].RegisterState("grid", st); err != nil {
		t.Fatal(err)
	}
	first, err := procs[0].Image()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := procs[0].Image()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("capture %d differs from the first", i+2)
		}
	}
}

// FuzzImageDecode: no input panics the image decoder, and an accepted
// image leaves a process that captures and restores again.
func FuzzImageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, _ := testWorld(t, 2, nil, nil)
		register(t, procs[0])
		if procs[0].RestoreImage(data) != nil {
			return
		}
		img, err := procs[0].Image()
		if err != nil {
			t.Fatalf("accepted image does not re-capture: %v", err)
		}
		fresh, _ := testWorld(t, 2, nil, nil)
		register(t, fresh[0])
		if err := fresh[0].RestoreImage(img); err != nil {
			t.Fatalf("re-captured image does not restore: %v", err)
		}
	})
}

// BenchmarkImageRoundTrip times the capture and the restore of a rank
// holding a few unexpected messages and posted receives plus registered
// state: 512 B or 1 MiB of bytes, or a stencil rank's 131,072 float64
// cells (1 MiB) from a Jacobi-smoothed ramp, which takes the per-element
// path. It reports the image size as image-B.
func BenchmarkImageRoundTrip(b *testing.B) {
	type bytesState struct{ Cells []byte }
	type stencilState struct {
		Iter int
		Cell []float64
	}
	stencil := func() any {
		st := &stencilState{Iter: 8, Cell: make([]float64, 1<<17)}
		for i := range st.Cell {
			st.Cell[i] = float64(i)
		}
		next := make([]float64, len(st.Cell))
		for step := 0; step < st.Iter; step++ { // periodic, like one stencil rank
			n := len(st.Cell)
			for i := range next {
				next[i] = (st.Cell[(i+n-1)%n] + st.Cell[i] + st.Cell[(i+1)%n]) / 3
			}
			st.Cell, next = next, st.Cell
		}
		return st
	}
	for _, tc := range []struct {
		name  string
		state func() any
	}{
		{"512B", func() any { return &bytesState{make([]byte, 512)} }},
		{"1MiB", func() any { return &bytesState{make([]byte, 1<<20)} }},
		{"stencil", stencil},
	} {
		procs, _ := testWorld(b, 2, nil, nil)
		fresh, _ := testWorld(b, 2, nil, nil)
		state := tc.state()
		if procs[0].RegisterState("cells", state) != nil ||
			fresh[0].RegisterState("cells", reflect.New(reflect.TypeOf(state).Elem()).Interface()) != nil {
			b.Fatal("register")
		}
		for i := 0; i < 4; i++ {
			if _, err := procs[1].Isend(0, i, make([]byte, 64)); err != nil {
				b.Fatal(err)
			}
			if _, err := procs[0].Irecv(1, 100+i); err != nil {
				b.Fatal(err)
			}
		}
		if err := procs[0].Engine().ProgressUntil(func() bool { return procs[0].ep.Pending() == 0 }, time.Second); err != nil {
			b.Fatal(err)
		}
		img, err := procs[0].Image()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/capture", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if img, err = procs[0].Image(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(img)), "image-B")
		})
		b.Run(tc.name+"/restore", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fresh[0].RestoreImage(img); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(img)), "image-B")
		})
	}
}

// corpusEntry returns a FuzzImageDecode seed from testdata.
func corpusEntry(name string) ([]byte, error) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzImageDecode/" + name)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(raw), "\n")
	q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	return []byte(q), err
}
