package ompi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"os"
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
			if st.Iter != procs[r].states["grid"].(*imageState).Iter || len(*xs) != len(*procs[r].states["a-list"].(*[]int)) {
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
// oversized count, a wrong version and an image from before format 1
// are refused, and a refused image leaves the process untouched.
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
		"version":  append([]byte(imageMagic+"\x02"), img[len(imageMagic)+1:]...),
		// header, then a PML section whose unexpected-message count
		// claims 2^40 entries
		"oversized": binary.AppendUvarint([]byte(imageMagic+"\x01\x02\x00\x04\x00"+"\x00\x04\x00\x02\x00"), 1<<40),
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
			var v bytes.Buffer
			if err := gob.NewEncoder(&v).Encode(map[string]any{"grid": imageState{Iter: 1}, "a-list": []int{1}}[name]); err != nil {
				t.Fatal(err)
			}
			b = wire.AppendBytes(wire.AppendBytes(b, []byte(name)), v.Bytes())
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
	old, err := oldGobImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh[0].RestoreImage(old); err == nil || !strings.Contains(err.Error(), "gob-encoded image") {
		t.Errorf("image from before format 1: err = %v, want one naming its gob format", err)
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

// BenchmarkImageRoundTrip times one capture and one restore of a rank
// holding 512 B or 1 MiB of registered state, a few unexpected messages
// and posted receives.
func BenchmarkImageRoundTrip(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
	}{{"512B", 512}, {"1MiB", 1 << 20}} {
		size := tc.size
		b.Run(tc.name, func(b *testing.B) {
			procs, _ := testWorld(b, 2, nil, nil)
			fresh, _ := testWorld(b, 2, nil, nil)
			state := struct{ Cells []byte }{make([]byte, size)}
			restored := state
			if procs[0].RegisterState("cells", &state) != nil || fresh[0].RegisterState("cells", &restored) != nil {
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
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := procs[0].Image()
				if err != nil {
					b.Fatal(err)
				}
				if err := fresh[0].RestoreImage(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// oldGobImage returns the FuzzImageDecode seed captured by a build from
// before image format 1, when images were one gob stream.
func oldGobImage() ([]byte, error) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzImageDecode/gob-before-format-1")
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(raw), "\n")
	q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	return []byte(q), err
}
