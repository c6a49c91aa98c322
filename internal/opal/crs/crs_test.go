package crs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vfs"
)

// fakeProc implements Process for tests: its "image" is an explicit blob.
type fakeProc struct {
	pid      int
	state    []byte
	imageErr error
	self     *SelfCallbacks
}

func (p *fakeProc) PID() int { return p.pid }

func (p *fakeProc) Image(head int) ([]byte, error) {
	if p.imageErr != nil {
		return nil, p.imageErr
	}
	return append(make([]byte, head, head+len(p.state)), p.state...), nil
}

// frameImage wraps img as SimCR stores it: magic | uint32 crc | uint64
// len | img.
func frameImage(img []byte) []byte {
	framed := append(make([]byte, frameHead, frameHead+len(img)), img...)
	sealFrame(framed)
	return framed
}

func (p *fakeProc) RestoreImage(data []byte) error {
	p.state = make([]byte, len(data))
	copy(p.state, data)
	return nil
}

func (p *fakeProc) Self() *SelfCallbacks { return p.self }

func TestFrameworkRegistration(t *testing.T) {
	f := NewFramework()
	for _, name := range []string{"simcr", "self", "none"} {
		if _, err := f.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	// Default selection is simcr (highest priority), like BLCR in the paper.
	c, err := f.Select(nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if c.Name() != "simcr" {
		t.Errorf("default component = %q, want simcr", c.Name())
	}
}

func TestSimCRRoundTrip(t *testing.T) {
	var comp SimCR
	fsys := vfs.NewMem()
	src := &fakeProc{pid: 7, state: []byte("iteration=12345;sum=6.75")}

	files, err := comp.Checkpoint(src, fsys, "snap")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(files) != 1 || files[0] != ImageFile {
		t.Errorf("files = %v, want [%s]", files, ImageFile)
	}

	dst := &fakeProc{pid: 9} // restart may land in a fresh process
	if err := comp.Restart(dst, fsys, "snap", files); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !bytes.Equal(dst.state, src.state) {
		t.Errorf("restored state = %q, want %q", dst.state, src.state)
	}
}

func TestSimCRDetectsCorruption(t *testing.T) {
	var comp SimCR
	fsys := vfs.NewMem()
	src := &fakeProc{pid: 1, state: []byte("important state")}
	files, err := comp.Checkpoint(src, fsys, "snap")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	mutations := map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"truncated":            func(b []byte) []byte { return b[:len(b)-3] },
		"bad magic":            func(b []byte) []byte { b[0] = 'X'; return b },
		"too short":            func(b []byte) []byte { return b[:4] },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			raw, err := fsys.ReadFile("snap/" + ImageFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile("bad/"+ImageFile, mutate(raw)); err != nil {
				t.Fatal(err)
			}
			dst := &fakeProc{}
			if err := comp.Restart(dst, fsys, "bad", files); err == nil {
				t.Error("Restart accepted a corrupt image")
			}
		})
	}
}

func TestSimCRCheckpointErrorPropagates(t *testing.T) {
	var comp SimCR
	boom := errors.New("process unreachable")
	if _, err := comp.Checkpoint(&fakeProc{imageErr: boom}, vfs.NewMem(), "d"); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped %v", err, boom)
	}
}

func TestQuickFrameUnframe(t *testing.T) {
	prop := func(img []byte) bool {
		got, err := unframeImage(frameImage(img))
		return err == nil && bytes.Equal(got, img)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzSimCRFrame: unframeImage never panics, and every container it
// accepts re-frames to the very bytes it was given.
func FuzzSimCRFrame(f *testing.F) {
	for _, img := range [][]byte{nil, []byte("x"), []byte("iteration=12345;sum=6.75")} {
		framed := frameImage(img)
		f.Add(framed)
		f.Add(framed[:len(framed)-1])                          // truncated
		f.Add(append([]byte("SCR0"), framed[len("SCR1"):]...)) // bad magic
	}
	f.Fuzz(func(t *testing.T, framed []byte) {
		img, err := unframeImage(framed)
		if err != nil {
			return
		}
		if again := frameImage(img); !bytes.Equal(again, framed) {
			t.Fatalf("accepted %d B container re-frames to %d different bytes", len(framed), len(again))
		}
	})
}

func TestSelfComponentRoundTrip(t *testing.T) {
	var comp Self
	fsys := vfs.NewMem()
	type appState struct{ Iter, Sum int }
	saved := appState{Iter: 42, Sum: 99}
	var restored appState
	continued := 0

	proc := &fakeProc{pid: 3, self: &SelfCallbacks{
		Checkpoint: func(fsys vfs.FS, dir string) error {
			data, err := json.Marshal(saved)
			if err != nil {
				return err
			}
			return fsys.WriteFile(dir+"/app_state.json", data)
		},
		Continue: func() error { continued++; return nil },
		Restart: func(fsys vfs.FS, dir string) error {
			data, err := fsys.ReadFile(dir + "/app_state.json")
			if err != nil {
				return err
			}
			return json.Unmarshal(data, &restored)
		},
	}}

	files, err := comp.Checkpoint(proc, fsys, "snap")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(files) != 1 || files[0] != "app_state.json" {
		t.Errorf("files = %v, want [app_state.json]", files)
	}
	if err := comp.Continue(proc); err != nil {
		t.Fatalf("Continue: %v", err)
	}
	if continued != 1 {
		t.Errorf("continue callback ran %d times, want 1", continued)
	}
	if err := comp.Restart(proc, fsys, "snap", files); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if restored != saved {
		t.Errorf("restored = %+v, want %+v", restored, saved)
	}
}

func TestSelfWithoutCallbacks(t *testing.T) {
	var comp Self
	proc := &fakeProc{pid: 1} // no callbacks registered
	if _, err := comp.Checkpoint(proc, vfs.NewMem(), "d"); !errors.Is(err, ErrNotSupported) {
		t.Errorf("Checkpoint err = %v, want ErrNotSupported", err)
	}
	if err := comp.Restart(proc, vfs.NewMem(), "d", nil); !errors.Is(err, ErrNotSupported) {
		t.Errorf("Restart err = %v, want ErrNotSupported", err)
	}
	if err := comp.Continue(proc); err != nil {
		t.Errorf("Continue without callback should be a no-op, got %v", err)
	}
}

func TestSelfEnumeratesNestedFiles(t *testing.T) {
	var comp Self
	fsys := vfs.NewMem()
	proc := &fakeProc{pid: 1, self: &SelfCallbacks{
		Checkpoint: func(fsys vfs.FS, dir string) error {
			for _, f := range []string{"/a.dat", "/sub/b.dat", "/sub/deep/c.dat"} {
				if err := fsys.WriteFile(dir+f, []byte("x")); err != nil {
					return err
				}
			}
			return nil
		},
	}}
	files, err := comp.Checkpoint(proc, fsys, "snap")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := []string{"a.dat", "sub/b.dat", "sub/deep/c.dat"}
	if len(files) != len(want) {
		t.Fatalf("files = %v, want %v", files, want)
	}
	for i := range want {
		if files[i] != want[i] {
			t.Errorf("files[%d] = %q, want %q", i, files[i], want[i])
		}
	}
}

func TestNoneComponent(t *testing.T) {
	var comp None
	if _, err := comp.Checkpoint(&fakeProc{}, vfs.NewMem(), "d"); !errors.Is(err, ErrNotSupported) {
		t.Errorf("Checkpoint err = %v", err)
	}
	if err := comp.Restart(&fakeProc{}, vfs.NewMem(), "d", nil); !errors.Is(err, ErrNotSupported) {
		t.Errorf("Restart err = %v", err)
	}
	if err := comp.Continue(&fakeProc{}); err != nil {
		t.Errorf("Continue: %v", err)
	}
}

func TestGateEnableDisable(t *testing.T) {
	g := NewGate()
	if g.Enabled() {
		t.Error("new gate should be disabled (pre-MPI_INIT)")
	}
	if err := g.Begin(); !errors.Is(err, ErrCheckpointDisabled) {
		t.Errorf("Begin while disabled: err = %v", err)
	}
	g.Enable()
	if !g.Enabled() {
		t.Error("gate not enabled after Enable")
	}
	if err := g.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if !g.InProgress() {
		t.Error("InProgress = false during checkpoint window")
	}
	if err := g.Begin(); !errors.Is(err, ErrCheckpointActive) {
		t.Errorf("second Begin: err = %v, want ErrCheckpointActive", err)
	}
	g.End()
	if g.InProgress() {
		t.Error("InProgress = true after End")
	}
	g.Disable()
	if err := g.Begin(); !errors.Is(err, ErrCheckpointDisabled) {
		t.Errorf("Begin after Disable: err = %v", err)
	}
}

func TestGateBeginWaitsForActiveOperations(t *testing.T) {
	g := NewGate()
	g.Enable()
	g.Enter() // an MPI_SEND is in flight

	began := make(chan error, 1)
	go func() {
		began <- g.Begin()
	}()
	select {
	case err := <-began:
		t.Fatalf("Begin returned (%v) while a protected op was active", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.Exit()
	select {
	case err := <-began:
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Begin never proceeded after operations drained")
	}
	g.End()
}

func TestGateEnterBlocksDuringCheckpoint(t *testing.T) {
	g := NewGate()
	g.Enable()
	if err := g.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	var entered atomic.Bool
	done := make(chan struct{})
	go func() {
		g.Enter() // must block until End
		entered.Store(true)
		g.Exit()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if entered.Load() {
		t.Fatal("Enter proceeded during an active checkpoint")
	}
	g.End()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Enter never unblocked after End")
	}
}

func TestGateConcurrentStress(t *testing.T) {
	g := NewGate()
	g.Enable()
	var inside atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup

	// Worker threads hammer protected operations.
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.Enter()
				inside.Add(1)
				if g.InProgress() {
					violations.Add(1)
				}
				inside.Add(-1)
				g.Exit()
			}
		}()
	}
	// Checkpointer repeatedly claims the window and asserts exclusion.
	for i := 0; i < 50; i++ {
		if err := g.Begin(); err != nil {
			t.Fatalf("Begin #%d: %v", i, err)
		}
		if n := inside.Load(); n != 0 {
			t.Fatalf("checkpoint window entered with %d active ops", n)
		}
		g.End()
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d protected ops observed an in-progress checkpoint", v)
	}
}

func TestGateMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Exit without Enter", func() { NewGate().Exit() })
	mustPanic("End without Begin", func() { NewGate().End() })
}

func ExampleSimCR() {
	fsys := vfs.NewMem()
	proc := &fakeProc{pid: 1, state: []byte("app state")}
	var comp SimCR
	files, _ := comp.Checkpoint(proc, fsys, "opal_snapshot_0.ckpt")
	fmt.Println("payload:", files[0])

	fresh := &fakeProc{pid: 2}
	_ = comp.Restart(fresh, fsys, "opal_snapshot_0.ckpt", files)
	fmt.Println("restored:", string(fresh.state))
	// Output:
	// payload: process_image.bin
	// restored: app state
}
