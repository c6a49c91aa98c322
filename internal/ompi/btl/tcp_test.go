package btl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fabrics returns a fresh JobFabric of each component for n ranks, so
// the conformance tests prove sm and tcp behave identically.
func fabrics(t *testing.T, n int) map[string]JobFabric {
	t.Helper()
	out := make(map[string]JobFabric)
	for _, comp := range []Component{&SM{}, &TCP{}} {
		f, err := comp.NewFabric(n)
		if err != nil {
			t.Fatalf("%s.NewFabric(%d): %v", comp.Name(), n, err)
		}
		t.Cleanup(f.Close)
		out[comp.Name()] = f
	}
	return out
}

func TestFrameworkComponents(t *testing.T) {
	f := NewFramework()
	c, err := f.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "sm" {
		t.Errorf("default = %q, want sm", c.Name())
	}
	if _, err := f.Lookup("tcp"); err != nil {
		t.Errorf("tcp not registered: %v", err)
	}
}

func TestPortConformanceSendRecv(t *testing.T) {
	for name, fab := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			a, err := fab.Attach(0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fab.Attach(1)
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("conformance payload")
			err = a.Send(Frag{Kind: KindEager, Dst: 1, Tag: 9, MsgID: 42, Size: len(payload), Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if fr.Kind != KindEager || fr.Src != 0 || fr.Dst != 1 || fr.Tag != 9 ||
				fr.MsgID != 42 || fr.Size != len(payload) || !bytes.Equal(fr.Payload, payload) {
				t.Errorf("frag = %+v", fr)
			}
		})
	}
}

func TestPortConformanceNegativeTags(t *testing.T) {
	// Collective tags are large negative values; the wire format must
	// round-trip them exactly.
	for name, fab := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			a, _ := fab.Attach(0)
			b, _ := fab.Attach(1)
			tag := -(1 << 20) - 37
			if err := a.Send(Frag{Kind: KindEager, Dst: 1, Tag: tag}); err != nil {
				t.Fatal(err)
			}
			fr, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if fr.Tag != tag {
				t.Errorf("tag = %d, want %d", fr.Tag, tag)
			}
		})
	}
}

func TestPortConformanceFIFO(t *testing.T) {
	for name, fab := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			p0, _ := fab.Attach(0)
			p1, _ := fab.Attach(1)
			p2, _ := fab.Attach(2)
			const per = 200
			var wg sync.WaitGroup
			for _, sender := range []Port{p1, p2} {
				wg.Add(1)
				go func(s Port) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := s.Send(Frag{Kind: KindEager, Dst: 0, Tag: i}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(sender)
			}
			last := map[int]int{1: -1, 2: -1}
			for i := 0; i < 2*per; i++ {
				fr, err := p0.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if fr.Tag != last[fr.Src]+1 {
					t.Fatalf("%s: src %d tag %d after %d (FIFO violated)", name, fr.Src, fr.Tag, last[fr.Src])
				}
				last[fr.Src] = fr.Tag
			}
			wg.Wait()
		})
	}
}

func TestPortConformanceLargePayload(t *testing.T) {
	for name, fab := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			a, _ := fab.Attach(0)
			b, _ := fab.Attach(1)
			big := bytes.Repeat([]byte{0x5A}, 1<<20)
			done := make(chan error, 1)
			go func() {
				done <- a.Send(Frag{Kind: KindData, Dst: 1, MsgID: 7, Payload: big})
			}()
			fr, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fr.Payload, big) {
				t.Errorf("1MiB payload corrupted (%d bytes)", len(fr.Payload))
			}
		})
	}
}

func TestPortConformanceSelfSend(t *testing.T) {
	// MPI permits a rank to message itself; both fabrics must loop a
	// self-addressed fragment back to the sender's own queue.
	for name, fab := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			a, err := fab.Attach(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send(Frag{Kind: KindEager, Dst: 0, Tag: 1, Payload: []byte("me")}); err != nil {
				t.Fatalf("self send: %v", err)
			}
			fr, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if fr.Src != 0 || fr.Dst != 0 || string(fr.Payload) != "me" {
				t.Errorf("frag = %+v", fr)
			}
		})
	}
}

// TestPortConformanceTryRecv: RecvUntil polls at a past deadline, gives
// up at a future one, and returns a fragment as soon as it lands.
func TestPortConformanceTryRecv(t *testing.T) {
	for name, fab := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			a, _ := fab.Attach(0)
			b, _ := fab.Attach(1)
			if _, ok, err := b.RecvUntil(time.Now().Add(-time.Second)); ok || err != nil {
				t.Errorf("poll empty = %v %v", ok, err)
			}
			start := time.Now()
			if _, ok, err := b.RecvUntil(start.Add(20 * time.Millisecond)); ok || err != nil {
				t.Errorf("wait empty = %v %v", ok, err)
			}
			if waited := time.Since(start); waited < 20*time.Millisecond {
				t.Errorf("wait empty returned after %v, before its deadline", waited)
			}
			if err := a.Send(Frag{Kind: KindCtrl, Colour: 3, Dst: 1, Payload: []byte("x")}); err != nil {
				t.Fatal(err)
			}
			// TCP delivery is asynchronous: the wait covers it.
			fr, ok, err := b.RecvUntil(time.Now().Add(2 * time.Second))
			if err != nil || !ok {
				t.Fatalf("fragment never arrived: %v %v", ok, err)
			}
			if fr.Kind != KindCtrl || fr.Colour != 3 {
				t.Errorf("kind = %v colour = %d", fr.Kind, fr.Colour)
			}
		})
	}
}

func TestTCPDetachFailsBlockedRecv(t *testing.T) {
	fab, err := (&TCP{}).NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	_, _ = fab.Attach(0)
	b, _ := fab.Attach(1)
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	fab.Detach(1)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDetached) {
			t.Errorf("err = %v, want ErrDetached", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked")
	}
}

func TestTCPValidation(t *testing.T) {
	if _, err := (&TCP{}).NewFabric(0); err == nil {
		t.Error("NewFabric(0) succeeded")
	}
	fab, err := (&TCP{}).NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if _, err := fab.Attach(5); err == nil {
		t.Error("Attach(out of range) succeeded")
	}
	if _, err := fab.Attach(0); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Attach(0); err == nil {
		t.Error("double attach succeeded")
	}
	fab.Close()
	fab.Close() // idempotent
	if _, err := fab.Attach(0); err == nil {
		t.Error("attach after Close succeeded")
	}
}

func TestTCPConcurrentPairsStress(t *testing.T) {
	const n = 4
	fab, err := (&TCP{}).NewFabric(n)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	ports := make([]Port, n)
	for r := 0; r < n; r++ {
		ports[r], err = fab.Attach(r)
		if err != nil {
			t.Fatal(err)
		}
	}
	const per = 100
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for d := 0; d < n; d++ {
					if d == r {
						continue
					}
					payload := []byte(fmt.Sprintf("%d->%d #%d", r, d, i))
					if err := ports[r].Send(Frag{Kind: KindEager, Dst: d, Tag: i, Payload: payload}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		}(r)
	}
	var rg sync.WaitGroup
	for r := 0; r < n; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; i < per*(n-1); i++ {
				fr, err := ports[r].Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				want := fmt.Sprintf("%d->%d #%d", fr.Src, r, fr.Tag)
				if string(fr.Payload) != want {
					t.Errorf("payload %q, want %q", fr.Payload, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	rg.Wait()
}
