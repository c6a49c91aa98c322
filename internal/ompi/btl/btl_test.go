package btl

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func fabric2(t *testing.T) (*Fabric, *Endpoint, *Endpoint) {
	t.Helper()
	f := NewFabric()
	a, err := f.Attach(0)
	if err != nil {
		t.Fatalf("Attach(0): %v", err)
	}
	b, err := f.Attach(1)
	if err != nil {
		t.Fatalf("Attach(1): %v", err)
	}
	return f, a, b
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindEager: "EAGER", KindRTS: "RTS", KindCTS: "CTS",
		KindData: "DATA", KindCtrl: "CTRL", Kind(99): "KIND(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestSendRecv(t *testing.T) {
	_, a, b := fabric2(t)
	if err := a.Send(Frag{Kind: KindEager, Dst: 1, Tag: 7, Payload: []byte("hi")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	fr, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if fr.Src != 0 || fr.Dst != 1 || fr.Tag != 7 || string(fr.Payload) != "hi" {
		t.Errorf("frag = %+v", fr)
	}
}

func TestPerPairFIFO(t *testing.T) {
	_, a, b := fabric2(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(Frag{Kind: KindEager, Dst: 1, Tag: i}); err != nil {
			t.Fatal(err)
		}
	}
	var lastSeq uint64
	for i := 0; i < n; i++ {
		fr, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Tag != i {
			t.Fatalf("fragment %d arrived out of order (tag %d)", i, fr.Tag)
		}
		if i > 0 && fr.Seq != lastSeq+1 {
			t.Fatalf("sequence gap: %d -> %d", lastSeq, fr.Seq)
		}
		lastSeq = fr.Seq
	}
}

func TestConcurrentSendersInterleave(t *testing.T) {
	f := NewFabric()
	recv, err := f.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	const senders = 8
	const per = 100
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep, err := f.Attach(s)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(Frag{Kind: KindEager, Dst: 0, Tag: i}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(ep)
	}
	// Per-sender FIFO must hold even with interleaving.
	lastTag := make(map[int]int)
	for i := 0; i < senders*per; i++ {
		fr, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if prev, seen := lastTag[fr.Src]; seen && fr.Tag != prev+1 {
			t.Fatalf("sender %d: tag %d after %d", fr.Src, fr.Tag, prev)
		}
		lastTag[fr.Src] = fr.Tag
	}
	wg.Wait()
}

// TestTryRecv: RecvUntil with a past deadline polls without blocking.
func TestTryRecv(t *testing.T) {
	_, a, b := fabric2(t)
	if _, ok, err := b.RecvUntil(time.Time{}); ok || err != nil {
		t.Errorf("poll on empty = ok:%v err:%v", ok, err)
	}
	if err := a.Send(Frag{Kind: KindCtrl, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	fr, ok, err := b.RecvUntil(time.Time{})
	if !ok || err != nil {
		t.Fatalf("poll = ok:%v err:%v", ok, err)
	}
	if fr.Kind != KindCtrl {
		t.Errorf("Kind = %v", fr.Kind)
	}
}

func TestSendToMissingPeer(t *testing.T) {
	f := NewFabric()
	a, _ := f.Attach(0)
	if err := a.Send(Frag{Kind: KindEager, Dst: 5}); !errors.Is(err, ErrNoPeer) {
		t.Errorf("err = %v, want ErrNoPeer", err)
	}
}

func TestDetachUnblocksRecv(t *testing.T) {
	f, _, b := fabric2(t)
	errc := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	f.Detach(1)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDetached) {
			t.Errorf("err = %v, want ErrDetached", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked after Detach")
	}
	// Sending to the detached rank now fails.
	a, _ := f.lookup(0)
	if err := a.Send(Frag{Kind: KindEager, Dst: 1}); !errors.Is(err, ErrNoPeer) {
		t.Errorf("send after detach: %v", err)
	}
}

func TestDetachDropsQueuedFrags(t *testing.T) {
	f, a, b := fabric2(t)
	if err := a.Send(Frag{Kind: KindEager, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d", b.Pending())
	}
	f.Detach(1)
	// Reattach: rank 1 starts with an empty queue — channel state is
	// never carried across a detach/attach (restart) cycle.
	b2, err := f.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Pending() != 0 {
		t.Errorf("reattached endpoint has %d stale frags", b2.Pending())
	}
}

func TestReattachAfterDetach(t *testing.T) {
	f, a, _ := fabric2(t)
	if _, err := f.Attach(0); err == nil {
		t.Error("double attach succeeded")
	}
	f.Detach(0)
	if err := a.Send(Frag{Kind: KindEager, Dst: 1}); !errors.Is(err, ErrDetached) {
		t.Errorf("send on detached endpoint: %v", err)
	}
	a2, err := f.Attach(0)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if err := a2.Send(Frag{Kind: KindEager, Dst: 1}); err != nil {
		t.Errorf("send after reattach: %v", err)
	}
}

func TestAttachedList(t *testing.T) {
	f := NewFabric()
	for r := 0; r < 4; r++ {
		if _, err := f.Attach(r); err != nil {
			t.Fatal(err)
		}
	}
	f.Detach(2)
	got := f.Attached()
	if len(got) != 3 {
		t.Errorf("Attached = %v", got)
	}
	for _, r := range got {
		if r == 2 {
			t.Error("detached rank still listed")
		}
	}
}
