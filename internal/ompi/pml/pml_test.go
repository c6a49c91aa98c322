package pml

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ompi/btl"
	"repro/internal/opal/wire"
)

// world builds n engines on one fabric, with optional hooks per rank.
func world(t *testing.T, n int, mkHooks func(rank int) Hooks) []*Engine {
	t.Helper()
	f := btl.NewFabric()
	engines := make([]*Engine, n)
	for r := 0; r < n; r++ {
		ep, err := f.Attach(r)
		if err != nil {
			t.Fatalf("Attach(%d): %v", r, err)
		}
		var h Hooks
		if mkHooks != nil {
			h = mkHooks(r)
		}
		engines[r] = New(Config{Rank: r, Size: n, Endpoint: ep, Hooks: h})
	}
	return engines
}

// run executes fn(rank) concurrently on every rank and waits.
func run(t *testing.T, engines []*Engine, fn func(rank int, e *Engine) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(engines))
	for r := range engines {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r, engines[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestEagerRoundTrip(t *testing.T) {
	es := world(t, 2, nil)
	run(t, es, func(rank int, e *Engine) error {
		if rank == 0 {
			return e.Send(1, 5, []byte("small"))
		}
		data, st, err := e.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "small" || st.Source != 0 || st.Tag != 5 || st.Size != 5 {
			return fmt.Errorf("got %q %+v", data, st)
		}
		return nil
	})
}

func TestRendezvousRoundTrip(t *testing.T) {
	es := world(t, 2, nil)
	big := bytes.Repeat([]byte{0xAB}, DefaultEagerLimit*4)
	run(t, es, func(rank int, e *Engine) error {
		if rank == 0 {
			return e.Send(1, 9, big)
		}
		data, st, err := e.Recv(0, 9)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, big) || st.Size != len(big) {
			return fmt.Errorf("payload mismatch: %d bytes, status %+v", len(data), st)
		}
		return nil
	})
}

func TestUnexpectedMessageQueue(t *testing.T) {
	es := world(t, 2, nil)
	// Rank 0 sends before rank 1 posts: the message must land in the
	// unexpected queue and match later.
	if err := es[0].Send(1, 3, []byte("early")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Give the fragment time to sit unclaimed, then receive.
	for es[1].UnexpectedCount() == 0 {
		if err := es[1].Progress(); err != nil {
			t.Fatal(err)
		}
	}
	data, st, err := es[1].Recv(0, 3)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(data) != "early" || st.Source != 0 {
		t.Errorf("got %q %+v", data, st)
	}
}

func TestWildcardMatching(t *testing.T) {
	es := world(t, 3, nil)
	run(t, es, func(rank int, e *Engine) error {
		switch rank {
		case 1:
			return e.Send(0, 11, []byte("from1"))
		case 2:
			return e.Send(0, 22, []byte("from2"))
		default:
			got := map[string]bool{}
			for i := 0; i < 2; i++ {
				data, st, err := e.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				if st.Source != 1 && st.Source != 2 {
					return fmt.Errorf("bad source %d", st.Source)
				}
				got[string(data)] = true
			}
			if !got["from1"] || !got["from2"] {
				return fmt.Errorf("missing messages: %v", got)
			}
			return nil
		}
	})
}

func TestArrivalOrderMatching(t *testing.T) {
	es := world(t, 2, nil)
	for i := 0; i < 10; i++ {
		if err := es[0].Send(1, 7, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		data, _, err := es[1].Recv(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Fatalf("message %d arrived as %d: arrival order violated", i, data[0])
		}
	}
}

func TestTagSelectiveMatching(t *testing.T) {
	es := world(t, 2, nil)
	if err := es[0].Send(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := es[0].Send(1, 2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	// Receive tag 2 first even though tag 1 arrived first.
	data, _, err := es[1].Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Errorf("tag-2 recv got %q", data)
	}
	data, _, err = es[1].Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "one" {
		t.Errorf("tag-1 recv got %q", data)
	}
}

func TestIsendIrecvWaitTest(t *testing.T) {
	es := world(t, 2, nil)
	run(t, es, func(rank int, e *Engine) error {
		if rank == 0 {
			h, err := e.Isend(1, 4, []byte("async"))
			if err != nil {
				return err
			}
			_, _, err = e.Wait(h)
			return err
		}
		h, err := e.Irecv(0, 4)
		if err != nil {
			return err
		}
		for {
			done, data, st, err := e.Test(h)
			if err != nil {
				return err
			}
			if done {
				if string(data) != "async" || st.Tag != 4 {
					return fmt.Errorf("got %q %+v", data, st)
				}
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestWaitall(t *testing.T) {
	es := world(t, 2, nil)
	run(t, es, func(rank int, e *Engine) error {
		if rank == 0 {
			var hs []Request
			for i := 0; i < 5; i++ {
				h, err := e.Isend(1, i, []byte{byte(i)})
				if err != nil {
					return err
				}
				hs = append(hs, h)
			}
			return e.Waitall(hs)
		}
		var hs []Request
		for i := 0; i < 5; i++ {
			h, err := e.Irecv(0, i)
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		return e.Waitall(hs)
	})
}

func TestProbeAndIprobe(t *testing.T) {
	es := world(t, 2, nil)
	if _, ok, err := es[1].Iprobe(0, 8); ok || err != nil {
		t.Fatalf("Iprobe empty = %v, %v", ok, err)
	}
	if err := es[0].Send(1, 8, []byte("probe me")); err != nil {
		t.Fatal(err)
	}
	st, err := es[1].Probe(0, 8)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if st.Size != 8 || st.Tag != 8 {
		t.Errorf("Probe status = %+v", st)
	}
	// Probing must not consume: the message is still receivable.
	data, _, err := es[1].Recv(0, 8)
	if err != nil || string(data) != "probe me" {
		t.Errorf("Recv after Probe = %q, %v", data, err)
	}
}

func TestInvalidArguments(t *testing.T) {
	es := world(t, 2, nil)
	if _, err := es[0].Isend(5, 0, nil); err == nil {
		t.Error("Isend to invalid rank succeeded")
	}
	if _, err := es[0].Irecv(7, 0); err == nil {
		t.Error("Irecv from invalid rank succeeded")
	}
	if _, _, err := es[0].Wait(Request(999)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Wait(bad) err = %v", err)
	}
	if _, _, _, err := es[0].Test(Request(999)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Test(bad) err = %v", err)
	}
}

// recHooks records hook invocations for verification.
type recHooks struct {
	mu       sync.Mutex
	sent     int
	arrived  int
	ctrl     [][]byte
	holdFunc func(fr btl.Frag) bool
}

func (h *recHooks) MessageSent(dst, tag, size int) {
	h.mu.Lock()
	h.sent++
	h.mu.Unlock()
}
func (h *recHooks) MessageArrived(src, tag, size int) {
	h.mu.Lock()
	h.arrived++
	h.mu.Unlock()
}
func (h *recHooks) CtrlFrag(fr btl.Frag) error {
	h.mu.Lock()
	h.ctrl = append(h.ctrl, fr.Payload)
	h.mu.Unlock()
	return nil
}
func (h *recHooks) HoldFrag(fr btl.Frag) bool {
	if h.holdFunc == nil {
		return false
	}
	return h.holdFunc(fr)
}
func (h *recHooks) counts() (int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sent, h.arrived
}

func TestHooksCountWholeMessages(t *testing.T) {
	hooks := make([]*recHooks, 2)
	es := world(t, 2, func(rank int) Hooks {
		hooks[rank] = &recHooks{}
		return hooks[rank]
	})
	big := bytes.Repeat([]byte{1}, DefaultEagerLimit*2)
	run(t, es, func(rank int, e *Engine) error {
		if rank == 0 {
			if err := e.Send(1, 0, []byte("eager")); err != nil {
				return err
			}
			return e.Send(1, 0, big) // rendezvous
		}
		for i := 0; i < 2; i++ {
			if _, _, err := e.Recv(0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if sent, _ := hooks[0].counts(); sent != 2 {
		t.Errorf("rank0 sent count = %d, want 2 (whole messages, not fragments)", sent)
	}
	if _, arrived := hooks[1].counts(); arrived != 2 {
		t.Errorf("rank1 arrived count = %d, want 2", arrived)
	}
}

func TestCtrlFragRouting(t *testing.T) {
	hooks := make([]*recHooks, 2)
	es := world(t, 2, func(rank int) Hooks {
		hooks[rank] = &recHooks{}
		return hooks[rank]
	})
	if err := es[0].SendCtrl(1, []byte("bookmark:7")); err != nil {
		t.Fatal(err)
	}
	if err := es[1].ProgressUntil(func() bool {
		hooks[1].mu.Lock()
		defer hooks[1].mu.Unlock()
		return len(hooks[1].ctrl) > 0
	}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if string(hooks[1].ctrl[0]) != "bookmark:7" {
		t.Errorf("ctrl payload = %q", hooks[1].ctrl[0])
	}
}

func TestCtrlFragWithoutHooksErrors(t *testing.T) {
	es := world(t, 2, nil)
	if err := es[0].SendCtrl(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Drive progress until the control fragment surfaces the error.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := es[1].Progress()
		if err != nil {
			return // expected
		}
		if time.Now().After(deadline) {
			t.Fatal("control fragment never produced an error")
		}
	}
}

func TestDrainForcesRendezvousCompletion(t *testing.T) {
	es := world(t, 2, nil)
	big := bytes.Repeat([]byte{9}, DefaultEagerLimit*3)
	// Rank 0 starts a rendezvous send with no matching receive posted.
	h, err := es[0].Isend(1, 2, big)
	if err != nil {
		t.Fatal(err)
	}
	if es[0].PendingOutgoingRendezvous() != 1 {
		t.Fatalf("PendingOutgoingRendezvous = %d", es[0].PendingOutgoingRendezvous())
	}
	// Receiver enters quiesce: the RTS must be auto-CTS'd and the
	// payload pulled into the unexpected queue.
	if err := es[1].SetDraining(true); err != nil {
		t.Fatal(err)
	}
	doneBoth := func() bool {
		return es[1].UnexpectedCount() == 1 && es[1].PendingIncomingRendezvous() == 0
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Sender services the CTS during its own drain loop.
		if err := es[0].ProgressUntil(func() bool { return es[0].PendingOutgoingRendezvous() == 0 }, 5*time.Second); err != nil {
			t.Errorf("sender drain: %v", err)
		}
	}()
	if err := es[1].ProgressUntil(doneBoth, 5*time.Second); err != nil {
		t.Fatalf("receiver drain: %v", err)
	}
	wg.Wait()
	if _, _, err := es[0].Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// After quiesce the receiver can receive the full message.
	if err := es[1].SetDraining(false); err != nil {
		t.Fatal(err)
	}
	data, _, err := es[1].Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, big) {
		t.Errorf("drained rendezvous payload mismatch (%d bytes)", len(data))
	}
}

func TestHoldbackExcludesAndReinjects(t *testing.T) {
	holdAll := false
	hooks0 := &recHooks{}
	hooks1 := &recHooks{holdFunc: func(fr btl.Frag) bool { return holdAll }}
	es := world(t, 2, func(rank int) Hooks {
		if rank == 0 {
			return hooks0
		}
		return hooks1
	})
	if err := es[1].SetDraining(true); err != nil {
		t.Fatal(err)
	}
	holdAll = true
	if err := es[0].Send(1, 6, []byte("post-cut")); err != nil {
		t.Fatal(err)
	}
	if err := es[1].ProgressUntil(func() bool { return es[1].HeldBack() == 1 }, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if es[1].UnexpectedCount() != 0 {
		t.Error("held fragment leaked into the unexpected queue")
	}
	st, err := es[1].SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if len(st.Unexpected) != 0 {
		t.Errorf("held fragment captured in the image: %+v", st.Unexpected)
	}
	// Continue: reinjection makes the message receivable again.
	holdAll = false
	if err := es[1].SetDraining(false); err != nil {
		t.Fatal(err)
	}
	data, _, err := es[1].Recv(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "post-cut" {
		t.Errorf("reinjected = %q", data)
	}
}

func TestSaveRestoreAcrossFabric(t *testing.T) {
	es := world(t, 2, nil)
	// Build up state on rank 1: one unexpected message, one posted
	// receive, one completed-but-unwaited receive.
	if err := es[0].Send(1, 10, []byte("unexpected")); err != nil {
		t.Fatal(err)
	}
	if err := es[0].Send(1, 11, []byte("completed")); err != nil {
		t.Fatal(err)
	}
	hDone, err := es[1].Irecv(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	hPending, err := es[1].Irecv(0, 12) // never sent pre-checkpoint
	if err != nil {
		t.Fatal(err)
	}
	// Progress until tag-11 completed and tag-10 is in the unexpected queue.
	deadline := time.Now().Add(2 * time.Second)
	for es[1].UnexpectedCount() < 1 {
		if err := es[1].Progress(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("state never materialized")
		}
	}
	for {
		done, data, _, err := es[1].Test(hDone)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if string(data) != "completed" {
				t.Fatalf("completed recv = %q", data)
			}
			break
		}
	}
	// Re-post a completed receive so the table has a done entry:
	hDone2, err := es[1].Irecv(0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := es[0].Send(1, 13, []byte("done2")); err != nil {
		t.Fatal(err)
	}
	for {
		if err := es[1].Progress(); err != nil {
			t.Fatal(err)
		}
		if r := es[1].reqs[hDone2]; r != nil && r.done {
			break
		}
	}

	saved, err := es[1].SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	decoded, err := roundTrip(saved)
	if err != nil {
		t.Fatalf("state codec: %v", err)
	}

	// "Restart" rank 1 on a brand-new fabric with both ranks fresh.
	f2 := btl.NewFabric()
	ep0, _ := f2.Attach(0)
	ep1, _ := f2.Attach(1)
	e0 := New(Config{Rank: 0, Size: 2, Endpoint: ep0})
	e1 := New(Config{Rank: 1, Size: 2, Endpoint: ep1})
	if err := e1.RestoreState(decoded); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	// The unexpected message survives into the restored engine.
	data, st, err := e1.Recv(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "unexpected" || st.Source != 0 {
		t.Errorf("restored unexpected = %q %+v", data, st)
	}
	// The completed-unwaited receive can be waited after restart.
	data, _, err = e1.Wait(hDone2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "done2" {
		t.Errorf("restored completed recv = %q", data)
	}
	// The pending posted receive is still posted: a post-restart send
	// completes it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e0.Send(1, 12, []byte("late")); err != nil {
			t.Errorf("post-restart send: %v", err)
		}
	}()
	data, _, err = e1.Wait(hPending)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "late" {
		t.Errorf("restored pending recv = %q", data)
	}
	wg.Wait()
}

func TestSaveStateRejectsInFlightRendezvous(t *testing.T) {
	es := world(t, 2, nil)
	big := bytes.Repeat([]byte{1}, DefaultEagerLimit*2)
	if _, err := es[0].Isend(1, 0, big); err != nil {
		t.Fatal(err)
	}
	if _, err := es[0].SaveState(); err == nil {
		t.Error("SaveState succeeded with a pending outgoing rendezvous")
	}
}

// TestRestoreStateValidation: RestoreState refuses, and ReadState fails
// to decode, a state with a rank outside the job or a dangling posted
// handle, so an image that decodes always restores.
func TestRestoreStateValidation(t *testing.T) {
	es := world(t, 2, nil)
	for name, s := range map[string]SavedState{
		"out-of-range rank":      {Rank: 5, Size: 2},
		"dangling posted handle": {Rank: 0, Size: 2, Posted: []Request{9}, Requests: map[Request]SavedReq{}},
	} {
		if err := es[0].RestoreState(s); err == nil {
			t.Errorf("RestoreState accepted a %s", name)
		}
		r := wire.NewReader(AppendState(nil, s))
		if ReadState(r); r.Close() == nil {
			t.Errorf("ReadState accepted a %s", name)
		}
	}
}

func TestProgressUntilTimeout(t *testing.T) {
	es := world(t, 2, nil)
	err := es[0].ProgressUntil(func() bool { return false }, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// roundTrip passes s through the image section codec.
func roundTrip(s SavedState) (SavedState, error) {
	r := wire.NewReader(AppendState(nil, s))
	got := ReadState(r)
	return got, r.Close()
}

// randomState builds a saved state with unexpected messages, posted
// receives, done and pending requests of both kinds, negative tags and
// ints, and (often) empty tables.
func randomState(rng *rand.Rand) SavedState {
	payload := func() []byte {
		if rng.Intn(3) == 0 {
			return nil
		}
		p := make([]byte, 1+rng.Intn(64))
		rng.Read(p)
		return p
	}
	s := SavedState{
		Rank: rng.Intn(4), Size: 4, EagerLimit: 1 + rng.Intn(10000),
		NextReq: Request(rng.Intn(1000) + 1), NextMsg: rng.Uint64(),
		Requests: map[Request]SavedReq{},
	}
	for i := rng.Intn(5); i > 0; i-- {
		p := payload()
		s.Unexpected = append(s.Unexpected, SavedMsg{Src: rng.Intn(4), Tag: rng.Intn(20) - 10, Size: len(p), Payload: p})
	}
	for i := rng.Intn(6); i > 0; i-- {
		h := Request(rng.Intn(1 << 20))
		q := SavedReq{Kind: uint8(reqSend + reqKind(rng.Intn(2))), Done: rng.Intn(2) == 0, Src: rng.Intn(5) - 1, Tag: rng.Intn(9) - 1}
		if q.Done {
			q.Payload = payload()
			q.Size = len(q.Payload)
		} else if q.Kind == uint8(reqRecv) {
			s.Posted = append(s.Posted, h)
		}
		s.Requests[h] = q
	}
	return s
}

// TestQuickStateCodec: any saved state survives the image section codec
// exactly, and every strict prefix of its encoding is rejected.
func TestQuickStateCodec(t *testing.T) {
	prop := func(seed int64) bool {
		s := randomState(rand.New(rand.NewSource(seed)))
		got, err := roundTrip(s)
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Logf("seed %d: %v\n got %+v\nwant %+v", seed, err, got, s)
			return false
		}
		blob := AppendState(nil, s)
		for n := 0; n < len(blob); n++ {
			r := wire.NewReader(blob[:n])
			if ReadState(r); r.Close() == nil {
				t.Logf("seed %d: %d-byte prefix of %d decoded", seed, n, len(blob))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStateCodecRejects: an unknown request kind, a repeated handle and
// an oversized count fail the section instead of being restored.
func TestStateCodecRejects(t *testing.T) {
	decodeErr := func(b []byte) error {
		r := wire.NewReader(b)
		ReadState(r)
		return r.Close()
	}
	base := SavedState{Rank: 0, Size: 2, Requests: map[Request]SavedReq{1: {Kind: uint8(reqRecv)}}}
	if _, err := roundTrip(base); err != nil {
		t.Fatalf("valid state: %v", err)
	}
	bad := base
	bad.Requests = map[Request]SavedReq{1: {Kind: 9}}
	if _, err := roundTrip(bad); err == nil {
		t.Error("unknown request kind accepted")
	}
	// Two entries under one handle: splice the first entry in twice.
	blob := AppendState(nil, base)
	entry := blob[len(blob)-7:]
	dup := append(append(append([]byte(nil), blob[:len(blob)-8]...), 2), entry...)
	dup = append(dup, entry...)
	if decodeErr(dup) == nil {
		t.Error("duplicate request handle accepted")
	}
	// A huge unexpected-message count must fail before it allocates.
	huge := append(AppendState(nil, SavedState{Size: 1})[:5], 0xff, 0xff, 0xff, 0xff, 0x0f)
	if decodeErr(huge) == nil {
		t.Error("oversized count accepted")
	}
}

// TestRandomTrafficNoLossNoDup drives random eager/rendezvous traffic
// between 4 ranks and verifies every message is delivered exactly once
// and in per-pair order.
func TestRandomTrafficNoLossNoDup(t *testing.T) {
	const n = 4
	const msgsPerRank = 60
	es := world(t, n, nil)
	run(t, es, func(rank int, e *Engine) error {
		rng := rand.New(rand.NewSource(int64(rank) + 42))
		// Everyone sends msgsPerRank messages to the next rank and
		// receives the same number from the previous rank, interleaving
		// nonblocking sends with blocking receives on one goroutine
		// (the engine's single-threaded contract).
		next := (rank + 1) % n
		prev := (rank + n - 1) % n
		var hs []Request
		for i := 0; i < msgsPerRank; i++ {
			size := rng.Intn(DefaultEagerLimit * 2) // mix eager and rendezvous
			payload := make([]byte, size+1)
			payload[0] = byte(i)
			h, err := e.Isend(next, 1, payload)
			if err != nil {
				return err
			}
			hs = append(hs, h)
			data, st, err := e.Recv(prev, 1)
			if err != nil {
				return err
			}
			if st.Source != prev {
				return fmt.Errorf("message from %d, want %d", st.Source, prev)
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d out of order (got %d)", i, data[0])
			}
		}
		return e.Waitall(hs)
	})
}
