package crcp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/pml"
	"repro/internal/opal/inc"
)

// mkWorld builds n engines wrapped by fresh protocol instances from the
// named component.
func mkWorld(t testing.TB, n int, component string, params *mca.Params) ([]*pml.Engine, []Protocol) {
	t.Helper()
	f := NewFramework()
	comp, err := f.Lookup(component)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", component, err)
	}
	fabric := btl.NewFabric()
	engines := make([]*pml.Engine, n)
	protos := make([]Protocol, n)
	for r := 0; r < n; r++ {
		ep, err := fabric.Attach(r)
		if err != nil {
			t.Fatalf("Attach(%d): %v", r, err)
		}
		engines[r] = pml.New(pml.Config{Rank: r, Size: n, Endpoint: ep})
		protos[r] = comp.Wrap(engines[r], params, nil)
		engines[r].SetHooks(protos[r])
	}
	return engines, protos
}

// parallel runs fn per rank concurrently and fails on any error.
func parallel(t testing.TB, n int, fn func(rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestFrameworkDefaultIsBkmrk(t *testing.T) {
	f := NewFramework()
	c, err := f.Select(nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if c.Name() != "bkmrk" {
		t.Errorf("default = %q, want bkmrk", c.Name())
	}
	p := mca.NewParams()
	p.Set("crcp", "none")
	c, err = f.Select(p)
	if err != nil {
		t.Fatalf("Select(crcp=none): %v", err)
	}
	if c.Name() != "none" {
		t.Errorf("selected = %q, want none", c.Name())
	}
}

func TestNonePassthroughTraffic(t *testing.T) {
	engines, protos := mkWorld(t, 2, "none", nil)
	parallel(t, 2, func(rank int) error {
		if rank == 0 {
			return engines[0].Send(1, 3, []byte("through the wrapper"))
		}
		data, _, err := engines[1].Recv(0, 3)
		if err != nil {
			return err
		}
		if string(data) != "through the wrapper" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	// Passthrough lifecycle is all no-ops.
	for _, s := range []inc.State{inc.StateCheckpoint, inc.StateContinue, inc.StateRestart, inc.StateError} {
		if err := protos[0].FTEvent(s); err != nil {
			t.Errorf("none FTEvent(%v): %v", s, err)
		}
	}
	blob, err := protos[0].Save()
	if err != nil || blob != nil {
		t.Errorf("none Save = %v, %v", blob, err)
	}
}

func TestBkmrkCountsWholeMessages(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	big := bytes.Repeat([]byte{7}, pml.DefaultEagerLimit*2)
	parallel(t, 2, func(rank int) error {
		if rank == 0 {
			if err := engines[0].Send(1, 0, []byte("eager")); err != nil {
				return err
			}
			return engines[0].Send(1, 0, big)
		}
		for i := 0; i < 2; i++ {
			if _, _, err := engines[1].Recv(0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	p0 := protos[0].(*bkmrkProto)
	p1 := protos[1].(*bkmrkProto)
	if p0.sent[1] != 2 {
		t.Errorf("rank0 sent[1] = %d, want 2", p0.sent[1])
	}
	if p1.recvd[0] != 2 {
		t.Errorf("rank1 recvd[0] = %d, want 2", p1.recvd[0])
	}
}

// checkpointAll runs the full quiesce on every rank concurrently, then
// captures engine+protocol state, then releases. It returns the saved
// engine states and protocol blobs.
func checkpointAll(t *testing.T, engines []*pml.Engine, protos []Protocol) ([]pml.SavedState, [][]byte) {
	t.Helper()
	n := len(engines)
	saved := make([]pml.SavedState, n)
	blobs := make([][]byte, n)
	parallel(t, n, func(rank int) error {
		if err := protos[rank].FTEvent(inc.StateCheckpoint); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		st, err := engines[rank].SaveState()
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		blob, err := protos[rank].Save()
		if err != nil {
			return fmt.Errorf("proto save: %w", err)
		}
		saved[rank] = st
		blobs[rank] = blob
		return protos[rank].FTEvent(inc.StateContinue)
	})
	return saved, blobs
}

func TestQuiesceDrainsInFlightEager(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	// Rank 0 fires 5 eager messages that rank 1 never receives before
	// the checkpoint: the drain must pull them into the image.
	for i := 0; i < 5; i++ {
		if err := engines[0].Send(1, 9, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	saved, _ := checkpointAll(t, engines, protos)
	if got := len(saved[1].Unexpected); got != 5 {
		t.Fatalf("rank1 image holds %d unexpected messages, want 5", got)
	}
	for i, m := range saved[1].Unexpected {
		if m.Src != 0 || m.Tag != 9 || m.Payload[0] != byte(i) {
			t.Errorf("unexpected[%d] = %+v", i, m)
		}
	}
	// After continue the application still receives them, in order.
	for i := 0; i < 5; i++ {
		data, _, err := engines[1].Recv(0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Errorf("post-continue message %d = %d", i, data[0])
		}
	}
}

func TestQuiesceDrainsInFlightRendezvous(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	big := bytes.Repeat([]byte{3}, pml.DefaultEagerLimit*4)
	h, err := engines[0].Isend(1, 2, big)
	if err != nil {
		t.Fatal(err)
	}
	saved, _ := checkpointAll(t, engines, protos)
	if got := len(saved[1].Unexpected); got != 1 {
		t.Fatalf("rank1 image holds %d unexpected messages, want 1 (the drained rendezvous)", got)
	}
	if saved[1].Unexpected[0].Size != len(big) {
		t.Errorf("drained rendezvous size = %d", saved[1].Unexpected[0].Size)
	}
	if _, _, err := engines[0].Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	data, _, err := engines[1].Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, big) {
		t.Error("rendezvous payload corrupted across quiesce")
	}
}

func TestBookmarksConsistentAfterQuiesce(t *testing.T) {
	const n = 4
	engines, protos := mkWorld(t, n, "bkmrk", nil)
	// Random traffic: each rank sends a random number of messages to
	// every other rank, receiving nothing — everything is in flight at
	// checkpoint time.
	rng := rand.New(rand.NewSource(99))
	sent := make([][]int, n)
	for r := range sent {
		sent[r] = make([]int, n)
	}
	for r := 0; r < n; r++ {
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			k := rng.Intn(6)
			sent[r][p] = k
			for i := 0; i < k; i++ {
				if err := engines[r].Send(p, 1, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkpointAll(t, engines, protos)
	// Invariant: after the cut, receiver-side counts equal sender-side
	// counts for every ordered pair.
	for r := 0; r < n; r++ {
		pr := protos[r].(*bkmrkProto)
		for p := 0; p < n; p++ {
			if p == r {
				continue
			}
			if got, want := int(pr.recvd[p]), sent[p][r]; got != want {
				t.Errorf("rank %d recvd[%d] = %d, want %d", r, p, got, want)
			}
			if got, want := int(pr.sent[p]), sent[r][p]; got != want {
				t.Errorf("rank %d sent[%d] = %d, want %d", r, p, got, want)
			}
		}
	}
}

func TestPostCutMessageHeldBack(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	if err := engines[0].Send(1, 5, []byte("pre-cut")); err != nil {
		t.Fatal(err)
	}
	var saved1 pml.SavedState
	parallel(t, 2, func(rank int) error {
		if rank == 0 {
			if err := protos[0].FTEvent(inc.StateCheckpoint); err != nil {
				return err
			}
			if _, err := engines[0].SaveState(); err != nil {
				return err
			}
			if err := protos[0].FTEvent(inc.StateContinue); err != nil {
				return err
			}
			// Rank 0 resumes immediately and sends a post-cut message
			// while rank 1 is still inside its checkpoint window.
			return engines[0].Send(1, 5, []byte("post-cut"))
		}
		// Rank 1 delays its checkpoint slightly so the post-cut message
		// is racing its quiesce.
		time.Sleep(5 * time.Millisecond)
		if err := protos[1].FTEvent(inc.StateCheckpoint); err != nil {
			return err
		}
		// Hold the window open long enough for the post-cut message to
		// arrive and be classified.
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) && engines[1].HeldBack() == 0 {
			if err := engines[1].Progress(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		var err error
		saved1, err = engines[1].SaveState()
		if err != nil {
			return err
		}
		return protos[1].FTEvent(inc.StateContinue)
	})
	// The image must contain exactly the pre-cut message.
	if len(saved1.Unexpected) != 1 || string(saved1.Unexpected[0].Payload) != "pre-cut" {
		t.Fatalf("rank1 image unexpected = %+v, want only pre-cut", saved1.Unexpected)
	}
	// Both messages are receivable after continue, in order.
	for _, want := range []string{"pre-cut", "post-cut"} {
		data, _, err := engines[1].Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("got %q, want %q", data, want)
		}
	}
}

func TestSaveRestoreCounters(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	parallel(t, 2, func(rank int) error {
		if rank == 0 {
			for i := 0; i < 3; i++ {
				if err := engines[0].Send(1, 0, []byte("m")); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 3; i++ {
			if _, _, err := engines[1].Recv(0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	blob, err := protos[1].Save()
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	fresh := (&BkmrkComponent{}).Wrap(engines[1], nil, nil).(*bkmrkProto)
	if err := fresh.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if fresh.recvd[0] != 3 {
		t.Errorf("restored recvd[0] = %d, want 3", fresh.recvd[0])
	}
	// Restoring an empty blob yields zeroed counters.
	if err := fresh.Restore(nil); err != nil {
		t.Fatalf("Restore(nil): %v", err)
	}
	if len(fresh.recvd) != 0 || len(fresh.sent) != 0 {
		t.Errorf("restored empty counters = %v / %v", fresh.sent, fresh.recvd)
	}
	if err := fresh.Restore([]byte("{bad")); err == nil {
		t.Error("Restore accepted corrupt blob")
	}
}

func TestCtrlFragErrors(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	p := protos[1].(*bkmrkProto)
	for _, bad := range [][]byte{
		[]byte("{nope"),                 // malformed
		nil,                             // empty
		{0x80},                          // truncated varint
		{0x81, 0x80},                    // truncated varint, two bytes
		append(encodeMarker(1), 0x00),   // trailing byte
		append(encodeMarker(300), 0x01), // trailing byte after a two-byte varint
		{0x81, 0x00},                    // non-canonical encoding of 1
	} {
		if err := p.CtrlFrag(btl.Frag{Src: 0, Payload: bad}); err == nil {
			t.Errorf("CtrlFrag accepted malformed marker %x", bad)
		}
	}
	good := encodeMarker(1)
	if err := p.CtrlFrag(btl.Frag{Src: 0, Payload: good}); err != nil {
		t.Fatalf("CtrlFrag: %v", err)
	}
	if err := p.CtrlFrag(btl.Frag{Src: 0, Payload: good}); err == nil {
		t.Error("CtrlFrag accepted duplicate marker")
	}
	_ = engines
}

func TestDrainTimeoutWhenPeerSilent(t *testing.T) {
	params := mca.NewParams()
	params.Set("crcp_bkmrk_timeout", "50ms")
	_, protos := mkWorld(t, 2, "bkmrk", params)
	// Only rank 0 checkpoints; rank 1 never sends its marker.
	err := protos[0].FTEvent(inc.StateCheckpoint)
	if !errors.Is(err, pml.ErrTimeout) {
		t.Errorf("err = %v, want wrapped pml.ErrTimeout", err)
	}
}

func TestDrainTimeoutSelfReleases(t *testing.T) {
	// A failed quiesce must release the engine itself: before the fix it
	// stayed draining (and quiescing) until the INC delivered StateError,
	// wedging every later send/recv if that delivery never came.
	params := mca.NewParams()
	params.Set("crcp_bkmrk_timeout", "50ms")
	engines, protos := mkWorld(t, 2, "bkmrk", params)
	// Only rank 0 checkpoints; rank 1 never sends its marker.
	if err := protos[0].FTEvent(inc.StateCheckpoint); !errors.Is(err, pml.ErrTimeout) {
		t.Fatalf("quiesce with silent peer = %v, want wrapped pml.ErrTimeout", err)
	}
	// Post-timeout traffic flows in both directions with no StateError
	// ever delivered.
	parallel(t, 2, func(rank int) error {
		if rank == 0 {
			if err := engines[0].Send(1, 7, []byte("after timeout 0>1")); err != nil {
				return err
			}
			data, _, err := engines[0].Recv(1, 8)
			if err != nil || string(data) != "after timeout 1>0" {
				return fmt.Errorf("recv on rank 0: %q, %v", data, err)
			}
			return nil
		}
		if err := engines[1].Send(0, 8, []byte("after timeout 1>0")); err != nil {
			return err
		}
		data, _, err := engines[1].Recv(0, 7)
		if err != nil || string(data) != "after timeout 0>1" {
			return fmt.Errorf("recv on rank 1: %q, %v", data, err)
		}
		return nil
	})
	// The INC reports the failed checkpoint as a continue; rank 1 drops
	// the stale marker it received from the aborted quiesce, so the next
	// full checkpoint succeeds on both ranks.
	parallel(t, 2, func(rank int) error {
		return protos[rank].FTEvent(inc.StateContinue)
	})
	parallel(t, 2, func(rank int) error {
		return protos[rank].FTEvent(inc.StateCheckpoint)
	})
	parallel(t, 2, func(rank int) error {
		return protos[rank].FTEvent(inc.StateContinue)
	})
}

func TestQuiesceTimeoutCanBeRetried(t *testing.T) {
	// A second attempt after a drain timeout fails with another timeout —
	// not "quiesce already in progress", which is what the leaked
	// quiescing flag produced before the fix.
	params := mca.NewParams()
	params.Set("crcp_bkmrk_timeout", "50ms")
	_, protos := mkWorld(t, 2, "bkmrk", params)
	for attempt := 0; attempt < 2; attempt++ {
		if err := protos[0].FTEvent(inc.StateCheckpoint); !errors.Is(err, pml.ErrTimeout) {
			t.Fatalf("attempt %d = %v, want wrapped pml.ErrTimeout", attempt, err)
		}
	}
}

func TestDoubleQuiesceRejected(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	parallel(t, 2, func(rank int) error {
		return protos[rank].FTEvent(inc.StateCheckpoint)
	})
	if err := protos[0].FTEvent(inc.StateCheckpoint); err == nil {
		t.Error("second quiesce without release succeeded")
	}
	parallel(t, 2, func(rank int) error {
		return protos[rank].FTEvent(inc.StateContinue)
	})
	_ = engines
}

func TestRepeatedCheckpointIntervals(t *testing.T) {
	engines, protos := mkWorld(t, 2, "bkmrk", nil)
	for interval := 0; interval < 3; interval++ {
		parallel(t, 2, func(rank int) error {
			if rank == 0 {
				return engines[0].Send(1, 0, []byte{byte(interval)})
			}
			return nil
		})
		saved, _ := checkpointAll(t, engines, protos)
		if got := len(saved[1].Unexpected); got != 1 {
			t.Fatalf("interval %d: rank1 unexpected = %d, want 1", interval, got)
		}
		// Drain the message so the next interval starts clean.
		data, _, err := engines[1].Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(interval) {
			t.Errorf("interval %d delivered %d", interval, data[0])
		}
	}
}

// TestQuickQuiesceConsistency: for random traffic patterns, a quiesce
// always yields matching counters and captures every in-flight message
// exactly once.
func TestQuickQuiesceConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		f := NewFramework()
		comp, err := f.Lookup("bkmrk")
		if err != nil {
			return false
		}
		fabric := btl.NewFabric()
		engines := make([]*pml.Engine, n)
		protos := make([]Protocol, n)
		for r := 0; r < n; r++ {
			ep, err := fabric.Attach(r)
			if err != nil {
				return false
			}
			engines[r] = pml.New(pml.Config{Rank: r, Size: n, Endpoint: ep})
			protos[r] = comp.Wrap(engines[r], nil, nil)
			engines[r].SetHooks(protos[r])
		}
		inflight := 0
		for r := 0; r < n; r++ {
			for p := 0; p < n; p++ {
				if p == r {
					continue
				}
				k := rng.Intn(4)
				inflight += k
				for i := 0; i < k; i++ {
					size := rng.Intn(64)
					if err := engines[r].Send(p, 1, make([]byte, size)); err != nil {
						return false
					}
				}
			}
		}
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		captured := 0
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := protos[r].FTEvent(inc.StateCheckpoint); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
				st, err := engines[r].SaveState()
				if err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
				mu.Lock()
				captured += len(st.Unexpected)
				mu.Unlock()
				if err := protos[r].FTEvent(inc.StateContinue); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}(r)
		}
		wg.Wait()
		return ok && captured == inflight
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// FuzzBkmrkMarker checks the marker codec: decoding accepts exactly the
// payloads encodeMarker produces, and every count survives the trip.
func FuzzBkmrkMarker(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, count uint64) {
		if got, err := decodeMarker(encodeMarker(count)); err != nil || got != count {
			t.Fatalf("marker for %d decodes to %d, err %v", count, got, err)
		}
		if got, err := decodeMarker(payload); err == nil && !bytes.Equal(encodeMarker(got), payload) {
			t.Fatalf("decodeMarker accepted %x as %d, which encodes as %x", payload, got, encodeMarker(got))
		}
	})
}

// BenchmarkBkmrkQuiesce times one bookmark exchange across 32 in-process
// ranks: every rank quiesces concurrently (31 markers out, 31 in), then
// every rank releases.
func BenchmarkBkmrkQuiesce(b *testing.B) {
	const np = 32
	_, protos := mkWorld(b, np, "bkmrk", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel(b, np, func(rank int) error { return protos[rank].FTEvent(inc.StateCheckpoint) })
		parallel(b, np, func(rank int) error { return protos[rank].FTEvent(inc.StateContinue) })
	}
}
