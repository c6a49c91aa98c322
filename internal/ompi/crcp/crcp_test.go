package crcp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
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

// TestBookmarksCodec: the image form of the counters round-trips, drops
// zero counts, and refuses anything EncodeBookmarks would not write.
func TestBookmarksCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		sent, recvd := map[int]uint64{}, map[int]uint64{}
		for j := rng.Intn(6); j > 0; j-- {
			sent[rng.Intn(40)] = 1 + uint64(rng.Int63n(1<<40))
			recvd[rng.Intn(40)] = 1 + uint64(rng.Intn(300))
		}
		gotS, gotR, err := DecodeBookmarks(EncodeBookmarks(sent, recvd))
		if err != nil || !reflect.DeepEqual(gotS, sent) || !reflect.DeepEqual(gotR, recvd) {
			t.Fatalf("round trip of %v / %v = %v / %v, %v", sent, recvd, gotS, gotR, err)
		}
	}
	if got := EncodeBookmarks(map[int]uint64{3: 0}, map[int]uint64{3: 0}); !bytes.Equal(got, []byte{0}) {
		t.Errorf("zero counts encode as %x, want an empty table", got)
	}
	for _, bad := range [][]byte{
		{0x01, 0x05, 0x00, 0x00},                   // all-zero triple
		{0x02, 0x05, 0x01, 0x01, 0x03, 0x01, 0x01}, // peers descending
		{0x01, 0x05, 0x01, 0x01, 0x00},             // trailing byte
		{0x02, 0x05, 0x01, 0x01},                   // truncated
		[]byte("{\"sent\":{}}"),                    // an older JSON form
	} {
		if _, _, err := DecodeBookmarks(bad); err == nil {
			t.Errorf("DecodeBookmarks accepted %x", bad)
		}
	}
}

// TestCtrlFragErrors: the control codec refuses malformed, truncated,
// trailing and non-canonical payloads, and the tree refuses a duplicate
// child vector, a vector from a non-child and totals from a non-parent.
func TestCtrlFragErrors(t *testing.T) {
	_, protos := mkWorld(t, 8, "bkmrk", nil)
	p := func(r int) *bkmrkProto { return protos[r].(*bkmrkProto) }
	for _, bad := range [][]byte{
		nil,                                    // empty
		[]byte("{nope"),                        // unknown kind
		{ctrlUp},                               // truncated count
		{ctrlUp, 0x01, 0x05},                   // truncated entry
		{ctrlUp, 0x80},                         // truncated varint
		{ctrlUp, 0x00, 0x00},                   // trailing byte
		{ctrlUp, 0x01, 0x05, 0x01, 0x07},       // trailing byte after an entry
		{ctrlUp, 0x01, 0x85, 0x00, 0x01},       // non-canonical rank
		{ctrlUp, 0x01, 0x05, 0x81, 0x00},       // non-canonical count
		{ctrlUp, 0x01, 0x08, 0x01},             // rank outside the job
		{ctrlUp, 0x01, 0x05, 0x00},             // zero count
		{ctrlUp, 0x02, 0x05, 0x01, 0x03, 0x01}, // ranks descending
		{ctrlUp, 0x02, 0x05, 0x01, 0x05, 0x01}, // rank repeated
		{ctrlUp, 0xff, 0xff, 0xff, 0xff, 0x0f}, // count beyond the payload
	} {
		if err := p(0).CtrlFrag(btl.Frag{Src: 1, Payload: bad}); err == nil {
			t.Errorf("CtrlFrag accepted malformed payload %x", bad)
		}
	}
	vec := encodeCtrl(ctrlUp, []entry{{3, 2}, {7, 1}})
	if err := p(0).CtrlFrag(btl.Frag{Src: 4, Payload: vec}); err != nil {
		t.Fatalf("child vector: %v", err)
	}
	if err := p(0).CtrlFrag(btl.Frag{Src: 4, Payload: vec}); err == nil {
		t.Error("duplicate child vector accepted")
	}
	if err := p(0).CtrlFrag(btl.Frag{Src: 3, Payload: vec}); err == nil {
		t.Error("vector from rank 3 (a child of 2) accepted by rank 0")
	}
	if got := p(0).up; got[3] != 2 || got[7] != 1 || len(got) != 2 {
		t.Errorf("merged vector = %v", got)
	}
	totals := encodeCtrl(ctrlDown, []entry{{6, 4}, {7, 1}})
	for _, src := range []int{0, 4, 5, 7} { // rank 6's parent is 4
		if src != 4 {
			if err := p(6).CtrlFrag(btl.Frag{Src: src, Payload: totals}); err == nil {
				t.Errorf("rank 6 accepted totals from rank %d, not its parent", src)
			}
		}
	}
	if err := p(0).CtrlFrag(btl.Frag{Src: 1, Payload: totals}); err == nil {
		t.Error("the root accepted totals")
	}
	if err := p(6).CtrlFrag(btl.Frag{Src: 4, Payload: encodeCtrl(ctrlDown, []entry{{5, 1}})}); err == nil {
		t.Error("totals outside the subtree accepted")
	}
	if err := p(6).CtrlFrag(btl.Frag{Src: 4, Payload: totals}); err != nil {
		t.Fatalf("totals from the parent: %v", err)
	}
	if err := p(6).CtrlFrag(btl.Frag{Src: 4, Payload: totals}); err == nil {
		t.Error("duplicate totals accepted")
	}
}

// countingPort counts the control fragments a rank sends.
type countingPort struct {
	btl.Port
	ctrl *atomic.Int64
}

func (c countingPort) Send(fr btl.Frag) error {
	if fr.Kind == btl.KindCtrl {
		c.ctrl.Add(1)
	}
	return c.Port.Send(fr)
}

// TestQuiesceSendsTwoCtrlFragsPerNonRoot: at np = 32 a cut costs exactly
// 2(n−1) control fragments, whatever the traffic before it.
func TestQuiesceSendsTwoCtrlFragsPerNonRoot(t *testing.T) {
	const n = 32
	fabric := btl.NewFabric()
	var ctrl atomic.Int64
	engines := make([]*pml.Engine, n)
	protos := make([]Protocol, n)
	for r := 0; r < n; r++ {
		ep, err := fabric.Attach(r)
		if err != nil {
			t.Fatal(err)
		}
		engines[r] = pml.New(pml.Config{Rank: r, Size: n, Endpoint: countingPort{ep, &ctrl}})
		protos[r] = (&BkmrkComponent{}).Wrap(engines[r], nil, nil)
		engines[r].SetHooks(protos[r])
	}
	rng := rand.New(rand.NewSource(7))
	for cut := 0; cut < 3; cut++ {
		for i := 0; i < 40*cut; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if err := engines[src].Send(dst, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		ctrl.Store(0)
		checkpointAll(t, engines, protos)
		if got := ctrl.Load(); got != 2*(n-1) {
			t.Errorf("cut %d sent %d control fragments, want %d", cut, got, 2*(n-1))
		}
	}
}

func TestDrainTimeoutWhenPeerSilent(t *testing.T) {
	params := mca.NewParams()
	params.Set("crcp_bkmrk_timeout", "50ms")
	_, protos := mkWorld(t, 2, "bkmrk", params)
	// Only rank 0 checkpoints; rank 1 never sends its count vector.
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
	// Only rank 0 checkpoints; rank 1 never sends its count vector.
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
	// the stale tree state of the aborted quiesce, so the next
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

// TestRestartResetsColour: after cuts have advanced every colour, a
// survivor's StateRestart and a respawned rank (a fresh engine) meet at
// colour zero, so pre-cut traffic between them is drained, not held.
func TestRestartResetsColour(t *testing.T) {
	params := mca.NewParams()
	params.Set("crcp_bkmrk_timeout", "2s")
	engines, protos := mkWorld(t, 2, "bkmrk", params)
	for i := 0; i < 3; i++ {
		checkpointAll(t, engines, protos)
	}
	if c := engines[0].Colour(); c != 3 {
		t.Fatalf("colour after three cuts = %d, want 3", c)
	}
	// Rank 1 is respawned on a rebuilt fabric; rank 0 survives and rolls
	// back in place.
	fabric := btl.NewFabric()
	ep0, _ := fabric.Attach(0)
	ep1, _ := fabric.Attach(1)
	engines[0].Rebind(ep0)
	if err := protos[0].FTEvent(inc.StateRestart); err != nil {
		t.Fatal(err)
	}
	engines[1] = pml.New(pml.Config{Rank: 1, Size: 2, Endpoint: ep1})
	protos[1] = (&BkmrkComponent{}).Wrap(engines[1], params, nil)
	engines[1].SetHooks(protos[1])
	if err := protos[1].FTEvent(inc.StateRestart); err != nil {
		t.Fatal(err)
	}
	if err := engines[0].Send(1, 4, []byte("after restart")); err != nil {
		t.Fatal(err)
	}
	saved, _ := checkpointAll(t, engines, protos)
	if len(saved[1].Unexpected) != 1 {
		t.Fatalf("rank 1 captured %d messages, want the one pre-cut message", len(saved[1].Unexpected))
	}
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

// slowLink withholds the application fragments rank from sends until
// its rank has pulled a fragment rank 0 sent past the first cut, so the
// rank is still draining when post-cut traffic reaches it. Per-pair
// FIFO holds: withheld fragments are returned first, in order.
type slowLink struct {
	btl.Port
	from  int
	stash []btl.Frag
	open  bool
}

func (l *slowLink) RecvUntil(deadline time.Time) (btl.Frag, bool, error) {
	for {
		if l.open && len(l.stash) > 0 {
			fr := l.stash[0]
			l.stash = l.stash[1:]
			return fr, true, nil
		}
		fr, ok, err := l.Port.RecvUntil(deadline)
		switch {
		case !ok || err != nil || fr.Kind == btl.KindCtrl:
		case fr.Src == 0 && fr.Colour != 0:
			l.open = true
		case fr.Src == l.from && !l.open:
			l.stash = append(l.stash, fr)
			continue
		}
		return fr, ok, err
	}
}

// TestQuickPostCutTrafficHeldNotCounted: the root finishes its cut,
// releases and sends post-cut eager and rendezvous traffic to a peer
// that is still draining (a slow link holds back pre-cut traffic it
// must wait for). The peer holds those fragments out of its
// image and its counters, completes the same cut, and receives them
// after release in order.
func TestQuickPostCutTrafficHeldNotCounted(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		slow := 1 + rng.Intn(n-1)
		from := 1 + (slow+rng.Intn(n-2))%(n-1) // neither 0 nor slow
		if from == slow {
			from = 1 + slow%(n-1)
		}
		fabric := btl.NewFabric()
		engines := make([]*pml.Engine, n)
		protos := make([]Protocol, n)
		for r := 0; r < n; r++ {
			ep, err := fabric.Attach(r)
			if err != nil {
				return false
			}
			var port btl.Port = ep
			if r == slow {
				port = &slowLink{Port: ep, from: from}
			}
			engines[r] = pml.New(pml.Config{Rank: r, Size: n, Endpoint: port})
			protos[r] = (&BkmrkComponent{}).Wrap(engines[r], nil, nil)
			engines[r].SetHooks(protos[r])
		}
		preCut := 0
		for r := 0; r < n; r++ {
			k := rng.Intn(4)
			if r == from {
				k++
			}
			for i := 0; i < k; i++ {
				if err := engines[r].Send(slow, 1, []byte{byte(i)}); err != nil {
					return false
				}
				preCut++
			}
		}
		post := make([][]byte, 1+rng.Intn(4))
		for i := range post {
			post[i] = bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(2*pml.DefaultEagerLimit))
		}
		var slowImage pml.SavedState
		var slowHeld int
		var slowGot uint64
		var mu sync.Mutex
		failed := false
		fail := func(r int, err error) {
			mu.Lock()
			defer mu.Unlock()
			t.Logf("seed %d: rank %d: %v", seed, r, err)
			failed = true
		}
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := protos[r].FTEvent(inc.StateCheckpoint); err != nil {
					fail(r, err)
					return
				}
				if r == 0 {
					if err := protos[0].FTEvent(inc.StateContinue); err != nil {
						fail(r, err)
						return
					}
					for _, m := range post {
						if _, err := engines[0].Isend(slow, 2, m); err != nil {
							fail(r, err)
						}
					}
					return
				}
				if r == slow {
					st, err := engines[r].SaveState()
					if err != nil {
						fail(r, err)
						return
					}
					slowImage, slowHeld = st, engines[r].HeldBack()
					slowGot = protos[r].(*bkmrkProto).got
				}
				if err := protos[r].FTEvent(inc.StateContinue); err != nil {
					fail(r, err)
				}
			}(r)
		}
		wg.Wait()
		if failed {
			return false
		}
		if len(slowImage.Unexpected) != preCut || slowGot != uint64(preCut) {
			t.Logf("seed %d: slow rank %d captured %d messages, counted %d, want %d pre-cut",
				seed, slow, len(slowImage.Unexpected), slowGot, preCut)
			return false
		}
		if slowHeld == 0 {
			t.Logf("seed %d: no post-cut fragment was held", seed)
			return false
		}
		done := make(chan error, 1)
		go func() { // the root completes its rendezvous sends
			done <- engines[0].ProgressUntil(func() bool { return engines[0].PendingOutgoingRendezvous() == 0 }, 5*time.Second)
		}()
		for i, want := range post {
			data, _, err := engines[slow].Recv(0, 2)
			if err != nil || !bytes.Equal(data, want) {
				t.Logf("seed %d: post-cut message %d: %v", seed, i, err)
				return false
			}
		}
		return <-done == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// FuzzBkmrkMarker checks the bookmark control codec: decoding accepts
// exactly the payloads encodeCtrl produces, and every count survives the
// trip.
func FuzzBkmrkMarker(f *testing.F) {
	const n = 64
	f.Fuzz(func(t *testing.T, payload []byte, count uint64) {
		es := []entry{}
		if count != 0 {
			es = append(es, entry{int(count % n), count})
		}
		if kind, got, err := decodeCtrl(encodeCtrl(ctrlDown, es), n); err != nil || kind != ctrlDown || !reflect.DeepEqual(got, es) {
			t.Fatalf("totals %v decode to %c %v, err %v", es, kind, got, err)
		}
		if kind, got, err := decodeCtrl(payload, n); err == nil && !bytes.Equal(encodeCtrl(kind, got), payload) {
			t.Fatalf("decodeCtrl accepted %x as %c %v, which encodes as %x", payload, kind, got, encodeCtrl(kind, got))
		}
	})
}

// BenchmarkBkmrkQuiesce times one bookmark exchange across 32 in-process
// ranks: every rank quiesces concurrently (the up and down tree waves,
// 62 control fragments in all), then every rank releases. The image
// codec's counterpart is BenchmarkImageRoundTrip in package ompi.
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
