package ompi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/coll"
	"repro/internal/ompi/pml"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// haloApp is the stencil's neighbour exchange with nothing else: one
// eager message to each side per step and no collective of its own, so
// every collective its process issues is the C/R layer's.
type haloApp struct {
	steps int
	state struct {
		Iter int
		V    float64
	}
}

func (a *haloApp) Setup(p *Proc) error { return p.RegisterState("halo", &a.state) }

func (a *haloApp) Step(p *Proc) (bool, error) {
	n, r := p.Size(), p.Rank()
	right, left := (r+1)%n, (r-1+n)%n
	v := coll.Float64sToBytes([]float64{a.state.V})
	toRight, err := p.Isend(right, 1, v)
	if err != nil {
		return false, err
	}
	toLeft, err := p.Isend(left, 2, v)
	if err != nil {
		return false, err
	}
	for _, src := range []struct{ rank, tag int }{{left, 1}, {right, 2}} {
		data, _, err := p.Recv(src.rank, src.tag)
		if err != nil {
			return false, err
		}
		w, err := coll.BytesToFloat64s(data)
		if err != nil {
			return false, err
		}
		a.state.V = (a.state.V + w[0]) / 2
	}
	if err := p.Waitall([]pml.Request{toRight, toLeft}); err != nil {
		return false, err
	}
	a.state.Iter++
	return a.state.Iter >= a.steps, nil
}

// runHalo runs np C/R-enabled ranks of haloApp for steps steps with no
// checkpoint requested. It returns the processes once every rank has
// finalized.
func runHalo(tb testing.TB, np, steps int) ([]*Proc, []*haloApp) {
	tb.Helper()
	procs, _ := testWorld(tb, np, nil, nil)
	as := make([]*haloApp, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := range procs {
		as[r] = &haloApp{steps: steps}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = procs[r].Run(as[r], nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", r, err)
		}
	}
	return procs, as
}

// BenchmarkStepBoundary is the cost of a step boundary when no
// checkpoint is pending: np ranks of a C/R-enabled halo exchange with
// no compute, b.N steps each. collectives/step counts the collectives
// the C/R layer adds to every step, in Allreduces: the finalize barrier
// takes one collective sequence number, an Allreduce two (a reduce,
// then a broadcast).
func BenchmarkStepBoundary(b *testing.B) {
	for _, np := range []int{8, 32} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			start := time.Now()
			procs, _ := runHalo(b, np, b.N)
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/step")
			b.ReportMetric(float64(procs[0].coll.Seq()-1)/2/float64(b.N), "collectives/step")
		})
	}
}

// A step boundary sends nothing while no checkpoint is pending: over
// a whole run the ranks issue no collective beyond the finalize
// barrier and run no frontier agreement.
func TestIdleBoundariesSendNothing(t *testing.T) {
	procs, _ := runHalo(t, 4, 200)
	for r, p := range procs {
		if got := p.coll.Seq(); got != 1 {
			t.Errorf("rank %d issued %d collective sequence numbers, want 1 (the finalize barrier)", r, got)
		}
		if got := p.ins.Counter("ompi_frontier_agreements_total").Value(); got != 0 {
			t.Errorf("rank %d ran %d frontier agreements", r, got)
		}
	}
}

// A rank that is already finalizing cannot honour a directive. When a
// peer is armed at a boundary, the finalizing rank still answers the
// agreement from inside its finalize barrier, and the peer refuses its
// directive instead of waiting at the boundary for ever.
func TestFinalizingRankEndsTheAgreement(t *testing.T) {
	procs, disks := testWorld(t, 2, nil, nil)
	gate := make(chan struct{})
	type st struct{ Iter int }
	apps := make([]App, 2)
	for r := range apps {
		s := &st{}
		apps[r] = FuncApp{
			SetupFn: func(p *Proc) error { return p.RegisterState("s", s) },
			StepFn: func(p *Proc) (bool, error) {
				if s.Iter < 3 { // the last two steps do not communicate
					peer := 1 - p.Rank()
					if err := p.Send(peer, 1, []byte{1}); err != nil {
						return false, err
					}
					if _, _, err := p.Recv(peer, 1); err != nil {
						return false, err
					}
				}
				if p.Rank() == 0 && s.Iter == 3 {
					<-gate
				}
				s.Iter++
				return s.Iter >= 5, nil
			},
		}
	}
	errs := make(chan error, 2)
	for r := range procs {
		go func(r int) { errs <- procs[r].Run(apps[r], nil) }(r)
	}
	for {
		st, changed := procs[1].Watch()
		if st.Phase >= PhaseFinalizing {
			break
		}
		<-changed
	}
	res := make(chan ParticipationResult, 2)
	for r := range procs {
		procs[r].Deliver(&Directive{Interval: 1, FS: disks[r], Dir: "snap", Result: res})
	}
	close(gate)
	for range procs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for range procs {
		if r := <-res; !errors.Is(r.Err, ErrFinalized) {
			t.Errorf("rank %d: participation %v, want a refusal", r.Rank, r.Err)
		}
	}
	if got := procs[0].ins.Counter("ompi_frontier_agreements_total").Value(); got != 1 {
		t.Errorf("rank 0 ran %d agreements, want 1", got)
	}
}

// A rank whose directive never arrives is still asked to report, so a
// checkpoint armed on one rank only fails at the frontier, within
// ompi_directive_timeout, instead of hanging.
func TestMissingDirectiveFailsAtTheFrontier(t *testing.T) {
	params := mca.NewParams()
	params.Set("ompi_directive_timeout", "50ms")
	fabric := btl.AdaptFabric(btl.NewFabric())
	procs := make([]*Proc, 3)
	for r := range procs {
		p, err := NewProc(Config{Rank: r, Size: len(procs), Fabric: fabric, Params: params, Ins: trace.New()})
		if err != nil {
			t.Fatal(err)
		}
		procs[r] = p
	}
	res := make(chan ParticipationResult, 1)
	procs[2].Deliver(&Directive{Interval: 1, FS: vfs.NewMem(), Dir: "snap", Result: res})
	errs := make(chan error, len(procs))
	for _, p := range procs {
		go func(p *Proc) { errs <- p.Run(&ringApp{target: 1 << 30}, nil) }(p)
	}
	err := <-errs
	// The armed rank is left quiescing for peers that are gone.
	fabric.Close()
	for range procs[1:] {
		<-errs
	}
	if err == nil || !strings.Contains(err.Error(), "no directive arrived") {
		t.Fatalf("first rank to stop: %v, want a missing-directive failure", err)
	}
}

// A rank asked to report before its own directive arrives reaches the
// frontier and waits there for it. That directive belongs to the
// agreement the rank is in: its delivery must not open another one.
func TestLateDirectiveOpensNoAgreement(t *testing.T) {
	params := mca.NewParams()
	params.Set("ompi_directive_timeout", "2s")
	procs, disks := testWorld(t, 3, params, nil)
	res := make(chan ParticipationResult, 3)
	deliver := func(r int) {
		procs[r].Deliver(&Directive{Interval: 1, FS: disks[r], Dir: "snap", Result: res})
	}
	deliver(0)
	deliver(1)
	errs := make(chan error, len(procs))
	for _, p := range procs {
		go func(p *Proc) { errs <- p.Run(&ringApp{afterCkpt: 20}, nil) }(p)
	}
	time.Sleep(20 * time.Millisecond) // rank 2 reaches the frontier first
	deliver(2)
	for range procs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for range procs {
		if r := <-res; r.Err != nil {
			t.Errorf("rank %d: %v", r.Rank, r.Err)
		}
	}
	if got := procs[0].ins.Counter("ompi_frontier_agreements_total").Value(); got != 1 {
		t.Errorf("%d agreements for one checkpoint", got)
	}
}

// FuzzFrontierDecode: the agreement's payload decoder accepts exactly
// what the encoder writes, and never panics.
func FuzzFrontierDecode(f *testing.F) {
	for _, b := range [][]byte{
		encodeFrontier(frontierStart, 0), encodeFrontier(frontierReport, 0), encodeFrontier(frontierReport, 41),
		encodeFrontier(frontierAt, never), encodeFrontier(frontierAt, 1<<40), {}, {'x'}, {frontierAt, 0x80, 0x00},
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, boundary, err := decodeFrontier(data)
		if err != nil {
			return
		}
		if enc := encodeFrontier(kind, boundary); !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes to (%q, %d), which encodes as %x", data, kind, boundary, enc)
		}
	})
}
