package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ompi/btl"
	"repro/internal/ompi/crcp"
	"repro/internal/ompi/pml"
)

// The paired CRCP probe measures what the CRCP wrapper adds to a round
// trip. Three two-rank PML worlds (no CRCP, crcp-none, crcp-bkmrk) run
// side by side; each pair times one batch of round trips on every world
// in turn, rotating which goes first, so drift in the host's speed
// cancels within a pair instead of biasing one configuration. A batch
// lasts some tens of milliseconds, long enough to average over
// scheduler hops and collector cycles.

const (
	probePairs = 21
	probeTagPL = 3
)

var probeModes = []string{"direct", "crcp-none", "crcp-bkmrk"}

// pmlWorld is a two-rank PML pair with an echo loop on rank 1.
type pmlWorld struct {
	engines [2]*pml.Engine
	done    chan struct{}
}

func newPMLWorld(mode string) (*pmlWorld, error) {
	fabric := btl.NewFabric()
	w := &pmlWorld{done: make(chan struct{})}
	for r := 0; r < 2; r++ {
		ep, err := fabric.Attach(r)
		if err != nil {
			return nil, err
		}
		w.engines[r] = pml.New(pml.Config{Rank: r, Size: 2, Endpoint: ep})
	}
	var comp crcp.Component
	switch mode {
	case "direct":
	case "crcp-none":
		comp = &crcp.NoneComponent{}
	case "crcp-bkmrk":
		comp = &crcp.BkmrkComponent{}
	default:
		return nil, fmt.Errorf("unknown probe mode %q", mode)
	}
	if comp != nil {
		for r := 0; r < 2; r++ {
			w.engines[r].SetHooks(comp.Wrap(w.engines[r], nil, nil))
		}
	}
	go func() {
		defer close(w.done)
		e := w.engines[1]
		for {
			data, _, err := e.Recv(0, probeTagPL)
			if err != nil || len(data) == 0 {
				return
			}
			if err := e.Send(0, probeTagPL, data); err != nil {
				return
			}
		}
	}()
	return w, nil
}

// batch times n round trips of payload and returns their mean.
func (w *pmlWorld) batch(payload []byte, n int) (time.Duration, error) {
	e := w.engines[0]
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := e.Send(1, probeTagPL, payload); err != nil {
			return 0, err
		}
		got, _, err := e.Recv(1, probeTagPL)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, payload) {
			return 0, fmt.Errorf("paired probe: echo of %d-byte payload differs", len(payload))
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// close stops the echo loop and waits for it.
func (w *pmlWorld) close() {
	_ = w.engines[0].Send(1, probeTagPL, nil) // an empty message ends the echo loop
	<-w.done
}

// pairedProbe runs the paired probe at 8 B and 64 KiB and reports the
// per-pair overhead ratios' median and IQR, plus the direct baseline.
func pairedProbe(seed int64, m metrics) error {
	worlds := make(map[string]*pmlWorld, len(probeModes))
	defer func() {
		for _, w := range worlds {
			w.close()
		}
	}()
	for _, mode := range probeModes {
		w, err := newPMLWorld(mode)
		if err != nil {
			return err
		}
		worlds[mode] = w
	}
	rng := rand.New(rand.NewSource(seed))
	for _, size := range []struct {
		bytes  int
		rounds int
		suffix string
	}{{8, 8000, ""}, {64 << 10, 400, "64k"}} {
		payload := make([]byte, size.bytes)
		rng.Read(payload)
		var direct []float64
		over := map[string][]float64{}
		for pair := 0; pair < probePairs; pair++ {
			got := map[string]time.Duration{}
			for i := range probeModes {
				mode := probeModes[(pair+i)%len(probeModes)]
				d, err := worlds[mode].batch(payload, size.rounds)
				if err != nil {
					return err
				}
				got[mode] = d
			}
			direct = append(direct, float64(got["direct"])/float64(time.Microsecond))
			for _, mode := range probeModes[1:] {
				over[mode] = append(over[mode], 100*(float64(got[mode])/float64(got["direct"])-1))
			}
		}
		m.set("pml.direct_rtt"+size.suffix+"_us_p50", "us", median(direct))
		m.set("crcp.wrap_overhead"+size.suffix+"_pct", "%", median(over["crcp-bkmrk"]))
		m.set("crcp.wrap_overhead"+size.suffix+"_iqr_pct", "%", iqr(over["crcp-bkmrk"]))
		m.set("crcp.none_overhead"+size.suffix+"_pct", "%", median(over["crcp-none"]))
		m.set("crcp.none_overhead"+size.suffix+"_iqr_pct", "%", iqr(over["crcp-none"]))
	}
	m.set("crcp.probe_pairs", "count", probePairs)
	return nil
}
