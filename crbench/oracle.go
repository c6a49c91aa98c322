package main

import (
	"fmt"
	"math/rand"
)

// The oracle checks restored stencil state against a serial Jacobi
// reference. The stencil is one periodic ring of n = np*cells values
// that starts at value(g) = g; rank r owns cells [r*cells, (r+1)*cells)
// and every step replaces each value by the mean of itself and its two
// neighbours, computed as (left + self + right) / 3 in that order. The
// reference does the same floating-point operations in the same order,
// so a correct restore matches it bit for bit.

// jacobiAt returns the reference value of global cell g after k steps
// by evaluating its dependency cone: width 2k+1 at step 0, shrinking by
// two per step, indices taken round the ring.
func jacobiAt(n, g, k int) float64 {
	w := 2*k + 1
	cur := make([]float64, w)
	for i := range cur {
		cur[i] = float64(((g-k+i)%n + n) % n)
	}
	next := make([]float64, w)
	for step := 0; step < k; step++ {
		w -= 2
		for i := 0; i < w; i++ {
			next[i] = (cur[i] + cur[i+1] + cur[i+2]) / 3
		}
		cur, next = next, cur
	}
	return cur[0]
}

// jacobiRing returns the whole ring after k steps.
func jacobiRing(n, k int) []float64 {
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = float64(i)
	}
	next := make([]float64, n)
	for step := 0; step < k; step++ {
		for i := range next {
			next[i] = (cur[(i-1+n)%n] + cur[i] + cur[(i+1)%n]) / 3
		}
		cur, next = next, cur
	}
	return cur
}

// checkStencil verifies a restored job: every rank restored to the same
// iteration (a coordinated checkpoint is a uniform step frontier), and
// each rank's first and last cell plus samplesPerRank seeded cells equal
// the reference.
func checkStencil(states map[int]restoredState, np, cells, samplesPerRank int, rng *rand.Rand) error {
	if len(states) != np {
		return fmt.Errorf("oracle: %d of %d ranks reported restored state", len(states), np)
	}
	k := states[0].iter
	n := np * cells
	// Simulate the whole ring when that costs less than the cones.
	var ring []float64
	if n <= np*(samplesPerRank+2)*k {
		ring = jacobiRing(n, k)
	}
	for r := 0; r < np; r++ {
		st := states[r]
		if st.iter != k {
			return fmt.Errorf("oracle: rank %d restored at iteration %d, rank 0 at %d", r, st.iter, k)
		}
		if len(st.cells) != cells {
			return fmt.Errorf("oracle: rank %d restored %d cells, want %d", r, len(st.cells), cells)
		}
		idx := []int{0, cells - 1}
		for i := 0; i < samplesPerRank; i++ {
			idx = append(idx, rng.Intn(cells))
		}
		for _, i := range idx {
			g := r*cells + i
			want := 0.0
			if ring != nil {
				want = ring[g]
			} else {
				want = jacobiAt(n, g, k)
			}
			if st.cells[i] != want {
				return fmt.Errorf("oracle: rank %d cell %d at iteration %d is %v, reference %v", r, i, k, st.cells[i], want)
			}
		}
	}
	return nil
}
