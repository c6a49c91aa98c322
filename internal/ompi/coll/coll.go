// Package coll implements MPI collective operations layered over the
// PML's point-to-point primitives — the paper's supported configuration
// (§3.1: "support for MPI collective routines when internally layered
// over point-to-point communication"). Because every collective reduces
// to tagged sends and receives, the CRCP wrapper observes and coordinates
// collective traffic with no extra machinery, and hardware collectives
// (which the paper excludes) never bypass the protocol.
//
// Tag discipline: collectives use a reserved negative tag space derived
// from a per-communicator operation sequence number. MPI requires all
// ranks to invoke collectives in the same order, so the sequence number
// stays in lockstep across ranks; it is part of the checkpointed state
// so tags never collide across a restart.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ompi/pml"
)

// Op folds two byte-encoded operands into one; it must be associative
// and commutative over the encoded values.
type Op func(a, b []byte) ([]byte, error)

// collTagBase anchors the reserved tag space well away from user tags
// (user tags are non-negative) and from pml.AnyTag (-1).
const collTagBase = -1 << 20

// opcode distinguishes collectives within one sequence slot so a
// mismatched program (rank 0 in a Bcast, rank 1 in a Reduce) fails to
// match rather than exchanging wrong data silently.
type opcode int

const (
	opBarrier opcode = iota + 1
	opBcast
	opReduce
	opGather
	opScatter
	opAllgather
	opAlltoall
	numOpcodes
)

// Coll provides collectives over one PML engine. Like the engine it is
// confined to the owning rank's goroutine.
type Coll struct {
	eng *pml.Engine
	seq uint64
}

// New returns a collective module over eng.
func New(eng *pml.Engine) *Coll {
	return &Coll{eng: eng}
}

// Seq returns the collective sequence number (for checkpointing).
func (c *Coll) Seq() uint64 { return c.seq }

// SetSeq restores the collective sequence number from a process image.
func (c *Coll) SetSeq(s uint64) { c.seq = s }

// tag computes the reserved tag for the current operation.
func (c *Coll) tag(op opcode) int {
	return collTagBase - int(c.seq)*int(numOpcodes) - int(op)
}

// next advances the sequence and returns the tag for op.
func (c *Coll) next(op opcode) int {
	t := c.tag(op)
	c.seq++
	return t
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ceil(log2 n) rounds of paired send/recv).
func (c *Coll) Barrier() error {
	n := c.eng.Size()
	rank := c.eng.Rank()
	tag := c.next(opBarrier)
	if n == 1 {
		return nil
	}
	for step := 1; step < n; step <<= 1 {
		to := (rank + step) % n
		from := (rank - step + n) % n
		h, err := c.eng.Isend(to, tag, nil)
		if err != nil {
			return fmt.Errorf("coll: barrier send: %w", err)
		}
		if _, _, err := c.eng.Recv(from, tag); err != nil {
			return fmt.Errorf("coll: barrier recv: %w", err)
		}
		if _, _, err := c.eng.Wait(h); err != nil {
			return fmt.Errorf("coll: barrier send: %w", err)
		}
	}
	return nil
}

// vrank maps rank into a tree rooted at root.
func vrank(rank, root, n int) int { return (rank - root + n) % n }
func unvrank(v, root, n int) int  { return (v + root) % n }

// Bcast distributes root's buffer to every rank using a binomial tree.
// Non-root ranks pass nil and receive the data as the return value; the
// root's data is returned unchanged.
func (c *Coll) Bcast(root int, data []byte) ([]byte, error) {
	n := c.eng.Size()
	rank := c.eng.Rank()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("coll: bcast root %d out of range", root)
	}
	tag := c.next(opBcast)
	if n == 1 {
		return data, nil
	}
	v := vrank(rank, root, n)
	if v != 0 {
		// Receive from parent: clear the highest set bit (matching the
		// children rule below, which sets bits above the current width).
		parent := unvrank(v^(1<<(bits.Len(uint(v))-1)), root, n)
		buf, _, err := c.eng.Recv(parent, tag)
		if err != nil {
			return nil, fmt.Errorf("coll: bcast recv: %w", err)
		}
		data = buf
	}
	// Forward to children: set bits above our lowest set bit.
	low := bits.Len(uint(v)) // children are v | 1<<k for k >= len(v)
	for k := low; ; k++ {
		child := v | 1<<k
		if child >= n {
			break
		}
		if err := c.eng.Send(unvrank(child, root, n), tag, data); err != nil {
			return nil, fmt.Errorf("coll: bcast send: %w", err)
		}
	}
	return data, nil
}

// Reduce folds every rank's contribution with op, delivering the result
// at root (other ranks receive nil). Binomial-tree reduction.
func (c *Coll) Reduce(root int, data []byte, op Op) ([]byte, error) {
	n := c.eng.Size()
	rank := c.eng.Rank()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("coll: reduce root %d out of range", root)
	}
	tag := c.next(opReduce)
	if n == 1 {
		return data, nil
	}
	v := vrank(rank, root, n)
	acc := data
	for k := 0; ; k++ {
		bit := 1 << k
		if v&bit != 0 {
			// Send accumulator to the partner that will absorb us.
			parent := unvrank(v&^bit, root, n)
			if err := c.eng.Send(parent, tag, acc); err != nil {
				return nil, fmt.Errorf("coll: reduce send: %w", err)
			}
			return nil, nil
		}
		// A nonexistent child (v|bit >= n) is skipped, not a stopping
		// condition: this rank's own parent bit may still lie above it
		// (e.g. v=2 in a 3-rank job sends at bit 1 after skipping the
		// missing child 3 at bit 0).
		if child := v | bit; child < n {
			buf, _, err := c.eng.Recv(unvrank(child, root, n), tag)
			if err != nil {
				return nil, fmt.Errorf("coll: reduce recv: %w", err)
			}
			acc, err = op(acc, buf)
			if err != nil {
				return nil, fmt.Errorf("coll: reduce op: %w", err)
			}
		}
		if bit >= n {
			// Only the tree root (v == 0) reaches here.
			break
		}
	}
	return acc, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast, matching the paper's
// collectives-over-p2p layering.
func (c *Coll) Allreduce(data []byte, op Op) ([]byte, error) {
	res, err := c.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, res)
}

// Gather collects every rank's buffer at root, indexed by rank. Non-root
// ranks receive nil.
func (c *Coll) Gather(root int, data []byte) ([][]byte, error) {
	n := c.eng.Size()
	rank := c.eng.Rank()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("coll: gather root %d out of range", root)
	}
	tag := c.next(opGather)
	if rank != root {
		if err := c.eng.Send(root, tag, data); err != nil {
			return nil, fmt.Errorf("coll: gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, n)
	out[root] = data
	for i := 0; i < n-1; i++ {
		buf, st, err := c.eng.Recv(pml.AnySource, tag)
		if err != nil {
			return nil, fmt.Errorf("coll: gather recv: %w", err)
		}
		if out[st.Source] != nil && st.Source != root {
			return nil, fmt.Errorf("coll: gather: duplicate contribution from rank %d", st.Source)
		}
		out[st.Source] = buf
	}
	return out, nil
}

// Scatter distributes root's per-rank blocks; every rank (including
// root) returns its own block. Non-root ranks pass nil.
func (c *Coll) Scatter(root int, blocks [][]byte) ([]byte, error) {
	n := c.eng.Size()
	rank := c.eng.Rank()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("coll: scatter root %d out of range", root)
	}
	tag := c.next(opScatter)
	if rank == root {
		if len(blocks) != n {
			return nil, fmt.Errorf("coll: scatter needs %d blocks, got %d", n, len(blocks))
		}
		for p := 0; p < n; p++ {
			if p == root {
				continue
			}
			if err := c.eng.Send(p, tag, blocks[p]); err != nil {
				return nil, fmt.Errorf("coll: scatter send: %w", err)
			}
		}
		return blocks[root], nil
	}
	buf, _, err := c.eng.Recv(root, tag)
	if err != nil {
		return nil, fmt.Errorf("coll: scatter recv: %w", err)
	}
	return buf, nil
}

// Allgather gives every rank all contributions, indexed by rank, using
// the ring algorithm: n-1 steps, each forwarding the block received in
// the previous step.
func (c *Coll) Allgather(data []byte) ([][]byte, error) {
	n := c.eng.Size()
	rank := c.eng.Rank()
	tag := c.next(opAllgather)
	out := make([][]byte, n)
	out[rank] = data
	if n == 1 {
		return out, nil
	}
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	sendBlock := rank
	for step := 0; step < n-1; step++ {
		h, err := c.eng.Isend(right, tag, out[sendBlock])
		if err != nil {
			return nil, fmt.Errorf("coll: allgather send: %w", err)
		}
		buf, _, err := c.eng.Recv(left, tag)
		if err != nil {
			return nil, fmt.Errorf("coll: allgather recv: %w", err)
		}
		if _, _, err := c.eng.Wait(h); err != nil {
			return nil, fmt.Errorf("coll: allgather send: %w", err)
		}
		sendBlock = (sendBlock - 1 + n) % n
		out[sendBlock] = buf
	}
	return out, nil
}

// Alltoall sends blocks[p] to rank p and returns the blocks received
// from every rank, indexed by source.
func (c *Coll) Alltoall(blocks [][]byte) ([][]byte, error) {
	n := c.eng.Size()
	rank := c.eng.Rank()
	if len(blocks) != n {
		return nil, fmt.Errorf("coll: alltoall needs %d blocks, got %d", n, len(blocks))
	}
	tag := c.next(opAlltoall)
	out := make([][]byte, n)
	out[rank] = blocks[rank]
	var reqs []pml.Request
	for p := 0; p < n; p++ {
		if p == rank {
			continue
		}
		h, err := c.eng.Isend(p, tag, blocks[p])
		if err != nil {
			return nil, fmt.Errorf("coll: alltoall send: %w", err)
		}
		reqs = append(reqs, h)
	}
	for i := 0; i < n-1; i++ {
		buf, st, err := c.eng.Recv(pml.AnySource, tag)
		if err != nil {
			return nil, fmt.Errorf("coll: alltoall recv: %w", err)
		}
		out[st.Source] = buf
	}
	if err := c.eng.Waitall(reqs); err != nil {
		return nil, fmt.Errorf("coll: alltoall waitall: %w", err)
	}
	return out, nil
}

// --- Typed reduction helpers ----------------------------------------------

// Float64sToBytes encodes a float64 slice for collective payloads.
func Float64sToBytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// BytesToFloat64s decodes a payload produced by Float64sToBytes.
func BytesToFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("coll: float64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Int64sToBytes encodes an int64 slice for collective payloads.
func Int64sToBytes(xs []int64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesToInt64s decodes a payload produced by Int64sToBytes.
func BytesToInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("coll: int64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// elementwise builds an Op from an element fold over float64s.
func elementwiseFloat64(fold func(a, b float64) float64) Op {
	return func(a, b []byte) ([]byte, error) {
		xs, err := BytesToFloat64s(a)
		if err != nil {
			return nil, err
		}
		ys, err := BytesToFloat64s(b)
		if err != nil {
			return nil, err
		}
		if len(xs) != len(ys) {
			return nil, fmt.Errorf("coll: reduce operand lengths differ: %d vs %d", len(xs), len(ys))
		}
		for i := range xs {
			xs[i] = fold(xs[i], ys[i])
		}
		return Float64sToBytes(xs), nil
	}
}

// elementwiseInt64 builds an Op from an element fold over int64s.
func elementwiseInt64(fold func(a, b int64) int64) Op {
	return func(a, b []byte) ([]byte, error) {
		xs, err := BytesToInt64s(a)
		if err != nil {
			return nil, err
		}
		ys, err := BytesToInt64s(b)
		if err != nil {
			return nil, err
		}
		if len(xs) != len(ys) {
			return nil, fmt.Errorf("coll: reduce operand lengths differ: %d vs %d", len(xs), len(ys))
		}
		for i := range xs {
			xs[i] = fold(xs[i], ys[i])
		}
		return Int64sToBytes(xs), nil
	}
}

// Standard reduction operators.
var (
	// SumFloat64 adds float64 vectors elementwise.
	SumFloat64 = elementwiseFloat64(func(a, b float64) float64 { return a + b })
	// MaxFloat64 takes the elementwise maximum of float64 vectors.
	MaxFloat64 = elementwiseFloat64(math.Max)
	// MinFloat64 takes the elementwise minimum of float64 vectors.
	MinFloat64 = elementwiseFloat64(math.Min)
	// SumInt64 adds int64 vectors elementwise.
	SumInt64 = elementwiseInt64(func(a, b int64) int64 { return a + b })
	// MaxInt64 takes the elementwise maximum of int64 vectors.
	MaxInt64 = elementwiseInt64(func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
)
