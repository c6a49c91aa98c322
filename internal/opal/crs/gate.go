package crs

import (
	"errors"
	"sync"
)

// Gate implements the paper's enable/disable and code-protection
// semantics (§6.4, §6.5). Checkpointing is enabled on completion of
// MPI_INIT and disabled on entry to MPI_FINALIZE; while a checkpoint is
// in progress, a thread touching a protected part of the library (say,
// starting an MPI_SEND) blocks until the checkpoint completes, rather
// than racing the snapshot.
//
// Application threads bracket protected operations with Enter/Exit; the
// checkpoint notification thread brackets a checkpoint with Begin/End.
// Begin claims the gate, so Enter blocks from then on, and waits for
// in-flight protected operations to drain before the checkpoint owns the
// window. That gives checkpoint-exclusion without stopping threads that
// never touch the library.
type Gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	enabled bool
	claimed bool // Begin has run and End has not: Enter blocks
	owned   bool // claimed and drained: the checkpoint owns the window
	active  int  // protected operations currently executing
}

// Errors returned by Gate operations.
var (
	// ErrCheckpointDisabled: Begin was called while checkpointing is
	// disabled (before MPI_INIT completed or after MPI_FINALIZE began).
	ErrCheckpointDisabled = errors.New("crs: checkpointing is disabled")
	// ErrCheckpointActive: Begin was called while another checkpoint of
	// the same process is still in progress.
	ErrCheckpointActive = errors.New("crs: a checkpoint is already in progress")
)

// NewGate returns a Gate with checkpointing disabled (the state before
// MPI_INIT completes).
func NewGate() *Gate {
	g := &Gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Enable permits checkpoints; called on completion of MPI_INIT.
func (g *Gate) Enable() {
	g.mu.Lock()
	g.enabled = true
	g.mu.Unlock()
}

// Disable forbids new checkpoints; called on entry to MPI_FINALIZE. It
// waits for an in-progress checkpoint to finish first, so finalize never
// tears the library down under a running snapshot.
func (g *Gate) Disable() {
	g.mu.Lock()
	for g.claimed {
		g.cond.Wait()
	}
	g.enabled = false
	g.mu.Unlock()
}

// Enabled reports whether checkpoints are currently permitted.
func (g *Gate) Enabled() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.enabled
}

// Enter marks the start of a protected library operation, blocking while
// a checkpoint has claimed the gate.
func (g *Gate) Enter() {
	g.mu.Lock()
	for g.claimed {
		g.cond.Wait()
	}
	g.active++
	g.mu.Unlock()
}

// Exit marks the end of a protected library operation.
func (g *Gate) Exit() {
	g.mu.Lock()
	if g.active <= 0 {
		g.mu.Unlock()
		panic("crs: Gate.Exit without matching Enter")
	}
	g.active--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Begin claims the gate for a checkpoint: it fails fast if checkpointing
// is disabled or already in progress, then waits for active protected
// operations to drain. On success the caller owns the checkpoint window
// and must call End.
func (g *Gate) Begin() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.enabled {
		return ErrCheckpointDisabled
	}
	if g.claimed {
		return ErrCheckpointActive
	}
	g.claimed = true
	for g.active > 0 {
		g.cond.Wait()
	}
	g.owned = true
	return nil
}

// End releases the checkpoint window and wakes blocked threads.
func (g *Gate) End() {
	g.mu.Lock()
	if !g.owned {
		g.mu.Unlock()
		panic("crs: Gate.End without matching Begin")
	}
	g.claimed, g.owned = false, false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// InProgress reports whether a checkpoint currently owns the window: it
// has claimed the gate and every protected operation has drained. An
// operation between Enter and Exit therefore never sees it true.
func (g *Gate) InProgress() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.owned
}
