// Package crs implements the paper's OPAL CRS (Checkpoint/Restart
// Service) framework (§5.4, §6.4): the single-process checkpoint/restart
// layer. A CRS component must provide exactly two operations — capture a
// snapshot of a process identified by PID and return a reference for
// later restart, and restart a process on the local machine from such a
// reference — plus the ability to enable and disable checkpointing to
// protect non-checkpointable code sections.
//
// The paper's reference components are BLCR (system-level) and SELF
// (application callbacks). Go cannot snapshot its own OS process, so the
// system-level component here is simcr: it captures the full simulated
// process image (library state plus all application state registered with
// the runtime) without invoking application callbacks at checkpoint time.
// That preserves the contract BLCR gives the layers above — an opaque
// blob per PID, restartable on a possibly different node — which is all
// SNAPC, FILEM and CRCP ever rely on. The self component reproduces the
// paper's SELF checkpointer directly: user callbacks on checkpoint,
// continue and restart.
package crs

import (
	"errors"
	"fmt"

	"repro/internal/mca"
	"repro/internal/vfs"
)

// FrameworkName is the MCA selection parameter for this framework.
const FrameworkName = "crs"

// ErrNotSupported is returned by the none component and by operations a
// component cannot perform.
var ErrNotSupported = errors.New("crs: checkpoint/restart not supported")

// SelfCallbacks are the application-level checkpoint hooks used by the
// self component, mirroring LAM/MPI's and the paper's SELF component:
// the application is given control at checkpoint, continue and restart.
type SelfCallbacks struct {
	// Checkpoint is invoked while the process is quiesced; it must write
	// whatever the application needs for recovery into dir on fsys.
	Checkpoint func(fsys vfs.FS, dir string) error
	// Continue is invoked after a checkpoint completes and the process
	// resumes in place. Optional.
	Continue func() error
	// Restart is invoked on a process freshly restored from a snapshot;
	// it must read the application state back from dir on fsys.
	Restart func(fsys vfs.FS, dir string) error
}

// Process is the CRS view of one application process — the moral
// equivalent of the PID the paper's API takes. The simulated runtime
// implements it; tests use fakes.
type Process interface {
	// PID identifies the process on its node.
	PID() int
	// Image serializes the complete process image: MPI library state,
	// in-flight message queues, and all registered application state.
	// It returns the image after head free bytes, so a system-level
	// checkpointer can frame it in place.
	Image(head int) ([]byte, error)
	// RestoreImage re-instates a previously captured image.
	RestoreImage(data []byte) error
	// Self returns the application's SELF callbacks, or nil if the
	// application registered none.
	Self() *SelfCallbacks
}

// Component is a single-process checkpoint/restart system. Checkpoint
// and Restart are the paper's two required operations; the payload file
// list returned by Checkpoint is recorded in the local snapshot metadata
// so the snapshot directory stays self-describing.
type Component interface {
	mca.Component
	// Checkpoint captures proc into dir on fsys and returns the names of
	// the payload files it wrote (relative to dir).
	Checkpoint(proc Process, fsys vfs.FS, dir string) (files []string, err error)
	// Restart re-instates proc from the payload files in dir on fsys.
	Restart(proc Process, fsys vfs.FS, dir string, files []string) error
	// Continue notifies the component that the checkpointed process
	// resumes in place (some systems need cleanup here).
	Continue(proc Process) error
}

// NewFramework returns the CRS framework with the built-in components
// registered: simcr (the simulated system-level checkpointer, default),
// self (application callbacks), and none.
func NewFramework() *mca.Framework[Component] {
	f := mca.NewFramework[Component](FrameworkName)
	f.MustRegister(&SimCR{})
	f.MustRegister(&Self{})
	f.MustRegister(&None{})
	return f
}

// None is the component selected for processes that cannot or will not
// be checkpointed; every operation fails with ErrNotSupported. SNAPC
// consults checkpointability before initiating a distributed checkpoint,
// so in a correctly behaving run these methods are never reached.
type None struct{}

// Name implements mca.Component.
func (*None) Name() string { return "none" }

// Priority implements mca.Component.
func (*None) Priority() int { return 0 }

// Checkpoint implements Component.
func (*None) Checkpoint(Process, vfs.FS, string) ([]string, error) {
	return nil, fmt.Errorf("crs none: %w", ErrNotSupported)
}

// Restart implements Component.
func (*None) Restart(Process, vfs.FS, string, []string) error {
	return fmt.Errorf("crs none: %w", ErrNotSupported)
}

// Continue implements Component.
func (*None) Continue(Process) error { return nil }

var _ Component = (*None)(nil)
