package crs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"

	"repro/internal/vfs"
)

// SimCR is the simulated system-level checkpointer standing in for BLCR.
// It captures the entire process image as an opaque blob, wrapped in a
// small framed container with a CRC so corruption is detected at restart
// rather than silently restoring garbage (BLCR context files carry
// similar integrity framing).
type SimCR struct{}

// ImageFile is the payload file SimCR writes into the snapshot dir.
const ImageFile = "process_image.bin"

// simcrMagic guards against restarting a snapshot taken by a different
// checkpointer — the paper notes checkpointer outputs are mutually
// incompatible, and heterogeneous support works by recording which
// system produced each local snapshot, never by mixing formats.
var simcrMagic = [4]byte{'S', 'C', 'R', '1'}

// Name implements mca.Component.
func (*SimCR) Name() string { return "simcr" }

// Priority implements mca.Component. SimCR is the default, like BLCR in
// the paper's implementation.
func (*SimCR) Priority() int { return 20 }

// frameHead is the length of the container header: magic | uint32 crc |
// uint64 len.
const frameHead = 16

// Checkpoint implements Component: serialize the full process image,
// framed in place in the buffer the process returns.
func (*SimCR) Checkpoint(proc Process, fsys vfs.FS, dir string) ([]string, error) {
	framed, err := proc.Image(frameHead)
	if err != nil {
		return nil, fmt.Errorf("crs simcr: capture image of pid %d: %w", proc.PID(), err)
	}
	sealFrame(framed)
	if err := fsys.WriteFile(path.Join(dir, ImageFile), framed); err != nil {
		return nil, fmt.Errorf("crs simcr: store image: %w", err)
	}
	return []string{ImageFile}, nil
}

// Restart implements Component: validate and re-instate the image.
func (*SimCR) Restart(proc Process, fsys vfs.FS, dir string, files []string) error {
	name := ImageFile
	// Honor the metadata's file list if present; SimCR only ever writes
	// one payload file.
	if len(files) == 1 {
		name = files[0]
	}
	framed, err := fsys.ReadFile(path.Join(dir, name))
	if err != nil {
		return fmt.Errorf("crs simcr: load image: %w", err)
	}
	img, err := unframeImage(framed)
	if err != nil {
		return fmt.Errorf("crs simcr: %q: %w", path.Join(dir, name), err)
	}
	if err := proc.RestoreImage(img); err != nil {
		return fmt.Errorf("crs simcr: restore pid %d: %w", proc.PID(), err)
	}
	return nil
}

// Continue implements Component; SimCR holds no per-checkpoint state.
func (*SimCR) Continue(Process) error { return nil }

// sealFrame writes the container header into the first frameHead bytes
// of framed, for the image that follows them.
func sealFrame(framed []byte) {
	img := framed[frameHead:]
	copy(framed, simcrMagic[:])
	binary.BigEndian.PutUint32(framed[4:], crc32.ChecksumIEEE(img))
	binary.BigEndian.PutUint64(framed[8:], uint64(len(img)))
}

// unframeImage validates and unwraps a framed image.
func unframeImage(framed []byte) ([]byte, error) {
	if len(framed) < frameHead {
		return nil, fmt.Errorf("image truncated: %d bytes", len(framed))
	}
	if [4]byte(framed[:4]) != simcrMagic {
		return nil, fmt.Errorf("bad image magic %q (snapshot from a different checkpointer?)", framed[:4])
	}
	wantCRC := binary.BigEndian.Uint32(framed[4:8])
	n := binary.BigEndian.Uint64(framed[8:16])
	payload := framed[frameHead:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("image length mismatch: header %d, payload %d", n, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("image CRC mismatch: corrupt snapshot")
	}
	return payload, nil
}

var _ Component = (*SimCR)(nil)
