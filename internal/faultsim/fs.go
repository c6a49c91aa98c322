package faultsim

import (
	"fmt"
	"hash/fnv"

	"repro/internal/vfs"
)

// faultyFS wraps a vfs.FS so that writes, reads and renames consult the
// injector first. The label qualifies the fire points: a stable-storage
// wrapper fires "vfs.write:stable", node node3's disk "vfs.write:node3".
//
// Beyond failing individual operations, the wrapper implements two
// storage fault classes the durability layer is tested against:
//
//   - "node.storage-loss:<label>": when the rule fires, the entire
//     store is wiped in place — every subsequent read of the old tree
//     returns ErrNotExist, while new writes still succeed (the disk was
//     replaced, not the machine). Checked on every operation.
//   - "fs.bitrot:<label>:<path>": when the rule fires on a read, one
//     byte of the file is flipped and the corruption is written back,
//     so it persists: every later read — and every copy made from the
//     file — sees the same damaged bytes, like real silent media decay.
//     The flipped position derives from the plan seed and the path, so
//     a given plan corrupts identically on every run.
//   - "fs.outage:<label>": a transient outage — every operation on the
//     store fails with an ErrOutage-class error while the rule fires,
//     then the store comes back intact. "after5,times10" models a
//     ten-operation window of unreachability. Checked before any other
//     point on every operation.
//
// An Append that "vfs.write:<label>" fails first lands a prefix of its
// data, of a length drawn from the plan seed and the path: the torn
// tail a crash in the middle of an append leaves.
type faultyFS struct {
	inner vfs.FS
	inj   *Injector
	label string
}

// WrapFS returns fsys with injection points "vfs.write:<label>",
// "vfs.read:<label>", "vfs.rename:<label>", "fs.bitrot:<label>:<path>"
// and "node.storage-loss:<label>" armed on the respective operations.
// A nil injector returns fsys unchanged.
func WrapFS(fsys vfs.FS, inj *Injector, label string) vfs.FS {
	if inj == nil {
		return fsys
	}
	return &faultyFS{inner: fsys, inj: inj, label: label}
}

// maybeOutage evaluates the transient-outage point: while its rule
// fires, every operation fails with an error in the ErrOutage class and
// the store itself is untouched.
func (f *faultyFS) maybeOutage(op, name string) error {
	if err := f.inj.Fire("fs.outage:" + f.label); err != nil {
		return fmt.Errorf("vfs: %s %q: %w: %w", op, name, ErrOutage, err)
	}
	return nil
}

// maybeLose evaluates the storage-loss point and, when it fires, wipes
// the inner store: the data is gone, the device still accepts writes.
func (f *faultyFS) maybeLose() {
	if f.inj.Fire("node.storage-loss:"+f.label) == nil {
		return
	}
	entries, err := f.inner.ReadDir(".")
	if err != nil {
		return
	}
	for _, e := range entries {
		_ = f.inner.Remove(e.Name)
	}
}

// pick draws an index below n from the plan seed and the path, so a
// given plan damages identically on every run. n must be positive.
func (f *faultyFS) pick(name string, n int) int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", f.inj.Seed(), f.label, name)
	return int(h.Sum64() % uint64(n))
}

// flipByte corrupts one deterministically-chosen byte of data in place.
func (f *faultyFS) flipByte(name string, data []byte) {
	if len(data) > 0 {
		data[f.pick(name, len(data))] ^= 0xFF
	}
}

// WriteFile implements vfs.FS.
func (f *faultyFS) WriteFile(name string, data []byte) error {
	if err := f.maybeOutage("write", name); err != nil {
		return err
	}
	f.maybeLose()
	if err := f.inj.Fire("vfs.write:" + f.label); err != nil {
		return fmt.Errorf("vfs: write %q: %w", name, err)
	}
	return f.inner.WriteFile(name, data)
}

// Append implements vfs.FS. A failed append lands a seeded-length
// prefix of data before it reports the failure.
func (f *faultyFS) Append(name string, data []byte) error {
	if err := f.maybeOutage("append", name); err != nil {
		return err
	}
	f.maybeLose()
	if err := f.inj.Fire("vfs.write:" + f.label); err != nil {
		if len(data) > 0 {
			_ = f.inner.Append(name, data[:f.pick(name, len(data))])
		}
		return fmt.Errorf("vfs: append %q: %w", name, err)
	}
	return f.inner.Append(name, data)
}

// ReadFile implements vfs.FS.
func (f *faultyFS) ReadFile(name string) ([]byte, error) {
	if err := f.maybeOutage("read", name); err != nil {
		return nil, err
	}
	f.maybeLose()
	if err := f.inj.Fire("vfs.read:" + f.label); err != nil {
		return nil, fmt.Errorf("vfs: read %q: %w", name, err)
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if f.inj.Fire("fs.bitrot:"+f.label+":"+name) != nil {
		f.flipByte(name, data)
		// Persist the decay: bitrot damages the medium, not one read.
		_ = f.inner.WriteFile(name, data)
	}
	return data, nil
}

// Rename implements vfs.FS.
func (f *faultyFS) Rename(oldName, newName string) error {
	if err := f.maybeOutage("rename", oldName); err != nil {
		return err
	}
	f.maybeLose()
	if err := f.inj.Fire("vfs.rename:" + f.label); err != nil {
		return fmt.Errorf("vfs: rename %q: %w", oldName, err)
	}
	return f.inner.Rename(oldName, newName)
}

// Remove implements vfs.FS.
func (f *faultyFS) Remove(name string) error {
	if err := f.maybeOutage("remove", name); err != nil {
		return err
	}
	f.maybeLose()
	return f.inner.Remove(name)
}

// MkdirAll implements vfs.FS.
func (f *faultyFS) MkdirAll(name string) error {
	if err := f.maybeOutage("mkdir", name); err != nil {
		return err
	}
	f.maybeLose()
	return f.inner.MkdirAll(name)
}

// ReadDir implements vfs.FS.
func (f *faultyFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	if err := f.maybeOutage("readdir", name); err != nil {
		return nil, err
	}
	f.maybeLose()
	return f.inner.ReadDir(name)
}

// Stat implements vfs.FS.
func (f *faultyFS) Stat(name string) (vfs.FileInfo, error) {
	if err := f.maybeOutage("stat", name); err != nil {
		return vfs.FileInfo{}, err
	}
	f.maybeLose()
	return f.inner.Stat(name)
}

var _ vfs.FS = (*faultyFS)(nil)
