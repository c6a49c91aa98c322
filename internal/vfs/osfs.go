package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// OS is an FS backed by a real directory on the host filesystem. It is
// used for stable storage so that global snapshots persist beyond the
// lifetime of the simulator process (the paper's stable-storage
// requirement: recovery information must survive the tolerated failures).
type OS struct {
	root string
}

// NewOS returns an FS rooted at dir, creating dir if necessary.
func NewOS(dir string) (*OS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: create root %q: %w", dir, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("vfs: resolve root %q: %w", dir, err)
	}
	return &OS{root: abs}, nil
}

// Root returns the host path of the filesystem root.
func (o *OS) Root() string { return o.root }

func (o *OS) hostPath(name string) (string, error) {
	p, err := Clean(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(o.root, filepath.FromSlash(p)), nil
}

func mapOSError(op, name string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("vfs: %s %q: %w", op, name, ErrNotExist)
	case errors.Is(err, fs.ErrExist):
		return fmt.Errorf("vfs: %s %q: %w", op, name, ErrExist)
	default:
		return fmt.Errorf("vfs: %s %q: %w", op, name, err)
	}
}

// WriteFile implements FS.
func (o *OS) WriteFile(name string, data []byte) error {
	return o.put("write", name, data, os.O_TRUNC)
}

// Append implements FS: one write(2) on an O_APPEND descriptor.
func (o *OS) Append(name string, data []byte) error {
	return o.put("append", name, data, os.O_APPEND)
}

// put opens name for writing with mode (O_TRUNC or O_APPEND), creating
// it and its parents, and writes data.
func (o *OS) put(op, name string, data []byte, mode int) error {
	hp, err := o.hostPath(name)
	if err != nil {
		return err
	}
	if info, err := os.Stat(hp); err == nil && info.IsDir() {
		return fmt.Errorf("vfs: %s %q: %w", op, name, ErrIsDir)
	}
	if err := os.MkdirAll(filepath.Dir(hp), 0o755); err != nil {
		return mapOSError(op, name, err)
	}
	f, err := os.OpenFile(hp, os.O_WRONLY|os.O_CREATE|mode, 0o644)
	if err != nil {
		return mapOSError(op, name, err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return mapOSError(op, name, err)
}

// ReadFile implements FS.
func (o *OS) ReadFile(name string) ([]byte, error) {
	hp, err := o.hostPath(name)
	if err != nil {
		return nil, err
	}
	if info, err := os.Stat(hp); err == nil && info.IsDir() {
		return nil, fmt.Errorf("vfs: read %q: %w", name, ErrIsDir)
	}
	data, err := os.ReadFile(hp)
	if err != nil {
		return nil, mapOSError("read", name, err)
	}
	return data, nil
}

// Remove implements FS.
func (o *OS) Remove(name string) error {
	p, err := Clean(name)
	if err != nil {
		return err
	}
	if p == "." {
		return fmt.Errorf("vfs: remove %q: %w", name, ErrInvalid)
	}
	hp, err := o.hostPath(name)
	if err != nil {
		return err
	}
	if _, err := os.Stat(hp); err != nil {
		return mapOSError("remove", name, err)
	}
	return mapOSError("remove", name, os.RemoveAll(hp))
}

// Rename implements FS.
func (o *OS) Rename(oldName, newName string) error {
	op, err := Clean(oldName)
	if err != nil {
		return err
	}
	np, err := Clean(newName)
	if err != nil {
		return err
	}
	if op == "." || np == "." || np == op || strings.HasPrefix(np, op+"/") {
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrInvalid)
	}
	oldHP, err := o.hostPath(oldName)
	if err != nil {
		return err
	}
	newHP, err := o.hostPath(newName)
	if err != nil {
		return err
	}
	srcInfo, err := os.Stat(oldHP)
	if err != nil {
		return mapOSError("rename", oldName, err)
	}
	if err := os.MkdirAll(filepath.Dir(newHP), 0o755); err != nil {
		return mapOSError("rename", newName, err)
	}
	// Enforce rename(2) destination semantics explicitly rather than
	// trusting the backing filesystem's errnos (overlayfs reports EEXIST
	// for every directory destination, even an empty one POSIX would
	// replace): a file never replaces a directory, a directory never
	// replaces a file, and a non-empty directory destination is refused —
	// the caller must clear it first. Clearing it here instead would break
	// the atomicity the snapshot commit protocol depends on.
	if dstInfo, serr := os.Stat(newHP); serr == nil {
		switch {
		case !srcInfo.IsDir() && dstInfo.IsDir():
			return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrIsDir)
		case srcInfo.IsDir() && !dstInfo.IsDir():
			return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrNotDir)
		case srcInfo.IsDir() && dstInfo.IsDir():
			entries, rerr := os.ReadDir(newHP)
			if rerr != nil {
				return mapOSError("rename", newName, rerr)
			}
			if len(entries) > 0 {
				return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrNotEmpty)
			}
			// POSIX replaces an empty directory destination; overlayfs
			// refuses, so drop the empty directory before the rename.
			if rerr := os.Remove(newHP); rerr != nil {
				return mapOSError("rename", newName, rerr)
			}
		}
	}
	err = os.Rename(oldHP, newHP)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, syscall.ENOTEMPTY) || errors.Is(err, syscall.EEXIST):
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrNotEmpty)
	case errors.Is(err, syscall.EISDIR):
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrIsDir)
	case errors.Is(err, syscall.ENOTDIR):
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrNotDir)
	default:
		return mapOSError("rename", oldName, err)
	}
}

// MkdirAll implements FS.
func (o *OS) MkdirAll(name string) error {
	hp, err := o.hostPath(name)
	if err != nil {
		return err
	}
	return mapOSError("mkdir", name, os.MkdirAll(hp, 0o755))
}

// ReadDir implements FS.
func (o *OS) ReadDir(name string) ([]FileInfo, error) {
	hp, err := o.hostPath(name)
	if err != nil {
		return nil, err
	}
	if info, err := os.Stat(hp); err == nil && !info.IsDir() {
		return nil, fmt.Errorf("vfs: readdir %q: %w", name, ErrNotDir)
	}
	entries, err := os.ReadDir(hp)
	if err != nil {
		return nil, mapOSError("readdir", name, err)
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, mapOSError("readdir", name, err)
		}
		out = append(out, FileInfo{
			Name:    e.Name(),
			Size:    sizeOf(info),
			IsDir:   e.IsDir(),
			ModTime: info.ModTime(),
		})
	}
	return out, nil
}

func sizeOf(info fs.FileInfo) int64 {
	if info.IsDir() {
		return 0
	}
	return info.Size()
}

// Stat implements FS.
func (o *OS) Stat(name string) (FileInfo, error) {
	hp, err := o.hostPath(name)
	if err != nil {
		return FileInfo{}, err
	}
	info, err := os.Stat(hp)
	if err != nil {
		return FileInfo{}, mapOSError("stat", name, err)
	}
	return FileInfo{
		Name:    info.Name(),
		Size:    sizeOf(info),
		IsDir:   info.IsDir(),
		ModTime: info.ModTime(),
	}, nil
}

var _ FS = (*OS)(nil)
