// Package vfs provides the virtual filesystem abstraction used by the
// simulated cluster. Every node in the cluster owns a node-local
// filesystem (usually an in-memory Mem), while stable storage is backed
// by a real on-disk directory (OS) so that global snapshots survive the
// simulator process, as the paper's stable-storage definition requires.
//
// The interface is deliberately small: the FILEM framework and the
// snapshot code only need create/read/write/remove/list/stat, and keeping
// the surface minimal makes the Mem and OS implementations easy to prove
// equivalent (see the shared conformance tests).
package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Common error values. Implementations wrap these so callers can use
// errors.Is regardless of the backing store.
var (
	// ErrNotExist reports that a file or directory does not exist.
	ErrNotExist = errors.New("vfs: file does not exist")
	// ErrExist reports that a file already exists where one must not.
	ErrExist = errors.New("vfs: file already exists")
	// ErrIsDir reports that a directory was found where a file was expected.
	ErrIsDir = errors.New("vfs: is a directory")
	// ErrNotDir reports that a file was found where a directory was expected.
	ErrNotDir = errors.New("vfs: not a directory")
	// ErrInvalid reports a malformed path.
	ErrInvalid = errors.New("vfs: invalid path")
	// ErrNotEmpty reports a rename onto a non-empty directory, which
	// rename(2) refuses (ENOTEMPTY). Callers that really mean to replace
	// a directory tree must remove it first.
	ErrNotEmpty = errors.New("vfs: directory not empty")
)

// FileInfo describes a file or directory in a virtual filesystem.
type FileInfo struct {
	Name    string    // base name
	Size    int64     // length in bytes; 0 for directories
	IsDir   bool      // whether the entry is a directory
	ModTime time.Time // last modification time
}

// FS is the filesystem contract shared by node-local disks and stable
// storage. All paths are slash-separated and interpreted relative to the
// filesystem root; a leading slash is permitted and ignored.
type FS interface {
	// WriteFile writes data to name, creating parent directories as
	// needed and truncating any existing file.
	WriteFile(name string, data []byte) error
	// Append writes data at the end of name, creating the file and its
	// parent directories as needed. It is as durable as WriteFile.
	Append(name string, data []byte) error
	// ReadFile returns the contents of the named file.
	ReadFile(name string) ([]byte, error)
	// Remove removes the named file or (recursively) directory.
	// Removing a nonexistent name is an error.
	Remove(name string) error
	// Rename atomically moves a file or directory tree to a new name,
	// creating the destination's parents as needed. Like rename(2): an
	// existing destination file is replaced, an existing destination
	// directory is replaced only if empty (ErrNotEmpty otherwise). The
	// atomic commit step of snapshot writes depends on this (stage, then
	// rename into place).
	Rename(oldName, newName string) error
	// MkdirAll creates the named directory along with any parents.
	// It succeeds if the directory already exists.
	MkdirAll(name string) error
	// ReadDir lists the entries of the named directory sorted by name.
	ReadDir(name string) ([]FileInfo, error)
	// Stat describes the named file or directory.
	Stat(name string) (FileInfo, error)
}

// Clean canonicalizes a slash-separated path: it strips any leading
// slashes, applies path.Clean, and rejects attempts to escape the root.
// The empty string and "." both denote the filesystem root.
func Clean(name string) (string, error) {
	name = strings.TrimLeft(name, "/")
	if name == "" {
		return ".", nil
	}
	cleaned := path.Clean(name)
	if cleaned == ".." || strings.HasPrefix(cleaned, "../") {
		return "", fmt.Errorf("%w: %q escapes filesystem root", ErrInvalid, name)
	}
	return cleaned, nil
}

// Exists reports whether name exists on fsys.
func Exists(fsys FS, name string) bool {
	_, err := fsys.Stat(name)
	return err == nil
}

// HashBytes returns the hex-encoded sha256 of data. This is the one
// content hash of the checkpoint path: the FILEM gather computes it
// once per file, from the bytes it reads on the source node, and those
// digests are both its dedup keys and the snapshot's commit manifest.
// Commit reads no payload; verify and restore recompute it over the
// bytes on storage, which checks integrity end to end.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashFile returns the hex sha256 of the named file's contents along
// with its size.
func HashFile(fsys FS, name string) (string, int64, error) {
	data, err := fsys.ReadFile(name)
	if err != nil {
		return "", 0, err
	}
	return HashBytes(data), int64(len(data)), nil
}

// CopyFile copies a single file from src on srcFS to dst on dstFS.
func CopyFile(srcFS FS, src string, dstFS FS, dst string) error {
	data, err := srcFS.ReadFile(src)
	if err != nil {
		return fmt.Errorf("vfs: copy %q: %w", src, err)
	}
	if err := dstFS.WriteFile(dst, data); err != nil {
		return fmt.Errorf("vfs: copy to %q: %w", dst, err)
	}
	return nil
}

// CopyTree recursively copies the tree rooted at src on srcFS to dst on
// dstFS. src may be a single file. Returns the total bytes copied.
func CopyTree(srcFS FS, src string, dstFS FS, dst string) (int64, error) {
	info, err := srcFS.Stat(src)
	if err != nil {
		return 0, fmt.Errorf("vfs: copy tree %q: %w", src, err)
	}
	if !info.IsDir {
		data, err := srcFS.ReadFile(src)
		if err != nil {
			return 0, err
		}
		if err := dstFS.WriteFile(dst, data); err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	}
	if err := dstFS.MkdirAll(dst); err != nil {
		return 0, err
	}
	entries, err := srcFS.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		n, err := CopyTree(srcFS, path.Join(src, e.Name), dstFS, path.Join(dst, e.Name))
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// TreeSize returns the total size in bytes of all files under root.
func TreeSize(fsys FS, root string) (int64, error) {
	info, err := fsys.Stat(root)
	if err != nil {
		return 0, err
	}
	if !info.IsDir {
		return info.Size, nil
	}
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		n, err := TreeSize(fsys, path.Join(root, e.Name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Walk calls fn for every file (not directory) under root, passing the
// full path and file info. Entries are visited in sorted order.
func Walk(fsys FS, root string, fn func(name string, info FileInfo) error) error {
	info, err := fsys.Stat(root)
	if err != nil {
		return err
	}
	if !info.IsDir {
		return fn(root, info)
	}
	entries, err := fsys.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := Walk(fsys, path.Join(root, e.Name), fn); err != nil {
			return err
		}
	}
	return nil
}

// Mem is an in-memory FS safe for concurrent use. The zero value is not
// usable; construct with NewMem.
//
// Besides the flat path maps, Mem maintains a per-directory children
// index so directory operations (ReadDir, recursive Remove, tree
// Rename) cost O(entries touched) rather than a scan of every path in
// the store. The flat-scan version made snapshot walks on a shared
// stable store quadratic in cluster size, which dominated drain
// throughput from about a thousand nodes up.
type Mem struct {
	mu       sync.RWMutex
	files    map[string][]byte          // regular files by cleaned path
	dirs     map[string]bool            // directories by cleaned path; "." always present
	children map[string]map[string]bool // dir -> immediate child base names
	mtime    map[string]time.Time       // modification times for files and dirs
	clock    func() time.Time
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{
		files:    make(map[string][]byte),
		dirs:     map[string]bool{".": true},
		children: map[string]map[string]bool{".": {}},
		mtime:    map[string]time.Time{".": time.Now()},
		clock:    time.Now,
	}
}

func (m *Mem) now() time.Time { return m.clock() }

// linkLocked records p in its parent's children index. Caller holds m.mu
// and guarantees p != ".".
func (m *Mem) linkLocked(p string) {
	parent := path.Dir(p)
	c := m.children[parent]
	if c == nil {
		c = make(map[string]bool)
		m.children[parent] = c
	}
	c[path.Base(p)] = true
}

// unlinkLocked removes p from its parent's children index. Caller holds
// m.mu and guarantees p != ".".
func (m *Mem) unlinkLocked(p string) {
	delete(m.children[path.Dir(p)], path.Base(p))
}

// mkdirAllLocked creates dir and parents. Caller holds m.mu.
func (m *Mem) mkdirAllLocked(dir string) error {
	if dir == "." {
		return nil
	}
	if _, isFile := m.files[dir]; isFile {
		return fmt.Errorf("vfs: mkdir %q: %w", dir, ErrNotDir)
	}
	if m.dirs[dir] {
		return nil
	}
	if err := m.mkdirAllLocked(path.Dir(dir)); err != nil {
		return err
	}
	m.dirs[dir] = true
	m.mtime[dir] = m.now()
	m.linkLocked(dir)
	return nil
}

// WriteFile implements FS.
func (m *Mem) WriteFile(name string, data []byte) error {
	return m.put("write", name, data, false)
}

// Append implements FS.
func (m *Mem) Append(name string, data []byte) error {
	return m.put("append", name, data, true)
}

// put replaces name's contents with data, or extends them with data.
func (m *Mem) put(op, name string, data []byte, extend bool) error {
	p, err := Clean(name)
	if err != nil {
		return err
	}
	if p == "." {
		return fmt.Errorf("vfs: %s %q: %w", op, name, ErrIsDir)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		return fmt.Errorf("vfs: %s %q: %w", op, name, ErrIsDir)
	}
	if err := m.mkdirAllLocked(path.Dir(p)); err != nil {
		return err
	}
	// A file's bytes are never shared (ReadFile copies, Rename moves),
	// so an append may grow them in place.
	var buf []byte
	if extend {
		buf = m.files[p]
	}
	m.files[p] = append(buf, data...)
	m.mtime[p] = m.now()
	m.linkLocked(p)
	return nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	p, err := Clean(name)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.dirs[p] {
		return nil, fmt.Errorf("vfs: read %q: %w", name, ErrIsDir)
	}
	data, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("vfs: read %q: %w", name, ErrNotExist)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	return buf, nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	p, err := Clean(name)
	if err != nil {
		return err
	}
	if p == "." {
		return fmt.Errorf("vfs: remove %q: %w", name, ErrInvalid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; ok {
		delete(m.files, p)
		delete(m.mtime, p)
		m.unlinkLocked(p)
		return nil
	}
	if !m.dirs[p] {
		return fmt.Errorf("vfs: remove %q: %w", name, ErrNotExist)
	}
	m.removeTreeLocked(p)
	m.unlinkLocked(p)
	return nil
}

// removeTreeLocked deletes the directory p and everything beneath it,
// walking the children index. Caller holds m.mu and unlinks p from its
// parent itself.
func (m *Mem) removeTreeLocked(p string) {
	for base := range m.children[p] {
		child := p + "/" + base
		if m.dirs[child] {
			m.removeTreeLocked(child)
		}
		delete(m.files, child)
		delete(m.mtime, child)
	}
	delete(m.children, p)
	delete(m.dirs, p)
	delete(m.mtime, p)
}

// Rename implements FS. The whole move happens under one lock, so
// concurrent readers observe either the old tree or the new one — the
// in-memory equivalent of an atomic rename(2).
func (m *Mem) Rename(oldName, newName string) error {
	op, err := Clean(oldName)
	if err != nil {
		return err
	}
	np, err := Clean(newName)
	if err != nil {
		return err
	}
	if op == "." || np == "." {
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrInvalid)
	}
	if np == op || strings.HasPrefix(np, op+"/") {
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrInvalid)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[op]; ok {
		if m.dirs[np] {
			return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrIsDir)
		}
		if err := m.mkdirAllLocked(path.Dir(np)); err != nil {
			return err
		}
		m.files[np] = data
		m.mtime[np] = m.now()
		m.linkLocked(np)
		delete(m.files, op)
		delete(m.mtime, op)
		m.unlinkLocked(op)
		return nil
	}
	if !m.dirs[op] {
		return fmt.Errorf("vfs: rename %q: %w", oldName, ErrNotExist)
	}
	if _, isFile := m.files[np]; isFile {
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrNotDir)
	}
	if err := m.mkdirAllLocked(path.Dir(np)); err != nil {
		return err
	}
	// rename(2) semantics: an existing destination directory may only be
	// replaced if it is empty. Silently swallowing a non-empty tree here
	// once masked commit-over-debris bugs the OS backend then exposed.
	if m.dirs[np] && len(m.children[np]) > 0 {
		return fmt.Errorf("vfs: rename %q -> %q: %w", oldName, newName, ErrNotEmpty)
	}
	// Re-key the source tree, walking the children index.
	var move func(old, new string)
	move = func(old, new string) {
		for base := range m.children[old] {
			oc, nc := old+"/"+base, new+"/"+base
			if m.dirs[oc] {
				move(oc, nc)
				continue
			}
			m.files[nc] = m.files[oc]
			m.mtime[nc] = m.now()
			m.linkLocked(nc)
			delete(m.files, oc)
			delete(m.mtime, oc)
		}
		delete(m.children, old)
		delete(m.dirs, old)
		delete(m.mtime, old)
		m.dirs[new] = true
		m.mtime[new] = m.now()
		m.linkLocked(new)
	}
	move(op, np)
	m.unlinkLocked(op)
	return nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(name string) error {
	p, err := Clean(name)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mkdirAllLocked(p)
}

// ReadDir implements FS.
func (m *Mem) ReadDir(name string) ([]FileInfo, error) {
	p, err := Clean(name)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, isFile := m.files[p]; isFile {
		return nil, fmt.Errorf("vfs: readdir %q: %w", name, ErrNotDir)
	}
	if !m.dirs[p] {
		return nil, fmt.Errorf("vfs: readdir %q: %w", name, ErrNotExist)
	}
	out := make([]FileInfo, 0, len(m.children[p]))
	for base := range m.children[p] {
		full := base
		if p != "." {
			full = p + "/" + base
		}
		if data, ok := m.files[full]; ok {
			out = append(out, FileInfo{Name: base, Size: int64(len(data)), ModTime: m.mtime[full]})
		} else if m.dirs[full] {
			out = append(out, FileInfo{Name: base, IsDir: true, ModTime: m.mtime[full]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stat implements FS.
func (m *Mem) Stat(name string) (FileInfo, error) {
	p, err := Clean(name)
	if err != nil {
		return FileInfo{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if data, ok := m.files[p]; ok {
		return FileInfo{Name: path.Base(p), Size: int64(len(data)), ModTime: m.mtime[p]}, nil
	}
	if m.dirs[p] {
		return FileInfo{Name: path.Base(p), IsDir: true, ModTime: m.mtime[p]}, nil
	}
	return FileInfo{}, fmt.Errorf("vfs: stat %q: %w", name, ErrNotExist)
}

var _ FS = (*Mem)(nil)

// statically assert fs.ErrNotExist compatibility helper exists; the OS
// implementation maps os errors onto the vfs sentinel errors.
var _ = fs.ErrNotExist
