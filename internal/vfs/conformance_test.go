package vfs

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// The conformance suite drives every FS implementation through the
// operations the snapshot commit protocol and FILEM depend on, asserting
// identical observable behaviour. The Mem/OS rename divergence that let
// commits behave differently in-memory and on disk is exactly the class
// of bug this suite exists to catch.

func TestConformanceRenameOntoExistingFile(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fsys.WriteFile("a", []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile("b", []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Rename("a", "b"); err != nil {
				t.Fatalf("file onto file: %v", err)
			}
			if data, _ := fsys.ReadFile("b"); string(data) != "new" {
				t.Errorf("b = %q, want replaced content", data)
			}
			if Exists(fsys, "a") {
				t.Error("source file survived")
			}
			// A directory must not replace an existing plain file.
			if err := fsys.WriteFile("d/inner", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Rename("d", "b"); !errors.Is(err, ErrNotDir) {
				t.Errorf("dir onto file = %v, want ErrNotDir", err)
			}
			if data, _ := fsys.ReadFile("b"); string(data) != "new" {
				t.Error("refused rename clobbered the destination file")
			}
		})
	}
}

func TestConformanceRenameOntoExistingDir(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fsys.WriteFile("tree/f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			// File onto a directory: refused, empty or not.
			if err := fsys.WriteFile("plain", nil); err != nil {
				t.Fatal(err)
			}
			if err := fsys.MkdirAll("emptydir"); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Rename("plain", "emptydir"); !errors.Is(err, ErrIsDir) {
				t.Errorf("file onto empty dir = %v, want ErrIsDir", err)
			}
			if err := fsys.Rename("plain", "tree"); !errors.Is(err, ErrIsDir) {
				t.Errorf("file onto non-empty dir = %v, want ErrIsDir", err)
			}
			// Dir onto an empty dir: allowed; onto a populated dir: refused.
			if err := fsys.Rename("tree", "emptydir"); err != nil {
				t.Fatalf("dir onto empty dir: %v", err)
			}
			if err := fsys.WriteFile("tree2/g", []byte("y")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Rename("tree2", "emptydir"); !errors.Is(err, ErrNotEmpty) {
				t.Errorf("dir onto non-empty dir = %v, want ErrNotEmpty", err)
			}
			if data, _ := fsys.ReadFile("emptydir/f"); string(data) != "x" {
				t.Error("refused rename disturbed the destination tree")
			}
		})
	}
}

func TestConformanceRemove(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fsys.WriteFile("t/a/x", []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile("t/b", []byte("2")); err != nil {
				t.Fatal(err)
			}
			// File removal leaves siblings alone.
			if err := fsys.Remove("t/b"); err != nil {
				t.Fatal(err)
			}
			if !Exists(fsys, "t/a/x") || Exists(fsys, "t/b") {
				t.Error("file removal disturbed the tree")
			}
			// Directory removal is recursive.
			if err := fsys.Remove("t"); err != nil {
				t.Fatal(err)
			}
			if Exists(fsys, "t") || Exists(fsys, "t/a/x") {
				t.Error("directory removal left entries behind")
			}
			// Removing a missing name is an error on both backends.
			if err := fsys.Remove("t"); !errors.Is(err, ErrNotExist) {
				t.Errorf("remove missing = %v, want ErrNotExist", err)
			}
			// The root itself is not removable.
			if err := fsys.Remove("."); !errors.Is(err, ErrInvalid) {
				t.Errorf("remove root = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestConformanceWalkOrdering(t *testing.T) {
	// Walk visits files in sorted order on every backend — the snapshot
	// manifest and FILEM tree listings rely on a stable traversal.
	files := []string{"z/last", "a/deep/nested", "a/first", "m/mid", "top"}
	var walks [][]string
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			for _, f := range files {
				if err := fsys.WriteFile(f, []byte(f)); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			if err := Walk(fsys, ".", func(p string, info FileInfo) error {
				if info.IsDir {
					t.Errorf("Walk visited directory %q", p)
				}
				got = append(got, p)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := []string{"a/deep/nested", "a/first", "m/mid", "top", "z/last"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Walk order = %v, want %v", got, want)
			}
			walks = append(walks, got)
		})
	}
	if len(walks) == 2 && !reflect.DeepEqual(walks[0], walks[1]) {
		t.Errorf("backends disagree on Walk order: %v vs %v", walks[0], walks[1])
	}
}

func TestConformanceExists(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if !Exists(fsys, ".") {
				t.Error("root does not exist")
			}
			if Exists(fsys, "nope") {
				t.Error("missing name exists")
			}
			if err := fsys.WriteFile("d/f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"d", "d/f", "/d/f"} {
				if !Exists(fsys, p) {
					t.Errorf("%q should exist", p)
				}
			}
			if Exists(fsys, "d/f/sub") {
				t.Error("child of a file exists")
			}
		})
	}
}

// Append creates a missing file and its parents, concatenates, and
// moves Stat's size and modification time the way the record logs'
// stale-handle check relies on; a directory is refused.
func TestConformanceAppend(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fsys.Append("a/b/log", []byte("one\n")); err != nil {
				t.Fatalf("append to a missing file: %v", err)
			}
			before, err := fsys.Stat("a/b/log")
			if err != nil || before.Size != 4 {
				t.Fatalf("stat after create: %+v, %v", before, err)
			}
			// Outlast coarse filesystem timestamps.
			time.Sleep(20 * time.Millisecond)
			if err := fsys.Append("a/b/log", []byte("two\n")); err != nil {
				t.Fatal(err)
			}
			if data, _ := fsys.ReadFile("a/b/log"); string(data) != "one\ntwo\n" {
				t.Errorf("log = %q, want both appends in order", data)
			}
			after, err := fsys.Stat("a/b/log")
			if err != nil || after.Size != 8 || !after.ModTime.After(before.ModTime) {
				t.Errorf("stat after append: %+v (before %+v), %v", after, before, err)
			}
			if err := fsys.Append("a/b", []byte("x")); !errors.Is(err, ErrIsDir) {
				t.Errorf("append to a directory = %v, want ErrIsDir", err)
			}
			if err := fsys.WriteFile("a/b/log", []byte("new")); err != nil {
				t.Fatal(err)
			}
			if data, _ := fsys.ReadFile("a/b/log"); string(data) != "new" {
				t.Errorf("WriteFile after appends = %q, want truncated", data)
			}
		})
	}
}

func TestConformanceHashHelpers(t *testing.T) {
	// sha256 of "payload", the hash shared by commit and gather.
	const want = "239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e5"
	if got := HashBytes([]byte("payload")); got != want {
		t.Errorf("HashBytes = %s, want %s", got, want)
	}
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fsys.WriteFile("f", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			h, n, err := fsys2Hash(fsys, "f")
			if err != nil || h != want || n != int64(len("payload")) {
				t.Errorf("HashFile = %s, %d, %v", h, n, err)
			}
			if _, _, err := fsys2Hash(fsys, "missing"); !errors.Is(err, ErrNotExist) {
				t.Errorf("HashFile missing = %v, want ErrNotExist", err)
			}
		})
	}
}

func fsys2Hash(fsys FS, name string) (string, int64, error) { return HashFile(fsys, name) }
