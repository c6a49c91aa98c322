package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// implementations returns a fresh instance of every FS implementation so
// the conformance tests prove Mem and OS behave identically.
func implementations(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	return map[string]FS{
		"mem": NewMem(),
		"os":  osfs,
	}
}

func TestCleanPaths(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"", ".", false},
		{"/", ".", false},
		{".", ".", false},
		{"a/b/c", "a/b/c", false},
		{"/a/b/c", "a/b/c", false},
		{"a//b/./c", "a/b/c", false},
		{"a/b/../c", "a/c", false},
		{"..", "", true},
		{"../x", "", true},
		{"a/../../x", "", true},
	}
	for _, tc := range cases {
		got, err := Clean(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Clean(%q): want error, got %q", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Clean(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Clean(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello checkpoint")
			if err := fsys.WriteFile("a/b/file.txt", data); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			got, err := fsys.ReadFile("a/b/file.txt")
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("round trip = %q, want %q", got, data)
			}
			// Overwrite truncates.
			if err := fsys.WriteFile("a/b/file.txt", []byte("x")); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			got, err = fsys.ReadFile("a/b/file.txt")
			if err != nil {
				t.Fatalf("ReadFile after overwrite: %v", err)
			}
			if string(got) != "x" {
				t.Errorf("after overwrite = %q, want %q", got, "x")
			}
		})
	}
}

func TestReadMissing(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fsys.ReadFile("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("ReadFile missing: err = %v, want ErrNotExist", err)
			}
			if _, err := fsys.Stat("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Stat missing: err = %v, want ErrNotExist", err)
			}
			if err := fsys.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("Remove missing: err = %v, want ErrNotExist", err)
			}
			if _, err := fsys.ReadDir("nope"); !errors.Is(err, ErrNotExist) {
				t.Errorf("ReadDir missing: err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestDirFileConfusion(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			if err := fsys.MkdirAll("d/sub"); err != nil {
				t.Fatalf("MkdirAll: %v", err)
			}
			if err := fsys.WriteFile("d/sub", nil); !errors.Is(err, ErrIsDir) {
				t.Errorf("WriteFile over dir: err = %v, want ErrIsDir", err)
			}
			if _, err := fsys.ReadFile("d/sub"); !errors.Is(err, ErrIsDir) {
				t.Errorf("ReadFile of dir: err = %v, want ErrIsDir", err)
			}
			if err := fsys.WriteFile("f", []byte("x")); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if _, err := fsys.ReadDir("f"); !errors.Is(err, ErrNotDir) {
				t.Errorf("ReadDir of file: err = %v, want ErrNotDir", err)
			}
		})
	}
}

func TestReadDirListsImmediateChildren(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			files := []string{"top/a.txt", "top/b.txt", "top/nested/deep.txt"}
			for _, f := range files {
				if err := fsys.WriteFile(f, []byte(f)); err != nil {
					t.Fatalf("WriteFile(%q): %v", f, err)
				}
			}
			entries, err := fsys.ReadDir("top")
			if err != nil {
				t.Fatalf("ReadDir: %v", err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name)
			}
			want := []string{"a.txt", "b.txt", "nested"}
			if !reflect.DeepEqual(names, want) {
				t.Errorf("ReadDir names = %v, want %v", names, want)
			}
			for _, e := range entries {
				if e.Name == "nested" && !e.IsDir {
					t.Errorf("nested should be a directory")
				}
				if e.Name == "a.txt" && e.Size != int64(len("top/a.txt")) {
					t.Errorf("a.txt size = %d, want %d", e.Size, len("top/a.txt"))
				}
			}
		})
	}
}

func TestRemoveRecursive(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			for _, f := range []string{"snap/0/meta", "snap/0/img", "snap/1/meta"} {
				if err := fsys.WriteFile(f, []byte("x")); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
			}
			if err := fsys.Remove("snap/0"); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if Exists(fsys, "snap/0/meta") {
				t.Errorf("snap/0/meta survived recursive remove")
			}
			if !Exists(fsys, "snap/1/meta") {
				t.Errorf("snap/1/meta was removed by sibling removal")
			}
		})
	}
}

func TestCopyTreeAcrossImplementations(t *testing.T) {
	src := NewMem()
	dstOS, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	files := map[string]string{
		"global/0/meta.txt":  "interval=0",
		"global/0/p0/img":    "process zero image",
		"global/0/p1/img":    "process one image",
		"global/0/p1/extras": "aux",
	}
	var want int64
	for f, body := range files {
		if err := src.WriteFile(f, []byte(body)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		want += int64(len(body))
	}
	n, err := CopyTree(src, "global", dstOS, "stable/global")
	if err != nil {
		t.Fatalf("CopyTree: %v", err)
	}
	if n != want {
		t.Errorf("CopyTree bytes = %d, want %d", n, want)
	}
	for f, body := range files {
		dst := "stable/" + f
		got, err := dstOS.ReadFile(dst)
		if err != nil {
			t.Fatalf("ReadFile(%q): %v", dst, err)
		}
		if string(got) != body {
			t.Errorf("copied %q = %q, want %q", dst, got, body)
		}
	}
	size, err := TreeSize(dstOS, "stable/global")
	if err != nil {
		t.Fatalf("TreeSize: %v", err)
	}
	if size != want {
		t.Errorf("TreeSize = %d, want %d", size, want)
	}
}

func TestWalkVisitsEveryFile(t *testing.T) {
	fsys := NewMem()
	files := []string{"a/1", "a/2", "b/c/3", "d"}
	for _, f := range files {
		if err := fsys.WriteFile(f, []byte("x")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
	var visited []string
	err := Walk(fsys, ".", func(name string, info FileInfo) error {
		visited = append(visited, name)
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	sort.Strings(visited)
	want := []string{"a/1", "a/2", "b/c/3", "d"}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("Walk visited %v, want %v", visited, want)
	}
}

// TestQuickWriteReadIdentity is a property test: any byte payload written
// under any sanitized name reads back identically on both implementations.
func TestQuickWriteReadIdentity(t *testing.T) {
	for name, fsys := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			i := 0
			prop := func(data []byte) bool {
				i++
				p := fmt.Sprintf("q/%d/payload.bin", i)
				if err := fsys.WriteFile(p, data); err != nil {
					return false
				}
				got, err := fsys.ReadFile(p)
				if err != nil {
					return false
				}
				return bytes.Equal(got, data)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickMemMatchesOS drives a random sequence of operations against
// both implementations and demands identical observable behaviour.
func TestQuickMemMatchesOS(t *testing.T) {
	mem := NewMem()
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatalf("NewOS: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "a/b", "a/b/c", "d", "d/e", "f"}
	for step := 0; step < 400; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0:
			body := []byte(fmt.Sprintf("step-%d", step))
			e1 := mem.WriteFile(name, body)
			e2 := osfs.WriteFile(name, body)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d write %q: mem err=%v os err=%v", step, name, e1, e2)
			}
		case 1:
			b1, e1 := mem.ReadFile(name)
			b2, e2 := osfs.ReadFile(name)
			if (e1 == nil) != (e2 == nil) || !bytes.Equal(b1, b2) {
				t.Fatalf("step %d read %q: mem=(%q,%v) os=(%q,%v)", step, name, b1, e1, b2, e2)
			}
		case 2:
			e1 := mem.Remove(name)
			e2 := osfs.Remove(name)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d remove %q: mem err=%v os err=%v", step, name, e1, e2)
			}
		case 3:
			e1 := mem.MkdirAll(name)
			e2 := osfs.MkdirAll(name)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d mkdir %q: mem err=%v os err=%v", step, name, e1, e2)
			}
		}
	}
	// Final structural comparison.
	var memFiles, osFiles []string
	if err := Walk(mem, ".", func(n string, _ FileInfo) error { memFiles = append(memFiles, n); return nil }); err != nil {
		t.Fatalf("walk mem: %v", err)
	}
	if err := Walk(osfs, ".", func(n string, _ FileInfo) error { osFiles = append(osFiles, n); return nil }); err != nil {
		t.Fatalf("walk os: %v", err)
	}
	sort.Strings(memFiles)
	sort.Strings(osFiles)
	if !reflect.DeepEqual(memFiles, osFiles) {
		t.Errorf("final trees differ: mem=%v os=%v", memFiles, osFiles)
	}
}

func TestMemConcurrentAccess(t *testing.T) {
	fsys := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := fmt.Sprintf("g%d/f%d", g, i)
				if err := fsys.WriteFile(p, []byte(p)); err != nil {
					t.Errorf("WriteFile(%q): %v", p, err)
					return
				}
				if _, err := fsys.ReadFile(p); err != nil {
					t.Errorf("ReadFile(%q): %v", p, err)
					return
				}
				if _, err := fsys.ReadDir(path.Dir(p)); err != nil {
					t.Errorf("ReadDir: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestReadFileReturnsCopy(t *testing.T) {
	fsys := NewMem()
	if err := fsys.WriteFile("f", []byte("abc")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fsys.ReadFile("f")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	got[0] = 'X' // mutating the returned slice must not affect the store
	again, err := fsys.ReadFile("f")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(again) != "abc" {
		t.Errorf("stored data mutated through returned slice: %q", again)
	}
}

func TestWriteFileCopiesInput(t *testing.T) {
	fsys := NewMem()
	data := []byte("abc")
	if err := fsys.WriteFile("f", data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data[0] = 'X'
	got, err := fsys.ReadFile("f")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "abc" {
		t.Errorf("stored data aliased caller slice: %q", got)
	}
}

// The throttle charges appended bytes against the same budget as
// written ones: a store capped at 1 MiB/s takes at least 100 ms to
// take 100 KiB, however it is split between WriteFile and Append.
func TestThrottleChargesAppends(t *testing.T) {
	th := NewThrottle(NewMem(), 1<<20)
	chunk := make([]byte, 25<<10)
	start := time.Now()
	if err := th.WriteFile("log", chunk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := th.Append("log", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 95*time.Millisecond {
		t.Fatalf("100 KiB through a 1 MiB/s throttle took %v", d)
	}
	if fi, err := th.Stat("log"); err != nil || fi.Size != 100<<10 {
		t.Fatalf("throttled log: %+v, %v", fi, err)
	}
}
