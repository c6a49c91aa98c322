package reclog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/vfs"
)

// owner is a minimal log owner: its state is the list of values added,
// each beyond the last (as the drain journal's intervals are).
type owner struct {
	log  *Log
	vals []int
}

func newOwner(fsys vfs.FS) *owner { return &owner{log: New(fsys, "d/log.jsonl")} }

func (o *owner) apply(r Record) error {
	switch r.Type {
	case TypeFold:
		var vals []int
		if err := json.Unmarshal(r.Data, &vals); err != nil {
			return err
		}
		o.vals = vals
	case "add":
		v, err := strconv.Atoi(string(r.Data))
		if err != nil {
			return err
		}
		if n := len(o.vals); n > 0 && v <= o.vals[n-1] {
			return fmt.Errorf("value %d not beyond %d", v, o.vals[n-1])
		}
		o.vals = append(o.vals, v)
	}
	return nil
}

func (o *owner) refresh(t *testing.T) int {
	t.Helper()
	dropped, err := o.log.Refresh(func() { o.vals = nil }, o.apply)
	if err != nil {
		t.Fatal(err)
	}
	return dropped
}

func (o *owner) add(v int) error {
	r := o.log.Issue("add", 0, json.RawMessage(strconv.Itoa(v)))
	if err := o.apply(r); err != nil {
		return err
	}
	return o.log.Land(r, func() (json.RawMessage, error) { return json.Marshal(o.vals) })
}

func (o *owner) flush() error {
	return o.log.Flush(func() (json.RawMessage, error) { return json.Marshal(o.vals) })
}

// gateFS fails every operation while out, leaving the store untouched.
type gateFS struct {
	vfs.FS
	out bool
}

func (g *gateFS) err(op string) error {
	if g.out {
		return fmt.Errorf("gate: %s: %w", op, faultsim.ErrOutage)
	}
	return nil
}

func (g *gateFS) Stat(name string) (vfs.FileInfo, error) {
	if err := g.err("stat"); err != nil {
		return vfs.FileInfo{}, err
	}
	return g.FS.Stat(name)
}

func (g *gateFS) ReadFile(name string) ([]byte, error) {
	if err := g.err("read"); err != nil {
		return nil, err
	}
	return g.FS.ReadFile(name)
}

func (g *gateFS) Append(name string, data []byte) error {
	if err := g.err("append"); err != nil {
		return err
	}
	return g.FS.Append(name, data)
}

func (g *gateFS) WriteFile(name string, data []byte) error {
	if err := g.err("write"); err != nil {
		return err
	}
	return g.FS.WriteFile(name, data)
}

func (g *gateFS) Rename(oldName, newName string) error {
	if err := g.err("rename"); err != nil {
		return err
	}
	return g.FS.Rename(oldName, newName)
}

// countFS counts Append, WriteFile and Rename calls.
type countFS struct {
	vfs.FS
	appends, writes, renames int
}

func (c *countFS) Append(name string, data []byte) error {
	c.appends++
	return c.FS.Append(name, data)
}

func (c *countFS) WriteFile(name string, data []byte) error {
	c.writes++
	return c.FS.WriteFile(name, data)
}

func (c *countFS) Rename(oldName, newName string) error {
	c.renames++
	return c.FS.Rename(oldName, newName)
}

// Records land as appends until the bytes appended since the last fold
// exceed the fold's size plus Floor; that record lands as a compaction
// to one fold record instead. A fresh handle replays the same state.
func TestLandAppendsUntilTheRuleCompacts(t *testing.T) {
	cfs := &countFS{FS: vfs.NewMem()}
	o := newOwner(cfs)
	o.refresh(t)
	var foldSize, since int64
	for v := 0; v < 2000; v++ {
		a, w, r := cfs.appends, cfs.writes, cfs.renames
		before, _ := cfs.FS.ReadFile("d/log.jsonl")
		if err := o.add(v); err != nil {
			t.Fatal(err)
		}
		after, _ := cfs.FS.ReadFile("d/log.jsonl")
		line := int64(len(after) - len(before))
		switch {
		case cfs.appends == a+1 && cfs.writes == w && cfs.renames == r:
			since += line
			if since > foldSize+Floor {
				t.Fatalf("value %d appended %d bytes past a %d-byte fold", v, since, foldSize)
			}
		case cfs.appends == a && cfs.writes == w+1 && cfs.renames == r+1:
			if bytes.Count(after, []byte{'\n'}) != 1 {
				t.Fatalf("compaction at value %d left %d lines", v, bytes.Count(after, []byte{'\n'}))
			}
			foldSize, since = int64(len(after)), 0
		default:
			t.Fatalf("value %d: %d appends, %d writes, %d renames", v, cfs.appends-a, cfs.writes-w, cfs.renames-r)
		}
	}
	if foldSize == 0 {
		t.Fatal("2000 records never compacted")
	}
	fresh := newOwner(cfs)
	if fresh.refresh(t) != 0 || !reflect.DeepEqual(fresh.vals, o.vals) {
		t.Fatalf("fresh replay holds %d values, want %d", len(fresh.vals), len(o.vals))
	}
}

// Replay keeps exactly the records wholly before a torn or damaged
// line, never writes, and the next landing compacts the file to the
// replayed state with the cut bytes set aside.
func TestRefreshCutsDamageAndTheNextLandingCompacts(t *testing.T) {
	fs := vfs.NewMem()
	o := newOwner(fs)
	o.refresh(t)
	for v := 1; v <= 5; v++ {
		if err := o.add(v); err != nil {
			t.Fatal(err)
		}
	}
	intact, _ := fs.ReadFile("d/log.jsonl")
	lines := bytes.SplitAfter(intact, []byte{'\n'})
	for _, c := range []struct {
		name string
		tail []byte
	}{
		{"torn", lines[3][:10]},
		{"bitrot", bytes.Replace(lines[3], []byte(`"add"`), []byte(`"adx"`), 1)},
		{"sequence", lines[1]},
		{"apply", []byte(`{"seq":9,"type":"add","data":"x","sum":"` + Record{Seq: 9, Type: "add", Data: json.RawMessage(`"x"`)}.checksum() + `"}` + "\n")},
	} {
		t.Run(c.name, func(t *testing.T) {
			damaged := append(bytes.Join(lines[:3], nil), c.tail...)
			if err := fs.WriteFile("d/log.jsonl", damaged); err != nil {
				t.Fatal(err)
			}
			h := newOwner(fs)
			if dropped := h.refresh(t); dropped != 1 || !reflect.DeepEqual(h.vals, []int{1, 2, 3}) {
				t.Fatalf("replay kept %v, dropped %d lines", h.vals, dropped)
			}
			if got, _ := fs.ReadFile("d/log.jsonl"); !bytes.Equal(got, damaged) {
				t.Fatal("Refresh wrote the log")
			}
			if err := h.add(10); err != nil {
				t.Fatal(err)
			}
			data, _ := fs.ReadFile("d/log.jsonl")
			if bytes.Count(data, []byte{'\n'}) != 1 {
				t.Fatalf("the landing after a cut appended instead of compacting:\n%s", data)
			}
			aside, err := fs.ReadFile(fmt.Sprintf("d/log.jsonl.torn-%d", h.log.seq))
			if err != nil || !bytes.Equal(aside, c.tail) {
				t.Fatalf("set aside %q (%v), want the cut tail %q", aside, err, c.tail)
			}
			fresh := newOwner(fs)
			if fresh.refresh(t) != 0 || !reflect.DeepEqual(fresh.vals, []int{1, 2, 3, 10}) {
				t.Fatalf("after the compaction a fresh replay holds %v", fresh.vals)
			}
		})
	}
}

// A failed append may land a torn prefix, so the handle never appends
// after it: its next landing is a compaction, and the file then replays
// whole.
func TestFailedAppendMakesTheNextLandingCompact(t *testing.T) {
	inj := faultsim.New(7)
	cfs := &countFS{FS: faultsim.WrapFS(vfs.NewMem(), inj, "stable")}
	o := newOwner(cfs)
	o.refresh(t)
	for v := 1; v <= 3; v++ {
		if err := o.add(v); err != nil {
			t.Fatal(err)
		}
	}
	inj.AddRule(faultsim.Rule{Point: "vfs.write:stable", Times: 1})
	if err := o.add(4); err == nil {
		t.Fatal("append under an injected write failure succeeded")
	}
	a, w, r := cfs.appends, cfs.writes, cfs.renames
	if err := o.add(5); err != nil {
		t.Fatal(err)
	}
	if cfs.appends != a || cfs.writes != w+1 || cfs.renames != r+1 {
		t.Fatalf("landing after a failed append: %d appends, %d writes, %d renames", cfs.appends-a, cfs.writes-w, cfs.renames-r)
	}
	fresh := newOwner(cfs)
	if fresh.refresh(t) != 0 || !reflect.DeepEqual(fresh.vals, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("fresh replay holds %v", fresh.vals)
	}
}

// A handle reads the file again only when Stat shows a size or
// modification time it did not leave: another handle's landing.
func TestRefreshReplaysOnlyWhatAnotherHandleWrote(t *testing.T) {
	fs := vfs.NewMem()
	a, b := newOwner(fs), newOwner(fs)
	a.refresh(t)
	if err := a.add(1); err != nil {
		t.Fatal(err)
	}
	replays := 0
	count := func(o *owner) {
		if _, err := o.log.Refresh(func() { o.vals = nil; replays++ }, o.apply); err != nil {
			t.Fatal(err)
		}
	}
	count(a)
	if replays != 0 {
		t.Fatal("a handle replayed its own landing")
	}
	count(b)
	if err := b.add(2); err != nil {
		t.Fatal(err)
	}
	count(a)
	if replays != 2 || !reflect.DeepEqual(a.vals, []int{1, 2}) {
		t.Fatalf("after another handle's landing: %d replays, values %v", replays, a.vals)
	}
	if err := fs.Remove("d/log.jsonl"); err != nil {
		t.Fatal(err)
	}
	count(a)
	if len(a.vals) != 0 {
		t.Fatalf("a removed log replays as %v", a.vals)
	}
}

// A record that fails to land stays pending and counts in Lag, and so
// does every record issued after a failed Refresh, which touches no
// store. Flush then lands them all as one compaction.
func TestFailedLandStaysPendingAndFlushCompacts(t *testing.T) {
	g := &gateFS{FS: vfs.NewMem()}
	cfs := &countFS{FS: g}
	o := newOwner(cfs)
	o.refresh(t)
	if err := o.add(1); err != nil {
		t.Fatal(err)
	}
	g.out = true
	if err := o.add(2); !faultsim.IsOutage(err) {
		t.Fatalf("landing in an outage: %v", err)
	}
	if _, err := o.log.Refresh(func() { o.vals = nil }, o.apply); !faultsim.IsOutage(err) {
		t.Fatalf("Refresh in an outage: %v", err)
	}
	a := cfs.appends
	if err := o.add(3); !faultsim.IsOutage(err) || cfs.appends != a {
		t.Fatalf("landing after a failed Refresh: %v, %d appends", err, cfs.appends-a)
	}
	if o.log.Lag() != 2 || !reflect.DeepEqual(o.vals, []int{1, 2, 3}) {
		t.Fatalf("lag %d, values %v; want 2 pending and every value applied", o.log.Lag(), o.vals)
	}
	g.out = false
	o.refresh(t)
	a, w, r := cfs.appends, cfs.writes, cfs.renames
	if err := o.flush(); err != nil {
		t.Fatal(err)
	}
	if cfs.appends != a || cfs.writes != w+1 || cfs.renames != r+1 || o.log.Lag() != 0 {
		t.Fatalf("Flush: %d appends, %d writes, %d renames, lag %d", cfs.appends-a, cfs.writes-w, cfs.renames-r, o.log.Lag())
	}
	fresh := newOwner(cfs)
	if fresh.refresh(t) != 0 || !reflect.DeepEqual(fresh.vals, []int{1, 2, 3}) {
		t.Fatalf("fresh replay holds %v", fresh.vals)
	}
	if err := o.flush(); err != nil || cfs.writes != w+1 {
		t.Fatalf("Flush with nothing pending: %v, %d writes", err, cfs.writes-w)
	}
}

// A Refresh that reads the file again applies the pending records after
// another writer's, renumbered, and the next landing keeps that order.
// A pending record that no longer applies is dropped and counted.
func TestRefreshPutsPendingAfterAnotherWriters(t *testing.T) {
	mem := vfs.NewMem()
	g := &gateFS{FS: mem}
	a, b := newOwner(g), newOwner(mem)
	a.refresh(t)
	if err := a.add(1); err != nil {
		t.Fatal(err)
	}
	g.out = true
	if err := a.add(5); err == nil {
		t.Fatal("landing in an outage succeeded")
	}
	b.refresh(t)
	if err := b.add(3); err != nil {
		t.Fatal(err)
	}
	g.out = false
	if dropped := a.refresh(t); dropped != 0 || !reflect.DeepEqual(a.vals, []int{1, 3, 5}) || a.log.Lag() != 1 {
		t.Fatalf("after the other writer: values %v, %d dropped, lag %d", a.vals, dropped, a.log.Lag())
	}
	if err := a.add(6); err != nil {
		t.Fatal(err)
	}
	fresh := newOwner(mem)
	if fresh.refresh(t) != 0 || !reflect.DeepEqual(fresh.vals, []int{1, 3, 5, 6}) {
		t.Fatalf("fresh replay holds %v", fresh.vals)
	}

	g.out = true
	if err := a.add(7); err == nil {
		t.Fatal("landing in an outage succeeded")
	}
	b.refresh(t)
	if err := b.add(9); err != nil {
		t.Fatal(err)
	}
	g.out = false
	if dropped := a.refresh(t); dropped != 1 || !reflect.DeepEqual(a.vals, []int{1, 3, 5, 6, 9}) || a.log.Lag() != 0 {
		t.Fatalf("a pending record that no longer applies: values %v, %d dropped, lag %d", a.vals, dropped, a.log.Lag())
	}
}

// Records issued on a handle that has never read the file wait for the
// first Refresh that succeeds, and then follow the file's records.
func TestRecordsBeforeTheFirstLoadWait(t *testing.T) {
	mem := vfs.NewMem()
	b := newOwner(mem)
	b.refresh(t)
	if err := b.add(1); err != nil {
		t.Fatal(err)
	}
	g := &gateFS{FS: mem, out: true}
	a := newOwner(g)
	if _, err := a.log.Refresh(func() { a.vals = nil }, a.apply); err == nil || a.log.Loaded() {
		t.Fatalf("Refresh in an outage: %v, loaded %v", err, a.log.Loaded())
	}
	if err := a.add(2); err == nil {
		t.Fatal("a never-loaded handle landed")
	}
	g.out = false
	if err := a.add(3); err == nil || a.log.Lag() != 2 {
		t.Fatalf("landing before a Refresh succeeded: %v, lag %d", err, a.log.Lag())
	}
	a.refresh(t)
	if err := a.flush(); err != nil {
		t.Fatal(err)
	}
	fresh := newOwner(mem)
	if fresh.refresh(t) != 0 || !reflect.DeepEqual(fresh.vals, []int{1, 2, 3}) {
		t.Fatalf("fresh replay holds %v", fresh.vals)
	}
}
