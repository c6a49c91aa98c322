package main

import (
	"path"
	"strings"
	"sync"
	"time"

	"repro/internal/core/snapshot"
	"repro/internal/orte/ledger"
	"repro/internal/vfs"
)

// storeClass splits stable-store traffic by what it is for.
type storeClass int

const (
	classData    storeClass = iota // interval payload: checkpoint images
	classMeta                      // metadata, manifests and COMMITTED markers
	classJournal                   // the drain journal
	classLedger                    // the HNP job ledger
	numClasses
)

var classNames = [numClasses]string{"data", "meta", "journal", "ledger"}

func classify(name string) storeClass {
	name = strings.TrimLeft(name, "/")
	base := path.Base(name)
	switch {
	case strings.HasPrefix(name, ledger.DefaultDir+"/"):
		return classLedger
	case strings.Contains(base, "drain_journal"):
		return classJournal
	case base == snapshot.GlobalMetaFile, base == snapshot.LocalMetaFile,
		base == snapshot.CommittedFile, strings.HasSuffix(base, ".json"):
		return classMeta
	}
	return classData
}

// storeCounts is the traffic of one class.
type storeCounts struct {
	WriteBytes int64
	Writes     int64
	WriteBusy  time.Duration
	ReadBytes  int64
}

// storeProbe is a counting vfs.FS: it passes every call through to the
// store beneath it and books the bytes written and read, the writes,
// and the time spent writing, per class.
type storeProbe struct {
	vfs.FS

	mu sync.Mutex
	c  [numClasses]storeCounts
}

func (s *storeProbe) counts() [numClasses]storeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

func (s *storeProbe) book(name string, f func(c *storeCounts)) {
	s.mu.Lock()
	f(&s.c[classify(name)])
	s.mu.Unlock()
}

// WriteFile implements vfs.FS.
func (s *storeProbe) WriteFile(name string, data []byte) error {
	start := time.Now()
	err := s.FS.WriteFile(name, data)
	busy := time.Since(start)
	s.book(name, func(c *storeCounts) {
		c.Writes++
		c.WriteBytes += int64(len(data))
		c.WriteBusy += busy
	})
	return err
}

// ReadFile implements vfs.FS.
func (s *storeProbe) ReadFile(name string) ([]byte, error) {
	data, err := s.FS.ReadFile(name)
	s.book(name, func(c *storeCounts) { c.ReadBytes += int64(len(data)) })
	return data, err
}

// add sums two tallies of one class.
func add(a, b storeCounts) storeCounts {
	return storeCounts{
		WriteBytes: a.WriteBytes + b.WriteBytes,
		Writes:     a.Writes + b.Writes,
		WriteBusy:  a.WriteBusy + b.WriteBusy,
		ReadBytes:  a.ReadBytes + b.ReadBytes,
	}
}

// sub returns the traffic between two probe readings.
func sub(a, b [numClasses]storeCounts) [numClasses]storeCounts {
	var d [numClasses]storeCounts
	for i := range d {
		d[i] = storeCounts{
			WriteBytes: a[i].WriteBytes - b[i].WriteBytes,
			Writes:     a[i].Writes - b[i].Writes,
			WriteBusy:  a[i].WriteBusy - b[i].WriteBusy,
			ReadBytes:  a[i].ReadBytes - b[i].ReadBytes,
		}
	}
	return d
}
