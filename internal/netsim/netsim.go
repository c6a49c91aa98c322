// Package netsim models the cluster interconnect used by the simulated
// runtime. The paper's testbed moved checkpoint files over gigabit
// ethernet between node-local disks and shared stable storage; we cannot
// use real hardware, so FILEM transfers accrue simulated time from an
// analytic latency/bandwidth model instead.
//
// The model is intentionally simple but captures the effect the paper's
// design cares about (§5.2): grouped file-movement requests can overlap
// transfers from distinct nodes, but they contend on the stable-storage
// ingress link, so a coordinator that batches requests behaves differently
// from one that serializes them.
package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Link describes one directed link with a fixed latency and bandwidth.
type Link struct {
	Latency   time.Duration // per-transfer startup cost
	Bandwidth float64       // bytes per second; must be > 0
}

// TransferTime returns the time to move n bytes across the link.
func (l Link) TransferTime(n int64) time.Duration {
	if l.Bandwidth <= 0 {
		return l.Latency
	}
	return l.Latency + time.Duration(float64(n)/l.Bandwidth*float64(time.Second))
}

// Topology is a star network: every node has an uplink to a core switch,
// and stable storage hangs off the switch behind a shared ingress link.
// This mirrors the common HPC deployment the paper assumes (node-local
// disks plus a shared RAID filesystem).
type Topology struct {
	mu           sync.RWMutex
	uplinks      map[string]Link // node name -> uplink
	ingress      Link            // shared stable-storage ingress
	storageLocal Link            // copies within stable storage
	localScan    Link            // node-local read+hash for dedup lookups
	inject       func(point string) error
}

// SetInject installs a fault-injection hook fired at "netsim.link:<node>"
// whenever a transfer would traverse that node's uplink. A firing hook
// fails the transfer, modeling a flapping or dead link.
func (t *Topology) SetInject(fn func(point string) error) {
	t.mu.Lock()
	t.inject = fn
	t.mu.Unlock()
}

// fireLink consults the inject hook for one node's uplink.
func (t *Topology) fireLink(node string) error {
	t.mu.RLock()
	fn := t.inject
	t.mu.RUnlock()
	if fn == nil {
		return nil
	}
	if err := fn("netsim.link:" + node); err != nil {
		return fmt.Errorf("netsim: link %s: %w", node, err)
	}
	return nil
}

// DefaultUplink approximates gigabit ethernet: 50µs latency, 125 MB/s.
var DefaultUplink = Link{Latency: 50 * time.Microsecond, Bandwidth: 125e6}

// DefaultIngress approximates a RAID head node: 100µs latency, 250 MB/s.
var DefaultIngress = Link{Latency: 100 * time.Microsecond, Bandwidth: 250e6}

// DefaultStorageLocal approximates a copy that stays inside the stable
// storage array (RAID-internal read+write): 20µs latency, 1 GB/s. This is
// the cost an incremental gather pays to materialize a deduplicated file
// from the previous interval instead of shipping it over the network.
var DefaultStorageLocal = Link{Latency: 20 * time.Microsecond, Bandwidth: 1e9}

// DefaultLocalScan approximates reading and hashing node-local snapshot
// data from local disk/page cache: 10µs latency, 2 GB/s. Incremental
// gathers pay it per byte hashed for the dedup lookup.
var DefaultLocalScan = Link{Latency: 10 * time.Microsecond, Bandwidth: 2e9}

// NewTopology returns a topology with the given stable-storage ingress
// link, the default storage-local and scan links, and no nodes.
func NewTopology(ingress Link) *Topology {
	return &Topology{
		uplinks:      make(map[string]Link),
		ingress:      ingress,
		storageLocal: DefaultStorageLocal,
		localScan:    DefaultLocalScan,
	}
}

// AddNode registers a node with the given uplink.
func (t *Topology) AddNode(name string, up Link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.uplinks[name] = up
}

// Uplink returns the uplink of the named node.
func (t *Topology) Uplink(name string) (Link, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, ok := t.uplinks[name]
	if !ok {
		return Link{}, fmt.Errorf("netsim: unknown node %q", name)
	}
	return l, nil
}

// Ingress returns the shared stable-storage ingress link.
func (t *Topology) Ingress() Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ingress
}

// StorageLocal returns the storage-internal copy link.
func (t *Topology) StorageLocal() Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.storageLocal
}

// LocalScan returns the node-local scan (read+hash) link.
func (t *Topology) LocalScan() Link {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.localScan
}

// StorageLocalTime returns the modeled time to copy n bytes within stable
// storage (dedup materialization). No network link is traversed, so no
// fault-injection point fires.
func (t *Topology) StorageLocalTime(n int64) time.Duration {
	return t.StorageLocal().TransferTime(n)
}

// ScanTime returns the modeled time to read and hash n bytes on a node's
// local disk for the dedup lookup.
func (t *Topology) ScanTime(n int64) time.Duration {
	return t.LocalScan().TransferTime(n)
}

// StorageTime returns the pure cost for one node to push n bytes to
// stable storage with no competing traffic: the slower of its uplink and
// the storage ingress governs the stream. It never consults the
// fault-injection hook, so accounting paths (retry-overhead quotes,
// what-if costing) cannot perturb a deterministic fault schedule.
func (t *Topology) StorageTime(node string, n int64) (time.Duration, error) {
	up, err := t.Uplink(node)
	if err != nil {
		return 0, err
	}
	ing := t.Ingress()
	bw := up.Bandwidth
	if ing.Bandwidth < bw {
		bw = ing.Bandwidth
	}
	eff := Link{Latency: up.Latency + ing.Latency, Bandwidth: bw}
	return eff.TransferTime(n), nil
}

// NodeToStorage is StorageTime plus the uplink fault-injection point:
// transfers that actually traverse the network call this.
func (t *Topology) NodeToStorage(node string, n int64) (time.Duration, error) {
	if err := t.fireLink(node); err != nil {
		return 0, err
	}
	return t.StorageTime(node, n)
}

// PathTime returns the pure cost to move n bytes between two nodes
// through the core switch (both uplinks traversed; the slower governs).
// Like StorageTime it never fires injection hooks.
func (t *Topology) PathTime(src, dst string, n int64) (time.Duration, error) {
	if src == dst {
		// Same-node copy: memory-speed, negligible latency.
		return time.Duration(float64(n)/8e9*float64(time.Second)) + time.Microsecond, nil
	}
	a, err := t.Uplink(src)
	if err != nil {
		return 0, err
	}
	b, err := t.Uplink(dst)
	if err != nil {
		return 0, err
	}
	bw := a.Bandwidth
	if b.Bandwidth < bw {
		bw = b.Bandwidth
	}
	eff := Link{Latency: a.Latency + b.Latency, Bandwidth: bw}
	return eff.TransferTime(n), nil
}

// NodeToNode is PathTime plus both endpoints' fault-injection points.
func (t *Topology) NodeToNode(src, dst string, n int64) (time.Duration, error) {
	if src == dst {
		return t.PathTime(src, dst, n)
	}
	if err := t.fireLink(src); err != nil {
		return 0, err
	}
	if err := t.fireLink(dst); err != nil {
		return 0, err
	}
	return t.PathTime(src, dst, n)
}

// GatherTransfer describes one node's contribution to a gather.
type GatherTransfer struct {
	Node  string
	Bytes int64
}

// SequentialGatherTime models a coordinator that moves one local snapshot
// at a time to stable storage: total time is the sum of individual
// transfer times.
func (t *Topology) SequentialGatherTime(xs []GatherTransfer) (time.Duration, error) {
	var total time.Duration
	for _, x := range xs {
		d, err := t.NodeToStorage(x.Node, x.Bytes)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// GroupedGatherTime models a coordinator that issues all transfers at
// once: node uplinks proceed in parallel, but the storage ingress is
// shared, so the gather cannot finish before totalBytes/ingressBandwidth.
// The result is the maximum of the slowest individual stream and the
// ingress serialization bound.
func (t *Topology) GroupedGatherTime(xs []GatherTransfer) (time.Duration, error) {
	var slowest time.Duration
	var totalBytes int64
	for _, x := range xs {
		d, err := t.NodeToStorage(x.Node, x.Bytes)
		if err != nil {
			return 0, err
		}
		if d > slowest {
			slowest = d
		}
		totalBytes += x.Bytes
	}
	ing := t.Ingress()
	bound := ing.TransferTime(totalBytes)
	if bound > slowest {
		return bound, nil
	}
	return slowest, nil
}

// Clock accumulates simulated time. The runtime charges FILEM transfer
// costs to a Clock instead of sleeping, keeping tests fast and
// deterministic while still letting benchmarks report modelled durations.
type Clock struct {
	mu      sync.Mutex
	elapsed time.Duration
}

// Advance adds d to the simulated elapsed time and returns the new total.
func (c *Clock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.elapsed += d
	}
	return c.elapsed
}

// Elapsed returns the accumulated simulated time.
func (c *Clock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Reset zeroes the accumulated simulated time.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elapsed = 0
}
