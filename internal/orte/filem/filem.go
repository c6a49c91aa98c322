// Package filem implements the paper's ORTE FILEM framework (§5.2,
// §6.2): remote file management for the runtime. It supports the three
// operations the design requires — broadcast (preload files onto remote
// machines before starting processes there), gather (move remote local
// snapshots to stable storage), and remove (clean up preloaded or
// temporary checkpoint data) — and accepts grouped request lists so a
// component can use collective algorithms to avoid network congestion.
//
// FILEM knows every machine in the job but nothing about MPI semantics,
// so it lives at the ORTE layer, exactly as the paper places it. File
// bytes move for real between the per-node virtual filesystems; the
// network cost of each transfer is charged to a simulated clock using
// the netsim topology (see DESIGN.md's substitution table).
package filem

import (
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/errdef"
	"repro/internal/mca"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// FrameworkName is the MCA selection parameter for this framework.
const FrameworkName = "filem"

// StableNode is the pseudo-node name addressing stable storage. The
// paper's stable storage is a shared filesystem that survives node
// failures; modeling it as a distinguished node keeps the component API
// uniform across node-to-node and node-to-storage movement.
const StableNode = "#stable"

// ErrUnknownNode reports a request naming a node the environment cannot
// resolve. It aliases errdef.ErrUnknownNode.
var ErrUnknownNode = errdef.ErrUnknownNode

// ErrRequestTimeout reports a transfer whose modeled duration exceeded
// the per-request timeout: the coordinator treats the request as failed
// rather than waiting out an unbounded stall. It aliases
// errdef.ErrRequestTimeout.
var ErrRequestTimeout = errdef.ErrRequestTimeout

// ErrSourceRead marks a move that failed reading its source: the source
// node or store could not be reached, or a file or directory on it could
// not be read. The destination played no part in the failure.
var ErrSourceRead = errors.New("filem: cannot read the source")

// ErrDigestMismatch reports a source file whose bytes do not hash to the
// digest Request.Sums gives for it: the source copy is damaged. The
// bytes are not written, and the move is not retried.
var ErrDigestMismatch = errors.New("filem: source bytes do not match their known digest")

// RetryPolicy bounds how FILEM reacts to transfer failures: up to Max
// retries after the first attempt, waiting Backoff before the first
// retry and growing it by Multiplier each time (exponential backoff,
// charged to the simulated clock), with Timeout capping each request's
// modeled transfer duration.
type RetryPolicy struct {
	Max        int           // retries after the first attempt (0 = fail fast)
	Backoff    time.Duration // delay before the first retry
	Multiplier float64       // backoff growth factor; <1 means the default 2
	Timeout    time.Duration // per-request modeled-duration bound (0 = none)
}

func (p RetryPolicy) multiplier() float64 {
	if p.Multiplier < 1 {
		return 2
	}
	return p.Multiplier
}

// Env supplies a component with the cluster's filesystems and network.
type Env struct {
	// Resolve returns the filesystem of the named node (or StableNode).
	Resolve func(node string) (vfs.FS, error)
	// Topo models transfer costs. Optional: if nil, transfers are free.
	Topo *netsim.Topology
	// Clock accrues simulated transfer time. Optional.
	Clock *netsim.Clock
	// Ins receives filem.* trace events and byte/retry metrics. Optional.
	Ins *trace.Instrumentation
	// Retry bounds per-request failure handling. The zero value fails
	// fast with no timeout (the pre-robustness behavior).
	Retry RetryPolicy
	// Inject is the fault-injection hook ("filem.transfer:<src>><dst>",
	// "filem.remove:<node>"). Optional.
	Inject func(point string) error
}

func (e *Env) inject(point string) error {
	if e.Inject == nil {
		return nil
	}
	return e.Inject(point)
}

func (e *Env) fs(node string) (vfs.FS, error) {
	if e.Resolve == nil {
		return nil, fmt.Errorf("%w: no resolver configured", ErrUnknownNode)
	}
	fsys, err := e.Resolve(node)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownNode, node, err)
	}
	return fsys, nil
}

// transferCost returns the modeled duration of moving n bytes between
// two (pseudo-)nodes.
func (e *Env) transferCost(src, dst string, n int64) (time.Duration, error) {
	if e.Topo == nil {
		return 0, nil
	}
	switch {
	case src == StableNode && dst == StableNode:
		return 0, nil
	case dst == StableNode:
		return e.Topo.NodeToStorage(src, n)
	case src == StableNode:
		return e.Topo.NodeToStorage(dst, n)
	default:
		return e.Topo.NodeToNode(src, dst, n)
	}
}

// quoteCost returns the modeled duration of moving n bytes without
// firing any fault-injection hook: the pure what-if cost used to account
// for failed attempts. Unknown nodes quote as free — the error surfaces
// through the transfer itself.
func (e *Env) quoteCost(src, dst string, n int64) time.Duration {
	if e.Topo == nil {
		return 0
	}
	var (
		d   time.Duration
		err error
	)
	switch {
	case src == StableNode && dst == StableNode:
		return 0
	case dst == StableNode:
		d, err = e.Topo.StorageTime(src, n)
	case src == StableNode:
		d, err = e.Topo.StorageTime(dst, n)
	default:
		d, err = e.Topo.PathTime(src, dst, n)
	}
	if err != nil {
		return 0
	}
	return d
}

func (e *Env) charge(d time.Duration) {
	if e.Clock != nil {
		e.Clock.Advance(d)
	}
}

// Baseline is a content-addressed dedup index over a previously gathered
// interval: Dir is that interval's directory on the destination
// filesystem, ByHash maps payload sha256 → path relative to Dir. A Move
// request carrying a baseline hashes each source file and, on an index
// hit, materializes the file by local copy from Dir instead of shipping
// it over the network.
type Baseline struct {
	Dir    string
	ByHash map[string]string
}

// Request names one tree movement from a source node to a destination.
type Request struct {
	SrcNode string
	SrcPath string
	DstNode string
	DstPath string
	// Baseline, when non-nil, enables the content-addressed incremental
	// path for this request. Purely a transfer optimization: the
	// destination tree is byte-identical either way.
	Baseline *Baseline
	// Digest asks for the sha256 of every file the request moves,
	// computed from the bytes read on the source node, returned in
	// Stats.Digests. The snapshot gather sets it: those digests are the
	// interval's commit manifest.
	Digest bool
	// Sums, when non-nil, holds the known digest of each source file,
	// keyed by path relative to SrcPath (a committed interval's
	// manifest). A baseline lookup uses it instead of reading and
	// hashing the file, and a hit then reads nothing from the source.
	// A listed file that is shipped is checked against its digest from
	// the bytes read for the transfer; a mismatch, or a listed file the
	// source lacks, fails the move with ErrDigestMismatch. A file Sums
	// does not list (the interval's
	// metadata and marker) is shipped without a lookup or a check.
	Sums map[string]string
}

// Stats reports what a FILEM operation did: real bytes handled and the
// modeled time charged for them. Bytes is the total payload; BytesMoved
// is the subset that crossed the network, BytesDeduped the subset
// materialized by storage-local copy from a baseline, BytesHashed the
// bytes read and hashed on source nodes for dedup lookups. Digests maps
// the destination path of every file a Digest request moved to the
// sha256 of its source bytes; it is nil when no request asked.
type Stats struct {
	Bytes        int64
	BytesMoved   int64
	BytesDeduped int64
	BytesHashed  int64
	Simulated    time.Duration
	Transfers    int
	Digests      map[string]string
}

// Add merges two stats, field-wise. Callers that account for several
// moves as one logical operation (e.g. a drain's gather plus its
// replica pushes) sum them with Add. Neither input changes: the result
// holds its own copy of both digest maps.
func (s Stats) Add(o Stats) Stats {
	s.Digests = maps.Clone(s.Digests)
	return s.add(o)
}

// add merges o into s in place: o's digests go into s's own map, which
// it creates when s has none. Only the Move loops use it, on a total
// they own.
func (s Stats) add(o Stats) Stats {
	if len(o.Digests) > 0 {
		if s.Digests == nil {
			s.Digests = make(map[string]string, len(o.Digests))
		}
		for p, sum := range o.Digests {
			s.Digests[p] = sum
		}
	}
	return Stats{
		Bytes:        s.Bytes + o.Bytes,
		BytesMoved:   s.BytesMoved + o.BytesMoved,
		BytesDeduped: s.BytesDeduped + o.BytesDeduped,
		BytesHashed:  s.BytesHashed + o.BytesHashed,
		Simulated:    s.Simulated + o.Simulated,
		Transfers:    s.Transfers + o.Transfers,
		Digests:      s.Digests,
	}
}

// Component is a FILEM implementation. Move executes a grouped request
// list (the gather/broadcast building block); Remove deletes remote
// paths. How a component schedules the requests — serially like repeated
// rsh/scp invocations, or overlapped like a collective — is the
// technique under study.
type Component interface {
	mca.Component
	// Move executes all requests, moving file trees between nodes.
	Move(env *Env, reqs []Request) (Stats, error)
	// Remove deletes the named paths on the given node. Missing paths
	// are reported as errors, matching the strictness of `rm` without -f.
	Remove(env *Env, node string, paths []string) error
}

// NewFramework returns the FILEM framework with the built-in components
// registered: rsh (sequential remote copies, the paper's first
// component, default) and raw (grouped transfers that overlap node
// uplinks, the congestion-avoiding alternative the paper anticipates).
func NewFramework() *mca.Framework[Component] {
	f := mca.NewFramework[Component](FrameworkName)
	f.MustRegister(&RSH{})
	f.MustRegister(&Raw{})
	return f
}

// Broadcast preloads the tree at srcPath on srcNode onto every
// destination node at dstPath using component c. It is a convenience
// wrapper building the grouped request list the framework API takes.
func Broadcast(c Component, env *Env, srcNode, srcPath string, dstNodes []string, dstPath string) (Stats, error) {
	reqs := make([]Request, 0, len(dstNodes))
	for _, n := range dstNodes {
		reqs = append(reqs, Request{SrcNode: srcNode, SrcPath: srcPath, DstNode: n, DstPath: dstPath})
	}
	return c.Move(env, reqs)
}

// copyOne performs the real data movement for one request and returns
// its stats, file by file. Shared by both components; they differ only
// in scheduling and cost accounting. With a baseline, every source file
// is looked up by hash; hits are materialized by local copy inside the
// destination filesystem at storage-local cost, misses are transferred
// and charged at network cost. A Digest request records each file's
// source hash as it goes; a request with neither hashes nothing. The
// resulting tree is byte-identical either way. On failure the returned
// Stats.Simulated carries the modeled time the failed attempt still
// consumed (partial transfer, or the timeout it waited out) so callers
// can account for it.
func copyOne(env *Env, r Request) (Stats, error) {
	srcFS, err := env.fs(r.SrcNode)
	if err != nil {
		return Stats{}, fmt.Errorf("%w: %w", ErrSourceRead, err)
	}
	dstFS, err := env.fs(r.DstNode)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if r.Digest {
		st.Digests = make(map[string]string)
	}
	// Without a baseline every byte crosses the network, so the transfer
	// point fires up front. With one it fires before the first byte that
	// would cross — a fully deduplicated request touches no link at all.
	injected := !r.dedup()
	if injected {
		if err := env.inject(fmt.Sprintf("filem.transfer:%s>%s", r.SrcNode, r.DstNode)); err != nil {
			return Stats{}, fmt.Errorf("filem: move %s:%s -> %s:%s: %w", r.SrcNode, r.SrcPath, r.DstNode, r.DstPath, err)
		}
	}
	listed := 0
	err = copyTreeFiles(env, r, srcFS, dstFS, r.SrcPath, r.DstPath, &st, &injected, &listed)
	if err == nil && listed < len(r.Sums) {
		err = fmt.Errorf("%w: the source lacks %d of the %d files with a known digest", ErrDigestMismatch, len(r.Sums)-listed, len(r.Sums))
	}
	if err != nil {
		return Stats{Simulated: copyQuote(env, r, st)},
			fmt.Errorf("filem: move %s:%s -> %s:%s: %w", r.SrcNode, r.SrcPath, r.DstNode, r.DstPath, err)
	}
	cost := copyQuote(env, r, st)
	if st.BytesMoved > 0 {
		// Replace the network quote with the real transfer cost: this is
		// where link fault injection fires for the bytes that actually
		// crossed the network.
		cost -= env.quoteCost(r.SrcNode, r.DstNode, st.BytesMoved)
		net, err := env.transferCost(r.SrcNode, r.DstNode, st.BytesMoved)
		if err != nil {
			return Stats{Simulated: copyQuote(env, r, st)}, err
		}
		cost += net
	}
	if t := env.Retry.Timeout; t > 0 && cost > t {
		return Stats{Simulated: t}, fmt.Errorf("filem: move %s:%s -> %s:%s: modeled transfer %v exceeds request timeout %v: %w",
			r.SrcNode, r.SrcPath, r.DstNode, r.DstPath, cost, t, ErrRequestTimeout)
	}
	st.Simulated = cost
	st.Transfers = 1
	env.Ins.Emit("filem", "filem.copy", "%s:%s -> %s:%s (%d bytes: %d moved, %d deduped, %v)",
		r.SrcNode, r.SrcPath, r.DstNode, r.DstPath, st.Bytes, st.BytesMoved, st.BytesDeduped, cost)
	env.Ins.Counter("ompi_filem_bytes_gathered_total").Add(st.Bytes)
	env.Ins.Counter("ompi_filem_bytes_moved_total").Add(st.BytesMoved)
	if r.dedup() {
		env.Ins.Counter("ompi_filem_bytes_deduped_total").Add(st.BytesDeduped)
	}
	return st, nil
}

// dedup reports whether the request takes the content-addressed path.
func (r Request) dedup() bool {
	return r.Baseline != nil && len(r.Baseline.ByHash) > 0
}

// copyQuote is the pure modeled cost of a copy's progress so far: scan
// time for the bytes hashed for dedup lookups, storage-local time for
// the deduplicated bytes, network time for the moved bytes. A gather's
// digests are computed as the bytes stream out and add no scan. No
// injection hooks fire.
func copyQuote(env *Env, r Request, st Stats) time.Duration {
	var cost time.Duration
	if env.Topo != nil {
		if st.BytesHashed > 0 {
			cost += env.Topo.ScanTime(st.BytesHashed)
		}
		if st.BytesDeduped > 0 {
			cost += env.Topo.StorageLocalTime(st.BytesDeduped)
		}
	}
	if st.BytesMoved > 0 {
		cost += env.quoteCost(r.SrcNode, r.DstNode, st.BytesMoved)
	}
	return cost
}

// copyTreeFiles walks the source tree, deciding per file between a
// baseline materialization and a network transfer, recording the
// file's digest when the request asks for one and checking a shipped
// file against its known digest (Sums). The filem.transfer
// injection point fires once, before the first byte that would cross
// the network, unless the caller already fired it (*injected). *listed
// counts the files found that Sums lists.
func copyTreeFiles(env *Env, r Request, srcFS, dstFS vfs.FS, src, dst string, st *Stats, injected *bool, listed *int) error {
	info, err := srcFS.Stat(src)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSourceRead, err)
	}
	if info.IsDir {
		if err := dstFS.MkdirAll(dst); err != nil {
			return err
		}
		entries, err := srcFS.ReadDir(src)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrSourceRead, err)
		}
		for _, e := range entries {
			if err := copyTreeFiles(env, r, srcFS, dstFS, path.Join(src, e.Name), path.Join(dst, e.Name), st, injected, listed); err != nil {
				return err
			}
		}
		return nil
	}
	sum, known := r.Sums[strings.TrimPrefix(src, r.SrcPath+"/")]
	if known {
		*listed++
	}
	if known && r.dedup() && materialize(env, r, dstFS, src, dst, sum, info.Size, st) {
		return nil // a known digest decided the hit without reading the source
	}
	data, err := srcFS.ReadFile(src)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrSourceRead, err)
	}
	n := int64(len(data))
	if known && vfs.HashBytes(data) != sum {
		return fmt.Errorf("%w: %s:%s", ErrDigestMismatch, r.SrcNode, src)
	}
	// Given Sums, a file they do not list is not payload: no lookup.
	lookup := r.dedup() && r.Sums == nil
	if !known && (r.Digest || lookup) {
		sum = vfs.HashBytes(data)
	}
	if lookup {
		st.BytesHashed += n
		if materialize(env, r, dstFS, src, dst, sum, n, st) {
			return nil
		}
	}
	if r.Digest {
		st.Digests[dst] = sum
	}
	if !*injected {
		if err := env.inject(fmt.Sprintf("filem.transfer:%s>%s", r.SrcNode, r.DstNode)); err != nil {
			return err
		}
		*injected = true
	}
	if err := dstFS.WriteFile(dst, data); err != nil {
		return err
	}
	st.Bytes += n
	st.BytesMoved += n
	if r.dedup() {
		env.Ins.Emit("filem", "filem.dedup.miss", "%s:%s (%d bytes)", r.SrcNode, src, n)
	}
	return nil
}

// materialize copies the baseline file whose content hash is sum into
// dst, reporting whether the baseline had one to give. An unreadable
// baseline (pruned, damaged) leaves the caller to transfer the file.
func materialize(env *Env, r Request, dstFS vfs.FS, src, dst, sum string, n int64, st *Stats) bool {
	prev, ok := r.Baseline.ByHash[sum]
	if !ok || vfs.CopyFile(dstFS, path.Join(r.Baseline.Dir, prev), dstFS, dst) != nil {
		return false
	}
	st.Bytes += n
	st.BytesDeduped += n
	if r.Digest {
		st.Digests[dst] = sum
	}
	env.Ins.Emit("filem", "filem.dedup.hit", "%s:%s (%d bytes from %s)", r.SrcNode, src, n, prev)
	return true
}

// cleanupPartial removes whatever a failed copy left at the destination
// so a retry (or the caller's rollback) starts from a clean slate.
// Best-effort: a missing destination is the common, silent case.
func cleanupPartial(env *Env, r Request) {
	dstFS, err := env.fs(r.DstNode)
	if err != nil {
		return
	}
	if err := dstFS.Remove(r.DstPath); err == nil {
		env.Ins.Emit("filem", "filem.cleanup", "removed partial %s:%s", r.DstNode, r.DstPath)
	}
}

// copyWithRetry runs one request under the environment's retry policy:
// failed attempts clean up their partial destination and back off
// exponentially. All retry overhead — backoffs plus the modeled time the
// failed attempts consumed — is folded into the returned Stats.Simulated
// (also on failure) instead of being charged to the shared clock here:
// the component's Move owns the charge, so overlapped streams' backoffs
// are not serialized onto the clock. Deterministic failures — a request
// that would exceed its modeled timeout on every attempt, or a source
// file that does not match its known digest — are not retried.
func copyWithRetry(env *Env, r Request) (Stats, error) {
	pol := env.Retry
	backoff := pol.Backoff
	var overhead time.Duration
	var lastErr error
	for attempt := 0; attempt <= pol.Max; attempt++ {
		if attempt > 0 {
			overhead += backoff
			env.Ins.Counter("ompi_filem_retries_total").Inc()
			env.Ins.Emit("filem", "filem.retry", "attempt %d/%d %s:%s -> %s:%s (backoff %v): %v",
				attempt+1, pol.Max+1, r.SrcNode, r.SrcPath, r.DstNode, r.DstPath, backoff, lastErr)
			backoff = time.Duration(float64(backoff) * pol.multiplier())
		}
		st, err := copyOne(env, r)
		if err == nil {
			st.Simulated += overhead
			return st, nil
		}
		overhead += st.Simulated // time the failed attempt still consumed
		lastErr = err
		cleanupPartial(env, r)
		if errors.Is(err, ErrRequestTimeout) || errors.Is(err, ErrDigestMismatch) {
			break // the modeled cost or the damaged source will not change; retrying is futile
		}
	}
	return Stats{Simulated: overhead}, fmt.Errorf("filem: giving up on %s:%s -> %s:%s after %d attempt(s): %w",
		r.SrcNode, r.SrcPath, r.DstNode, r.DstPath, env.Retry.Max+1, lastErr)
}

// rollback removes the destinations of already-completed requests after
// a grouped Move failed partway: a failed gather must leave stable
// storage (and any other destination) as clean as if it never started.
func rollback(env *Env, done []Request) {
	for _, r := range done {
		dstFS, err := env.fs(r.DstNode)
		if err != nil {
			continue
		}
		if err := dstFS.Remove(r.DstPath); err == nil {
			env.Ins.Emit("filem", "filem.rollback", "removed %s:%s", r.DstNode, r.DstPath)
		}
	}
}

// removeOn removes paths on one node's filesystem, retrying transient
// failures under the environment's policy. A nonexistent path fails
// immediately (matching `rm` without -f): retrying cannot create it.
func removeOn(env *Env, node string, paths []string) error {
	fsys, err := env.fs(node)
	if err != nil {
		return err
	}
	pol := env.Retry
	for _, p := range paths {
		backoff := pol.Backoff
		var lastErr error
		for attempt := 0; attempt <= pol.Max; attempt++ {
			if attempt > 0 {
				env.charge(backoff)
				backoff = time.Duration(float64(backoff) * pol.multiplier())
			}
			err := env.inject("filem.remove:" + node)
			if err == nil {
				err = fsys.Remove(p)
			}
			if err == nil {
				lastErr = nil
				break
			}
			if errors.Is(err, vfs.ErrNotExist) {
				return fmt.Errorf("filem: remove %s:%s: %w", node, p, err)
			}
			lastErr = err
		}
		if lastErr != nil {
			return fmt.Errorf("filem: remove %s:%s: %w", node, p, lastErr)
		}
		env.Ins.Emit("filem", "filem.remove", "%s:%s", node, p)
	}
	return nil
}

// RSH models the paper's first FILEM component: RSH/SSH remote execution
// and copy commands issued one after another. Every request is executed
// and charged sequentially.
type RSH struct{}

// Name implements mca.Component.
func (*RSH) Name() string { return "rsh" }

// Priority implements mca.Component; rsh is the paper's default.
func (*RSH) Priority() int { return 20 }

// Move implements Component with strictly sequential transfers. A
// failure (after retries) rolls back the requests that already landed,
// so a partially-failed grouped move leaves no half-gathered debris. The
// clock is charged once, for the whole schedule — on failure that is the
// completed requests plus the time the failed one consumed before giving
// up.
func (*RSH) Move(env *Env, reqs []Request) (Stats, error) {
	var total Stats
	var done []Request
	for _, r := range reqs {
		st, err := copyWithRetry(env, r)
		if err != nil {
			env.charge(total.Simulated + st.Simulated)
			rollback(env, done)
			return total, err
		}
		done = append(done, r)
		total = total.add(st)
	}
	env.charge(total.Simulated)
	return total, nil
}

// Remove implements Component.
func (*RSH) Remove(env *Env, node string, paths []string) error {
	return removeOn(env, node, paths)
}

var _ Component = (*RSH)(nil)

// Raw is the grouped component: all requests are issued together, so
// transfers from distinct nodes overlap and only the shared
// stable-storage ingress serializes them. The charged time is the
// grouped-gather model from netsim: max(slowest stream, ingress bound).
type Raw struct{}

// Name implements mca.Component.
func (*Raw) Name() string { return "raw" }

// Priority implements mca.Component.
func (*Raw) Priority() int { return 10 }

// Move implements Component with overlapped transfers. If any stream
// fails (after retries), the streams that completed are rolled back so
// the grouped move is all-or-nothing. Each stream's retry backoffs and
// failed-attempt time stay inside its own perStream duration: overlapped
// backoffs overlap, exactly like the transfers themselves, and the clock
// is charged once with the grouped cost of the whole schedule (also on
// failure, for the time the attempt consumed).
func (*Raw) Move(env *Env, reqs []Request) (Stats, error) {
	var (
		mu       sync.Mutex
		total    Stats
		firstErr error
		wg       sync.WaitGroup
	)
	perStream := make([]time.Duration, len(reqs))
	completed := make([]bool, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			st, err := copyWithRetry(env, r)
			mu.Lock()
			defer mu.Unlock()
			perStream[i] = st.Simulated
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			completed[i] = true
			st.Simulated = 0 // the grouped cost below replaces the sum
			total = total.add(st)
		}(i, r)
	}
	wg.Wait()
	if firstErr != nil {
		env.charge(groupedCost(env, reqs, perStream, total.BytesMoved))
		var done []Request
		for i, ok := range completed {
			if ok {
				done = append(done, reqs[i])
			}
		}
		rollback(env, done)
		return total, firstErr
	}
	total.Simulated = groupedCost(env, reqs, perStream, total.BytesMoved)
	env.charge(total.Simulated)
	return total, nil
}

// groupedCost computes the modeled duration of the overlapped schedule:
// the slowest individual stream, floored by the stable-storage ingress
// serialization bound when storage is involved. Only bytes that actually
// crossed the network (movedBytes) contend on the ingress link —
// deduplicated bytes never leave stable storage.
func groupedCost(env *Env, reqs []Request, perStream []time.Duration, movedBytes int64) time.Duration {
	var max time.Duration
	for _, d := range perStream {
		if d > max {
			max = d
		}
	}
	if env.Topo == nil {
		return max
	}
	touchesStorage := false
	for _, r := range reqs {
		if r.SrcNode == StableNode || r.DstNode == StableNode {
			touchesStorage = true
			break
		}
	}
	if touchesStorage {
		if bound := env.Topo.Ingress().TransferTime(movedBytes); bound > max {
			return bound
		}
	}
	return max
}

// Remove implements Component.
func (*Raw) Remove(env *Env, node string, paths []string) error {
	return removeOn(env, node, paths)
}

var _ Component = (*Raw)(nil)

// ListTree returns the sorted relative file paths under root on node,
// a helper the snapshot coordinator uses to validate gathers.
func ListTree(env *Env, node, root string) ([]string, error) {
	fsys, err := env.fs(node)
	if err != nil {
		return nil, err
	}
	var out []string
	err = vfs.Walk(fsys, root, func(name string, _ vfs.FileInfo) error {
		rel := name
		if root != "." && len(name) > len(root) {
			rel = name[len(root)+1:]
		}
		out = append(out, path.Clean(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
