// Package snapshot implements the paper's snapshot-reference abstraction
// (§4): the usability layer that frees users from tracking checkpoint
// files and original launch parameters.
//
// A local snapshot reference names a directory holding one process's
// checkpoint: a metadata file (which checkpointer produced it, interval
// number, process identity) plus the checkpointer-specific payload files.
//
// A global snapshot reference names a directory holding one distributed
// checkpoint: a metadata file (aggregated local references, last-known
// process layout, the runtime parameters the job was started with, and
// the global interval) plus the physical set of local snapshots. Restart
// reads only this metadata — the user supplies nothing but the reference.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/vfs"
)

// Naming conventions, mirroring Open MPI's on-disk layout.
const (
	// GlobalMetaFile is the metadata file inside a global snapshot dir.
	GlobalMetaFile = "global_snapshot_meta.json"
	// LocalMetaFile is the metadata file inside a local snapshot dir.
	LocalMetaFile = "snapshot_meta.json"
	// CommittedFile marks an interval directory as atomically committed.
	// It holds the hex sha256 of the global metadata file, so a torn or
	// tampered commit is detectable. Restart trusts nothing without it.
	CommittedFile = "COMMITTED"
	// stagePrefix names in-progress interval directories. The dot keeps
	// them out of the numeric interval scan until the commit rename.
	stagePrefix = ".stage_"
	// FormatVersion guards against metadata from incompatible builds.
	FormatVersion = 2
)

// ErrUncommitted reports a global snapshot interval that was never
// atomically committed (crash mid-gather, aborted checkpoint): restart
// must refuse it.
var ErrUncommitted = errors.New("snapshot: interval is not committed")

// ErrCorrupt reports a committed interval whose contents fail
// validation against the recorded checksums.
var ErrCorrupt = errors.New("snapshot: snapshot data is corrupt")

// GlobalDirName returns the directory name for a job's global snapshots,
// e.g. "ompi_global_snapshot_7.ckpt".
func GlobalDirName(jobID int) string {
	return fmt.Sprintf("ompi_global_snapshot_%d.ckpt", jobID)
}

// LocalDirName returns the directory name for one process's local
// snapshot within a global interval, e.g. "opal_snapshot_3.ckpt".
func LocalDirName(vpid int) string {
	return fmt.Sprintf("opal_snapshot_%d.ckpt", vpid)
}

// IntervalDirName returns the subdirectory for one checkpoint interval.
func IntervalDirName(interval int) string {
	return fmt.Sprintf("%d", interval)
}

// LocalMeta describes a single-process checkpoint. It lives beside the
// checkpointer's payload files so the snapshot directory is
// self-describing: the user need not know which CRS produced it.
type LocalMeta struct {
	Version   int       `json:"version"`
	Component string    `json:"crs_component"` // CRS component that took it
	JobID     int       `json:"job_id"`
	Vpid      int       `json:"vpid"` // process rank within the job
	Interval  int       `json:"interval"`
	Node      string    `json:"node"` // node the process ran on
	Files     []string  `json:"files"`
	Taken     time.Time `json:"taken"`
}

// Validate rejects structurally impossible metadata (corrupt or from an
// incompatible producer).
func (m *LocalMeta) Validate() error {
	switch {
	case m.Version != FormatVersion:
		return fmt.Errorf("snapshot: local metadata version %d, want %d", m.Version, FormatVersion)
	case m.Component == "":
		return fmt.Errorf("snapshot: local metadata missing CRS component")
	case m.Vpid < 0:
		return fmt.Errorf("snapshot: local metadata has negative vpid %d", m.Vpid)
	case m.Interval < 0:
		return fmt.Errorf("snapshot: local metadata has negative interval %d", m.Interval)
	}
	return nil
}

// LocalRef is a reference to a local snapshot: a filesystem plus the
// directory the snapshot lives in.
type LocalRef struct {
	FS  vfs.FS
	Dir string
}

// WriteLocal writes meta (and nothing else) into dir on fsys, creating
// the directory. Payload files are written by the CRS component.
func WriteLocal(fsys vfs.FS, dir string, meta LocalMeta) (LocalRef, error) {
	meta.Version = FormatVersion
	if err := meta.Validate(); err != nil {
		return LocalRef{}, err
	}
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return LocalRef{}, fmt.Errorf("snapshot: marshal local metadata: %w", err)
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return LocalRef{}, err
	}
	if err := fsys.WriteFile(path.Join(dir, LocalMetaFile), data); err != nil {
		return LocalRef{}, err
	}
	return LocalRef{FS: fsys, Dir: dir}, nil
}

// ReadLocal loads and validates the local snapshot metadata in ref.
func ReadLocal(ref LocalRef) (LocalMeta, error) {
	data, err := ref.FS.ReadFile(path.Join(ref.Dir, LocalMetaFile))
	if err != nil {
		return LocalMeta{}, fmt.Errorf("snapshot: read local metadata: %w", err)
	}
	return decodeLocal(data, ref.Dir)
}

// decodeLocal parses and validates local metadata read from dir.
func decodeLocal(data []byte, dir string) (LocalMeta, error) {
	var meta LocalMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return LocalMeta{}, fmt.Errorf("snapshot: corrupt local metadata in %q: %w", dir, err)
	}
	if err := meta.Validate(); err != nil {
		return LocalMeta{}, fmt.Errorf("snapshot: %q: %w", dir, err)
	}
	return meta, nil
}

// VerifyShare checks one rank's share of a committed interval where it
// lies, at dir on fsys: each file sums lists (the share's slice of the
// manifest, keyed by path relative to dir) is read once and hashed. The
// share's local metadata is decoded from the bytes just hashed and
// returned, so verifying and identifying the copy read it once. A
// missing or damaged file, or a share whose manifest lists no local
// metadata, fails with ErrCorrupt.
func VerifyShare(fsys vfs.FS, dir string, sums map[string]string) (LocalMeta, error) {
	var local []byte
	for _, rel := range sortedKeys(sums) {
		var sum string
		var err error
		if rel == LocalMetaFile {
			if local, err = fsys.ReadFile(path.Join(dir, rel)); err == nil {
				sum = checksum(local)
			}
		} else {
			sum, _, err = vfs.HashFile(fsys, path.Join(dir, rel))
		}
		if err != nil {
			return LocalMeta{}, fmt.Errorf("%w: %q: missing payload %s: %v", ErrCorrupt, dir, rel, err)
		}
		if sum != sums[rel] {
			return LocalMeta{}, fmt.Errorf("%w: %q: payload %s checksum mismatch", ErrCorrupt, dir, rel)
		}
	}
	if local == nil {
		return LocalMeta{}, fmt.Errorf("%w: %q: the manifest lists no %s for this share", ErrCorrupt, dir, LocalMetaFile)
	}
	return decodeLocal(local, dir)
}

// ProcEntry records one process's place in a global snapshot: its
// last-known rank, the node it ran on, the CRS component that produced
// its local snapshot, and where the local snapshot sits inside the
// global snapshot directory.
type ProcEntry struct {
	Vpid      int    `json:"vpid"`
	Node      string `json:"node"`
	Component string `json:"crs_component"`
	LocalDir  string `json:"local_dir"` // relative to the interval dir
}

// GlobalMeta describes one distributed checkpoint. Everything restart
// needs is here: the paper's answer to tools that forced users to recall
// the original mpirun command line.
type GlobalMeta struct {
	Version   int               `json:"version"`
	JobID     int               `json:"job_id"`
	Interval  int               `json:"interval"`
	Taken     time.Time         `json:"taken"`
	NumProcs  int               `json:"num_procs"`
	AppName   string            `json:"app_name"`
	AppArgs   []string          `json:"app_args,omitempty"`
	MCAParams map[string]string `json:"mca_params,omitempty"`
	Nodes     []string          `json:"nodes"` // node list the job ran on
	Procs     []ProcEntry       `json:"procs"`
	// Checksums maps each payload file (path relative to the interval
	// directory) to its hex sha256: the manifest. The FILEM gather
	// computes it once, from the bytes it reads on the source nodes, and
	// commit seals it unread. Verification and restart check it end to
	// end and refuse truncated or corrupted snapshots, and the next
	// interval's FILEM gather uses it as a dedup index.
	Checksums map[string]string `json:"checksums,omitempty"`
	// Gather records how the interval's payload reached stable storage
	// (full transfer vs content-addressed dedup). Informational only:
	// `ompi-snapshot stats` reports it.
	Gather *GatherRecord `json:"gather,omitempty"`
	// Replicas records where the durability layer intended to place
	// byte-identical copies of this interval at commit time. Discovery
	// and verification never trust these records — replicas live at the
	// convention path ReplicaDir on each node and carry their own
	// metadata and commit marker — but they let tools report the
	// commit-time placement, and scrub compares it to reality.
	Replicas []ReplicaRecord `json:"replicas,omitempty"`
	// Phases is the per-phase cost decomposition of the checkpoint that
	// produced this interval (paper §6's measurement axes). Informational
	// only: `ompi-snapshot stats` and the bench harness report it.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

// PhaseBreakdown decomposes one committed checkpoint interval into the
// paper's cost phases: CRCP quiesce/bookmark drain, CRS capture, FILEM
// gather, and snapshot commit, plus the post-commit replica pushes,
// after the wait for the step frontier.
// Wall times for the rank-local phases are the maximum across ranks
// (the critical path); the Sum variants total every rank's share.
type PhaseBreakdown struct {
	// FrontierWallNS is the slowest rank's time from the directive's
	// delivery to entering participation: the wait for the uniform step
	// frontier, before any quiesce work starts.
	FrontierWallNS int64 `json:"frontier_wall_ns,omitempty"`
	QuiesceWallNS  int64 `json:"quiesce_wall_ns"` // slowest rank's preparation+drain
	QuiesceSumNS   int64 `json:"quiesce_sum_ns"`  // all ranks' preparation+drain
	CaptureWallNS  int64 `json:"capture_wall_ns"` // slowest rank's CRS capture
	CaptureSumNS   int64 `json:"capture_sum_ns"`  // all ranks' CRS capture
	GatherNS       int64 `json:"gather_ns"`       // FILEM aggregation to stable storage
	CommitNS       int64 `json:"commit_ns"`       // manifest check + metadata + atomic rename
	// ReplicaNS covers the post-commit replica pushes. It cannot appear
	// in the persisted copy of the interval that the pushes replicate —
	// the metadata is sealed before they run — so it is populated on the
	// in-memory Result/SuperviseReport path only.
	ReplicaNS int64 `json:"replica_ns,omitempty"`
	// BlockedNS is the application-blocked share of the interval: the
	// synchronous capture phase (slowest rank's quiesce + capture) plus
	// any time the capture spent blocked on drain-queue backpressure.
	// With the asynchronous drain engine this is the cost the running
	// job actually pays per checkpoint; everything else overlaps
	// application progress.
	BlockedNS int64 `json:"blocked_ns,omitempty"`
	// DrainWaitNS is how long the captured interval sat in the drain
	// queue before the background drain picked it up.
	DrainWaitNS int64 `json:"drain_wait_ns,omitempty"`
	// DrainNS is the drain phase's execution time (gather through
	// cleanup). Like ReplicaNS it post-dates the sealed metadata, so it
	// is populated on the in-memory Result path only.
	DrainNS int64 `json:"drain_ns,omitempty"`
	// TotalNS is the global coordinator's wall time from checkpoint
	// request to sealed metadata.
	TotalNS int64 `json:"total_ns"`
	// Byte movement of the gather (mirrors GatherRecord for the phase
	// table's benefit).
	BytesGathered int64 `json:"bytes_gathered"`
	BytesMoved    int64 `json:"bytes_moved"`
	BytesDeduped  int64 `json:"bytes_deduped"`
}

// Accumulate folds another interval's breakdown into this one. All
// fields add, wall times included: across intervals the accumulated
// value reads as total time spent in each phase over the run.
func (p *PhaseBreakdown) Accumulate(o *PhaseBreakdown) {
	if o == nil {
		return
	}
	p.FrontierWallNS += o.FrontierWallNS
	p.QuiesceWallNS += o.QuiesceWallNS
	p.QuiesceSumNS += o.QuiesceSumNS
	p.CaptureWallNS += o.CaptureWallNS
	p.CaptureSumNS += o.CaptureSumNS
	p.GatherNS += o.GatherNS
	p.CommitNS += o.CommitNS
	p.ReplicaNS += o.ReplicaNS
	p.BlockedNS += o.BlockedNS
	p.DrainWaitNS += o.DrainWaitNS
	p.DrainNS += o.DrainNS
	p.TotalNS += o.TotalNS
	p.BytesGathered += o.BytesGathered
	p.BytesMoved += o.BytesMoved
	p.BytesDeduped += o.BytesDeduped
}

// ReplicaRecord names one intended replica of a committed interval: the
// node holding it, the directory on that node's local store, and the
// manifest hash (ManifestHash over the interval's checksum manifest)
// the copy must reproduce to count as intact.
type ReplicaRecord struct {
	Node     string `json:"node"`
	Path     string `json:"path"`
	Manifest string `json:"manifest"`
}

// GatherRecord summarizes the FILEM gather that assembled one interval.
type GatherRecord struct {
	Bytes        int64 `json:"bytes"`         // total payload bytes gathered
	BytesMoved   int64 `json:"bytes_moved"`   // bytes that crossed the network
	BytesDeduped int64 `json:"bytes_deduped"` // bytes materialized by local copy
	BytesHashed  int64 `json:"bytes_hashed"`  // bytes hashed for dedup lookups
	Transfers    int   `json:"transfers"`     // FILEM requests served
	SimulatedNS  int64 `json:"simulated_ns"`  // modeled gather time
	Dedup        bool  `json:"dedup"`         // content-addressed gather enabled
}

// ByChecksum inverts the checksum manifest into a hash → relative-path
// index. When several paths share a hash any one of them is kept — the
// bytes are identical by construction, which is all a dedup source needs.
func (m *GlobalMeta) ByChecksum() map[string]string {
	if len(m.Checksums) == 0 {
		return nil
	}
	out := make(map[string]string, len(m.Checksums))
	for rel, sum := range m.Checksums {
		if prev, ok := out[sum]; !ok || rel < prev {
			out[sum] = rel
		}
	}
	return out
}

// Validate rejects structurally impossible global metadata.
func (m *GlobalMeta) Validate() error {
	switch {
	case m.Version != FormatVersion:
		return fmt.Errorf("snapshot: global metadata version %d, want %d", m.Version, FormatVersion)
	case m.NumProcs <= 0:
		return fmt.Errorf("snapshot: global metadata has %d procs", m.NumProcs)
	case len(m.Procs) != m.NumProcs:
		return fmt.Errorf("snapshot: global metadata lists %d proc entries for %d procs", len(m.Procs), m.NumProcs)
	case m.Interval < 0:
		return fmt.Errorf("snapshot: global metadata has negative interval %d", m.Interval)
	}
	seen := make(map[int]bool, len(m.Procs))
	for _, p := range m.Procs {
		if p.Vpid < 0 || p.Vpid >= m.NumProcs {
			return fmt.Errorf("snapshot: proc entry vpid %d out of range [0,%d)", p.Vpid, m.NumProcs)
		}
		if seen[p.Vpid] {
			return fmt.Errorf("snapshot: duplicate proc entry for vpid %d", p.Vpid)
		}
		seen[p.Vpid] = true
		if p.LocalDir == "" {
			return fmt.Errorf("snapshot: proc entry vpid %d missing local snapshot dir", p.Vpid)
		}
		if p.LocalDir == "." || p.LocalDir == ".." || strings.Contains(p.LocalDir, "/") {
			return fmt.Errorf("snapshot: proc entry vpid %d local snapshot dir %q is not a single path element", p.Vpid, p.LocalDir)
		}
		if rel := path.Join(p.LocalDir, LocalMetaFile); m.Checksums[rel] == "" {
			return fmt.Errorf("snapshot: manifest does not list %s of vpid %d", rel, p.Vpid)
		}
	}
	// Report the first bad entry in path order, without sorting the
	// manifest on every read.
	bad, found := "", false
	for rel, sum := range m.Checksums {
		if (!payloadPath(rel) || !isDigest(sum)) && (!found || rel < bad) {
			bad, found = rel, true
		}
	}
	switch {
	case !found:
		return nil
	case !payloadPath(bad):
		return fmt.Errorf("snapshot: manifest key %q is not a payload path inside the interval", bad)
	default:
		return fmt.Errorf("snapshot: manifest digest of %s is not 64 lowercase hex characters", bad)
	}
}

// payloadPath reports whether rel may name a payload file of an
// interval: a clean relative path below the interval directory that is
// neither the global metadata nor the commit marker.
func payloadPath(rel string) bool {
	return rel != "" && path.Clean(rel) == rel && !path.IsAbs(rel) &&
		rel != ".." && !strings.HasPrefix(rel, "../") &&
		rel != GlobalMetaFile && rel != CommittedFile
}

// isDigest reports whether sum has the form checksum produces.
func isDigest(sum string) bool {
	if len(sum) != 64 {
		return false
	}
	for i := 0; i < len(sum); i++ {
		if c := sum[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// GlobalRef is a reference to a global snapshot: a filesystem (stable
// storage) plus the snapshot's root directory. A single opaque name is
// all the user preserves — the paper's central usability claim.
type GlobalRef struct {
	FS  vfs.FS
	Dir string
}

// IntervalDir returns the directory of the given checkpoint interval
// within the global snapshot.
func (r GlobalRef) IntervalDir(interval int) string {
	return path.Join(r.Dir, IntervalDirName(interval))
}

// StageDir returns the staging directory where an interval is assembled
// before the atomic commit rename. Its dot-prefixed name keeps it out of
// Intervals until commit.
func (r GlobalRef) StageDir(interval int) string {
	return path.Join(r.Dir, stagePrefix+IntervalDirName(interval))
}

// checksum is the one content hash of the snapshot layer: it seals the
// global metadata into the COMMITTED marker and checks payload files at
// verify and restore. The manifest's payload digests are computed by
// the FILEM gather on the source nodes with the same function
// (vfs.HashBytes), so the dedup index and verification compare them
// directly.
func checksum(data []byte) string {
	return vfs.HashBytes(data)
}

// checkStaged confirms that the manifest names exactly the payload
// files staged under root. It walks metadata only: no payload byte is
// read, because the digests came from the gather's source reads and are
// checked end to end at verify and restore.
func checkStaged(fsys vfs.FS, root string, sums map[string]string) error {
	staged := make(map[string]bool, len(sums))
	err := vfs.Walk(fsys, root, func(name string, _ vfs.FileInfo) error {
		rel := strings.TrimPrefix(name, root+"/")
		if rel == GlobalMetaFile || rel == CommittedFile {
			return nil
		}
		if _, ok := sums[rel]; !ok {
			return fmt.Errorf("staged file %s is not in the manifest", rel)
		}
		staged[rel] = true
		return nil
	})
	if err == nil && len(staged) != len(sums) {
		for _, rel := range sortedKeys(sums) {
			if !staged[rel] {
				err = fmt.Errorf("manifest names %s, which is not staged", rel)
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("snapshot: stage %q: %w", root, err)
	}
	return nil
}

// sortedKeys returns the manifest's paths in sorted order.
func sortedKeys(sums map[string]string) []string {
	keys := make([]string, 0, len(sums))
	for rel := range sums {
		keys = append(keys, rel)
	}
	sort.Strings(keys)
	return keys
}

// WriteGlobal commits one interval of a global snapshot atomically. The
// FILEM gather assembles the payload in StageDir(interval) and computes
// meta.Checksums, the manifest, from the source bytes as it moves them;
// WriteGlobal checks from metadata alone that the manifest names exactly
// the staged files — commit reads no payload — writes the metadata
// beside them, renames the stage into the interval directory in one
// step and finally drops the COMMITTED marker. Integrity is checked end
// to end, against the source digests, at verify and restore, so a byte
// damaged on its way to stable storage is caught there instead of being
// sealed into the manifest. A crash at any earlier point leaves either a
// stage directory (ignored by Intervals) or an unmarked interval
// directory (refused by ReadGlobal) — never a trusted-but-torn snapshot.
func WriteGlobal(ref GlobalRef, meta GlobalMeta) error {
	commitStart := time.Now()
	meta.Version = FormatVersion
	if err := meta.Validate(); err != nil {
		return err
	}
	stage := ref.StageDir(meta.Interval)
	if err := checkStaged(ref.FS, stage, meta.Checksums); err != nil {
		return err
	}
	// Stamp the commit phase into the breakdown before the metadata is
	// sealed. The rename/marker tail that follows serialization is added
	// to the caller's in-memory copy below but cannot be in the
	// persisted file.
	if meta.Phases != nil {
		meta.Phases.CommitNS = int64(time.Since(commitStart))
		meta.Phases.TotalNS += meta.Phases.CommitNS
	}
	// Replica records are placement intents decided before commit; stamp
	// each with the manifest hash its copy must reproduce.
	for i := range meta.Replicas {
		meta.Replicas[i].Manifest = ManifestHash(meta.Checksums)
	}
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: marshal global metadata: %w", err)
	}
	if err := ref.FS.WriteFile(path.Join(stage, GlobalMetaFile), data); err != nil {
		return err
	}
	dir := ref.IntervalDir(meta.Interval)
	if vfs.Exists(ref.FS, path.Join(dir, CommittedFile)) {
		return fmt.Errorf("snapshot: interval %d of %q is already committed", meta.Interval, ref.Dir)
	}
	// An unmarked interval directory of the same number is crash debris
	// (rename landed, marker write didn't — or an earlier abort). The
	// commit rename refuses non-empty destinations on every backend, so
	// clear the debris explicitly before renaming over it.
	if vfs.Exists(ref.FS, dir) {
		if err := ref.FS.Remove(dir); err != nil {
			return fmt.Errorf("snapshot: clear debris of interval %d: %w", meta.Interval, err)
		}
	}
	if err := ref.FS.Rename(stage, dir); err != nil {
		return fmt.Errorf("snapshot: commit interval %d: %w", meta.Interval, err)
	}
	if err := ref.FS.WriteFile(path.Join(dir, CommittedFile), []byte(checksum(data)+"\n")); err != nil {
		return fmt.Errorf("snapshot: write commit marker: %w", err)
	}
	if meta.Phases != nil {
		// Fold the rename/marker tail into the caller's view of commit
		// cost (the shared *PhaseBreakdown), keeping TotalNS consistent.
		tail := int64(time.Since(commitStart)) - meta.Phases.CommitNS
		meta.Phases.CommitNS += tail
		meta.Phases.TotalNS += tail
	}
	return nil
}

// ReadGlobal loads and validates the metadata of the given interval,
// refusing intervals without a valid COMMITTED marker.
func ReadGlobal(ref GlobalRef, interval int) (GlobalMeta, error) {
	return ReadGlobalDir(ref.FS, ref.IntervalDir(interval))
}

// ReadGlobalDir loads and validates the metadata of one interval-copy
// directory — the primary interval directory on stable storage or a
// byte-identical replica on a node-local store. Every copy carries its
// own metadata and COMMITTED marker, so it validates standalone.
func ReadGlobalDir(fsys vfs.FS, dir string) (GlobalMeta, error) {
	marker, err := fsys.ReadFile(path.Join(dir, CommittedFile))
	if err != nil {
		return GlobalMeta{}, fmt.Errorf("%w: %q has no COMMITTED marker (crash or aborted checkpoint): %v",
			ErrUncommitted, dir, err)
	}
	data, err := fsys.ReadFile(path.Join(dir, GlobalMetaFile))
	if err != nil {
		return GlobalMeta{}, fmt.Errorf("snapshot: read global metadata: %w", err)
	}
	if got, want := checksum(data), strings.TrimSpace(string(marker)); got != want {
		return GlobalMeta{}, fmt.Errorf("%w: %q: global metadata hash %s does not match COMMITTED marker %s",
			ErrCorrupt, dir, got[:12], truncate(want, 12))
	}
	var meta GlobalMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return GlobalMeta{}, fmt.Errorf("snapshot: corrupt global metadata in %q: %w", dir, err)
	}
	if err := meta.Validate(); err != nil {
		return GlobalMeta{}, fmt.Errorf("snapshot: %q: %w", dir, err)
	}
	return meta, nil
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// Intervals lists the committed checkpoint intervals present in a
// global snapshot, in ascending order. Uncommitted interval directories
// and stage leftovers are skipped: callers only ever see snapshots that
// finished their atomic commit.
func Intervals(ref GlobalRef) ([]int, error) {
	out, err := committedIntervals(ref.FS, ref.Dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: list intervals: %w", err)
	}
	return out, nil
}

// committedIntervals lists the interval directories under dir (the
// primary global snapshot or a node's replica tree) that carry a
// COMMITTED marker, in ascending order.
func committedIntervals(fsys vfs.FS, dir string) ([]int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if n, ok := intervalName(e); ok && vfs.Exists(fsys, path.Join(dir, e.Name, CommittedFile)) {
			out = append(out, n)
		}
	}
	sort.Ints(out) // ReadDir sorts by name: "10" < "9"
	return out, nil
}

// intervalName parses an interval directory's name (IntervalDirName).
func intervalName(e vfs.FileInfo) (int, bool) {
	n, err := strconv.Atoi(e.Name)
	return n, e.IsDir && err == nil && n >= 0 && IntervalDirName(n) == e.Name
}

// Uncommitted lists the debris a crash or aborted checkpoint can leave
// in a global snapshot directory: stage directories and numeric interval
// directories without a COMMITTED marker. `ompi-snapshot prune` removes
// them.
func Uncommitted(ref GlobalRef) ([]string, error) {
	entries, err := ref.FS.ReadDir(ref.Dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: list %q: %w", ref.Dir, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir {
			continue
		}
		if strings.HasPrefix(e.Name, stagePrefix) {
			out = append(out, e.Name)
			continue
		}
		if _, ok := intervalName(e); ok && !vfs.Exists(ref.FS, path.Join(ref.Dir, e.Name, CommittedFile)) {
			out = append(out, e.Name)
		}
	}
	return out, nil
}

// VerifyInterval fully validates one committed interval: the COMMITTED
// marker, the metadata, and every recorded checksum against the bytes on
// stable storage. It returns the metadata on success.
func VerifyInterval(ref GlobalRef, interval int) (GlobalMeta, error) {
	return VerifyDir(ref.FS, ref.IntervalDir(interval))
}

// VerifyDir fully validates one interval-copy directory: the COMMITTED
// marker, the metadata, and every recorded checksum against the bytes
// actually present, in sorted path order so a copy with several damaged
// files always names the same one. Validate has already required every
// rank's local metadata in the manifest, so a missing rank fails here
// as a missing payload. It works identically on the primary
// interval directory and on replicas, which is what makes every copy
// independently trustworthy.
func VerifyDir(fsys vfs.FS, dir string) (GlobalMeta, error) {
	meta, err := ReadGlobalDir(fsys, dir)
	if err != nil {
		return GlobalMeta{}, err
	}
	for _, rel := range sortedKeys(meta.Checksums) {
		want := meta.Checksums[rel]
		data, err := fsys.ReadFile(path.Join(dir, rel))
		if err != nil {
			return GlobalMeta{}, fmt.Errorf("%w: %q: missing payload %s: %v", ErrCorrupt, dir, rel, err)
		}
		if got := checksum(data); got != want {
			return GlobalMeta{}, fmt.Errorf("%w: %q: payload %s checksum mismatch", ErrCorrupt, dir, rel)
		}
	}
	return meta, nil
}

// LatestInterval returns the highest interval present in ref, or an
// error if the snapshot holds none.
func LatestInterval(ref GlobalRef) (int, error) {
	ivs, err := Intervals(ref)
	if err != nil {
		return 0, err
	}
	if len(ivs) == 0 {
		return 0, fmt.Errorf("snapshot: %q contains no checkpoint intervals", ref.Dir)
	}
	return ivs[len(ivs)-1], nil
}

// LocalRefIn returns the local snapshot reference for one process entry
// within a given interval of a global snapshot.
func LocalRefIn(ref GlobalRef, interval int, proc ProcEntry) LocalRef {
	return LocalRef{FS: ref.FS, Dir: path.Join(ref.IntervalDir(interval), proc.LocalDir)}
}
