// Package artifact implements the content-addressed artifact store
// behind the staged pipeline (internal/pipeline, DESIGN.md §8). Every
// pipeline stage output — corpus, mined patterns, feature matrices,
// condensed distances, trees, validation — is an artifact addressed by
// a stable key derived from the stage's parameters and its inputs'
// keys. The store memoizes artifacts in two tiers:
//
//   - a bounded in-memory LRU tier holding the live Go values, and
//   - an optional disk tier holding versioned, checksummed encodings,
//     which lets a restarted daemon come back warm.
//
// Lookups are deduplicated single-flight per key: any number of
// concurrent GetOrCompute calls for the same key share exactly one
// computation, so two analyses that share an upstream stage never mine
// the same corpus twice even when they arrive together.
//
// A store may also have a Fetcher: a hook consulted between the disk
// tier and compute, which is how a clustered daemon asks its peers for
// an artifact before recomputing it (internal/cluster, DESIGN.md §13).
// Fetched frames pass the same verification as disk reads — magic,
// format and codec versions, kind, checksum — so a misbehaving peer can
// never poison the cache. The serving side of that exchange (Encoded)
// sends the disk tier's verified frame as-is and re-encodes the memory
// value only when no good file exists.
//
// Disk artifacts are best-effort by design: a missing, truncated,
// corrupted or version-mismatched file is treated as a cache miss and
// recomputed, never a fatal error. Writes go through a temp file +
// rename so a crash mid-write cannot leave a half-written artifact
// under the final name.
package artifact

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Codec encodes and decodes one kind of artifact for the disk tier and
// the peer wire. Kind names the stage ("corpus", "mine", ...) and
// Version is bumped on any change to the encoded format; both are part
// of the on-disk header and the file name, so a format change simply
// orphans old files. AppendEncode appends v's encoding to dst (which
// may be nil) and returns the extended slice. DecodeBytes is handed the
// checksummed payload subslice of a frame; it must not retain or modify
// data beyond values it deliberately aliases into the decoded artifact.
type Codec interface {
	Kind() string
	Version() int
	AppendEncode(dst []byte, v any) ([]byte, error)
	DecodeBytes(data []byte) (any, error)
}

// Key derives a stable artifact key from a stage kind and its
// parameters — typically literal parameter values plus the keys of the
// stage's inputs, which makes keys content-addressed transitively: a
// seed change reaches every downstream key through the chain.
func Key(kind string, parts ...string) string {
	h := sha256.New()
	io.WriteString(h, kind)
	for _, p := range parts {
		h.Write([]byte{0}) // unambiguous joins
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil)[:keyBytes])
}

// keyBytes is the digest length Key keeps; a key is its lowercase hex.
const keyBytes = 16

// validKey reports whether key has the form Key produces: 32 lowercase
// hex characters. The store's disk tier and peer reads refuse any
// other key, so a key taken from a request can never name a file
// outside the cache directory.
func validKey(key string) bool {
	if len(key) != 2*keyBytes {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Stats counts one kind's cache traffic. Hits are memory-tier hits,
// DiskHits are disk-tier loads, DiskRejects are disk files that were
// read but failed verification or decode (each then falls through to
// the next tier, as a miss would), PeerHits are artifacts obtained from
// a cluster peer via the Fetcher hook, PeerRejects are peer frames
// that failed verification or decode (the stage then computes),
// Computed counts actual stage
// executions, Evictions counts memory-tier LRU evictions,
// InFlightJoins counts callers that latched onto an in-flight
// computation instead of starting their own, and DiskWriteErrors
// counts artifacts the disk tier failed to persist (an encode or I/O
// error; the value is still served, but the next restart recomputes
// or refetches it).
type Stats struct {
	Hits            uint64 `json:"hits"`
	DiskHits        uint64 `json:"disk_hits"`
	DiskRejects     uint64 `json:"disk_rejects"`
	PeerHits        uint64 `json:"peer_hits"`
	PeerRejects     uint64 `json:"peer_rejects"`
	Computed        uint64 `json:"computed"`
	Evictions       uint64 `json:"evictions"`
	InFlightJoins   uint64 `json:"inflight_joins"`
	DiskWriteErrors uint64 `json:"disk_write_errors"`
}

// Fetcher is the peer-exchange hook: on a local miss (memory and disk)
// the store asks it for the key's framed encoding before computing.
// The returned bytes must be a full frame (EncodeFrame layout); the
// store verifies and decodes them itself, so a fetcher cannot inject
// an unverified value. A (nil, false) return means no peer had it.
// The context is the requesting caller's — fetchers must give up when
// it expires so peer fetches honor request deadlines.
type Fetcher func(ctx context.Context, key string, codec Codec) ([]byte, bool)

// Options configures a Store.
type Options struct {
	// Dir is the disk-tier directory; empty disables the disk tier.
	// The directory is created on first use.
	Dir string
	// MaxEntries bounds the memory tier (LRU); <= 0 means
	// DefaultMaxEntries.
	MaxEntries int
	// MaxDiskBytes bounds the disk tier: after every write the store
	// deletes least-recently-used artifact files (by modification time)
	// until the total is under the cap. Analysis parameters are
	// client-controlled on the daemon's query string, so an unbounded
	// disk tier would let `?seed=N` loops fill the volume. <= 0 means
	// DefaultMaxDiskBytes.
	MaxDiskBytes int64
}

// DefaultMaxEntries bounds the memory tier when the caller does not: a
// full analysis produces 15 artifacts (16 once its on-demand elbow is
// resolved), so the default holds about eight analyses worth of
// stages.
const DefaultMaxEntries = 128

// DefaultMaxDiskBytes bounds the disk tier when the caller does not:
// 4 GiB holds hundreds of full-scale analysis chains.
const DefaultMaxDiskBytes = 4 << 30

// Store is the two-tier artifact store.
type Store struct {
	dir     string
	max     int
	maxDisk int64

	fetchMu sync.RWMutex
	fetch   Fetcher // nil = no peer tier

	diskMu    sync.Mutex // guards diskTotal and GC scans
	diskTotal int64      // running estimate of disk-tier bytes; -1 = unknown

	diskServeRejects atomic.Uint64 // disk frames Encoded refused

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // of *entry; front = most recently used
	stats   map[string]*Stats
}

// entry is one cached (or in-flight) artifact. ready is closed once v
// and err are final; done distinguishes a finished entry from an
// in-flight one under the store lock.
type entry struct {
	key   string
	kind  string
	elem  *list.Element
	ready chan struct{}
	done  bool
	v     any
	err   error
}

// NewStore builds a Store. The disk directory (if any) is created
// lazily by the first write, so a read-only inspection of a store with
// a bogus dir never fails.
func NewStore(opts Options) *Store {
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	maxDisk := opts.MaxDiskBytes
	if maxDisk <= 0 {
		maxDisk = DefaultMaxDiskBytes
	}
	return &Store{
		dir:       opts.Dir,
		max:       max,
		maxDisk:   maxDisk,
		diskTotal: -1, // measured on first write
		entries:   make(map[string]*entry),
		lru:       list.New(),
		stats:     make(map[string]*Stats),
	}
}

// SetFetcher installs (or clears) the peer-exchange hook. Safe to call
// while the store is serving; the hook applies to subsequent misses.
func (s *Store) SetFetcher(f Fetcher) {
	s.fetchMu.Lock()
	s.fetch = f
	s.fetchMu.Unlock()
}

func (s *Store) fetcher() Fetcher {
	s.fetchMu.RLock()
	defer s.fetchMu.RUnlock()
	return s.fetch
}

// statsFor returns the mutable counter block for a kind. Caller holds mu.
func (s *Store) statsFor(kind string) *Stats {
	st := s.stats[kind]
	if st == nil {
		st = &Stats{}
		s.stats[kind] = st
	}
	return st
}

// GetOrCompute returns the artifact under key, resolving it through the
// memory tier, then the disk tier, then the peer fetcher (when one is
// installed), then compute — whichever answers first. Concurrent calls
// for the same key share one resolution; a joiner whose ctx expires
// leaves with ctx's error while the shared flight runs on. Failed
// computations are reported to every waiter of that flight but never
// cached, so a later call retries. The flight holder's ctx gates the
// peer fetch and is re-checked before compute, so an expired request
// never starts a stage execution on a cold key.
func (s *Store) GetOrCompute(ctx context.Context, key string, codec Codec, compute func() (any, error)) (any, error) {
	kind := codec.Kind()
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		st := s.statsFor(kind)
		if e.done {
			st.Hits++
		} else {
			st.InFlightJoins++
		}
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		select {
		case <-e.ready:
			return e.v, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &entry{key: key, kind: kind, ready: make(chan struct{})}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	for s.lru.Len() > s.max {
		// Evicting an in-flight entry is safe: its waiters hold the
		// entry itself and still receive the shared result.
		back := s.lru.Back()
		ev := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, ev.key)
		s.statsFor(ev.kind).Evictions++
	}
	s.mu.Unlock()

	if v, ok := s.loadDisk(key, codec); ok {
		s.finish(e, kind, v, nil, srcDisk)
		return v, nil
	}
	if f := s.fetcher(); f != nil && ctx.Err() == nil {
		if frame, ok := f(ctx, key, codec); ok {
			// Decode re-verifies the frame end to end (magic, versions,
			// kind, checksum): the fetcher's word is never trusted.
			v, err := DecodeFrame(frame, codec)
			if err == nil {
				s.finish(e, kind, v, nil, srcPeer)
				s.writeFrame(key, codec, frame)
				return v, nil
			}
			s.mu.Lock()
			s.statsFor(kind).PeerRejects++
			s.mu.Unlock()
		}
	}
	if err := ctx.Err(); err != nil {
		// The deadline expired during the peer fetch: fail this flight
		// (failed flights are forgotten, so the next request retries)
		// rather than starting a stage execution nobody will wait for.
		s.finish(e, kind, nil, err, srcAbort)
		return nil, err
	}
	v, err := compute()
	s.finish(e, kind, v, err, srcCompute)
	// The disk write is best effort: an encoding or I/O failure leaves
	// the cache cold but never fails the pipeline. Either failure is
	// counted as a DiskWriteError.
	if err == nil && s.dir != "" && validKey(key) {
		if frame, err := EncodeFrame(codec, v); err != nil {
			s.noteDiskWriteError(kind)
		} else {
			s.writeFrame(key, codec, frame)
		}
	}
	return v, err
}

// source labels where a flight's result came from, for the counters.
type source int

const (
	srcCompute source = iota
	srcDisk
	srcPeer
	srcAbort // flight failed before compute started; counts nothing
)

// finish publishes a flight's result and updates counters.
func (s *Store) finish(e *entry, kind string, v any, err error, src source) {
	e.v, e.err = v, err
	s.mu.Lock()
	e.done = true
	st := s.statsFor(kind)
	switch src {
	case srcDisk:
		st.DiskHits++
	case srcPeer:
		st.PeerHits++
	case srcCompute:
		st.Computed++
	}
	if err != nil && s.entries[e.key] == e { // failed: forget, allow retry
		s.lru.Remove(e.elem)
		delete(s.entries, e.key)
	}
	s.mu.Unlock()
	close(e.ready)
}

// Stats returns a copy of the per-kind counters.
func (s *Store) Stats() map[string]Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.stats))
	for k, v := range s.stats {
		out[k] = *v
	}
	return out
}

// Len reports how many artifacts are held in (or in flight into) the
// memory tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Summary renders the per-kind counters as one stable, human-readable
// line per kind — the daemon's shutdown log format.
func (s *Store) Summary() []string {
	stats := s.Stats()
	kinds := make([]string, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]string, len(kinds))
	for i, k := range kinds {
		st := stats[k]
		out[i] = fmt.Sprintf("%s: hits=%d disk_hits=%d disk_rejects=%d peer_hits=%d peer_rejects=%d computed=%d evictions=%d inflight_joins=%d disk_write_errors=%d",
			k, st.Hits, st.DiskHits, st.DiskRejects, st.PeerHits, st.PeerRejects, st.Computed, st.Evictions, st.InFlightJoins, st.DiskWriteErrors)
	}
	return out
}

// Frame format — shared by the disk tier and the peer wire protocol:
// magic, format version, codec version, kind length, payload length,
// kind, payload sha256, payload. All integers little-endian uint32.
// On disk anything that fails a check is a miss, counted as a disk
// reject; over the wire it rejects the peer's response.
var diskMagic = [4]byte{'C', 'A', 'R', 'T'}

const (
	diskFormatVersion = 1
	frameHeaderSize   = 4 + 4*4 // magic + {format, codec version, kind len, payload len}
)

// EncodeFrame encodes v with codec and wraps the encoding in the
// store's verified frame: the exact bytes the disk tier writes and
// peers exchange. The payload exists twice transiently (encoding + frame);
// acceptable even for the tens-of-MB matrix artifacts.
func EncodeFrame(codec Codec, v any) ([]byte, error) {
	payload, err := codec.AppendEncode(nil, v)
	if err != nil {
		return nil, err
	}
	kind := codec.Kind()
	sum := sha256.Sum256(payload)
	frame := make([]byte, 0, frameHeaderSize+len(kind)+sha256.Size+len(payload))
	frame = append(frame, diskMagic[:]...)
	frame = binary.LittleEndian.AppendUint32(frame, diskFormatVersion)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(codec.Version()))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(kind)))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, kind...)
	frame = append(frame, sum[:]...)
	frame = append(frame, payload...)
	return frame, nil
}

// framePayload verifies every frame invariant — magic, format version,
// codec version, kind, length, checksum — and returns the payload as a
// subslice of data (no copy; artifacts run to tens of MB).
func framePayload(data []byte, codec Codec) ([]byte, error) {
	if len(data) < frameHeaderSize {
		return nil, fmt.Errorf("artifact frame: truncated header (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != diskMagic {
		return nil, fmt.Errorf("artifact frame: bad magic")
	}
	var (
		format     = binary.LittleEndian.Uint32(data[4:])
		codecVer   = binary.LittleEndian.Uint32(data[8:])
		kindLen    = binary.LittleEndian.Uint32(data[12:])
		payloadLen = binary.LittleEndian.Uint32(data[16:])
	)
	if format != diskFormatVersion {
		return nil, fmt.Errorf("artifact frame: format v%d, want v%d", format, diskFormatVersion)
	}
	if int(codecVer) != codec.Version() {
		return nil, fmt.Errorf("artifact frame: %s codec v%d, want v%d", codec.Kind(), codecVer, codec.Version())
	}
	if kindLen > 256 {
		return nil, fmt.Errorf("artifact frame: kind length %d", kindLen)
	}
	// The length is exact: bytes past the payload would be stored and
	// served on as part of the frame.
	rest := data[frameHeaderSize:]
	if want := uint64(kindLen) + sha256.Size + uint64(payloadLen); uint64(len(rest)) != want {
		return nil, fmt.Errorf("artifact frame: body is %d bytes, want %d", len(rest), want)
	}
	if string(rest[:kindLen]) != codec.Kind() {
		return nil, fmt.Errorf("artifact frame: kind %q, want %q", rest[:kindLen], codec.Kind())
	}
	rest = rest[kindLen:]
	var sum [sha256.Size]byte
	copy(sum[:], rest)
	payload := rest[sha256.Size:]
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("artifact frame: checksum mismatch")
	}
	return payload, nil
}

// VerifyFrame checks a frame's integrity without decoding the payload —
// the cheap pre-flight for serving a disk file to a peer as-is.
func VerifyFrame(data []byte, codec Codec) error {
	_, err := framePayload(data, codec)
	return err
}

// DecodeFrame verifies a frame end to end and decodes its payload with
// codec. The decoded value may alias data (a codec may subslice it), so
// callers must not reuse data's backing array afterwards.
func DecodeFrame(data []byte, codec Codec) (any, error) {
	payload, err := framePayload(data, codec)
	if err != nil {
		return nil, err
	}
	return codec.DecodeBytes(payload)
}

// path returns the disk file for a key. Kind and codec version are in
// the name so `ls` of a cache dir reads as an inventory and version
// bumps orphan old files instead of tripping over them. Callers check
// validKey first: only then is the name confined to s.dir.
func (s *Store) path(key string, codec Codec) string {
	name := fmt.Sprintf("%s-v%d-%s.art", sanitizeKind(codec.Kind()), codec.Version(), key)
	return filepath.Join(s.dir, name)
}

func sanitizeKind(kind string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, kind)
}

// loadDisk attempts a disk-tier read. Every failure mode — invalid
// key, absent file, bad magic, version mismatch, checksum mismatch,
// wrong length, decode error — is (nil, false). A file that was read
// but failed verification or decode also counts as a DiskReject.
func (s *Store) loadDisk(key string, codec Codec) (any, bool) {
	if s.dir == "" || !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key, codec))
	if err != nil {
		return nil, false
	}
	v, err := DecodeFrame(data, codec)
	if err != nil {
		s.mu.Lock()
		s.statsFor(codec.Kind()).DiskRejects++
		s.mu.Unlock()
		return nil, false
	}
	touch(s.path(key, codec))
	return v, true
}

// touch re-stamps a disk artifact's mtime on every read (loads and
// peer serves), so gcDiskLocked's mtime ordering is LRU, not write
// order: artifacts still being read survive the cap.
func touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// writeFrame is the shared disk-tier write path. It also persists
// verified peer frames as-is, so a node that warmed from the cluster
// stays warm across its own restarts. Without a disk tier, or for an
// invalid key, it writes nothing; a failed write is counted as a
// DiskWriteError and otherwise ignored.
func (s *Store) writeFrame(key string, codec Codec, frame []byte) {
	if s.dir == "" || !validKey(key) {
		return
	}
	if err := s.writeFile(s.path(key, codec), frame); err != nil {
		s.noteDiskWriteError(codec.Kind())
		return
	}
	s.noteDiskWrite(int64(len(frame)))
}

// writeFile writes data to path through a temp file + rename, so a
// crash mid-write cannot leave a torn artifact under the final name.
func (s *Store) writeFile(path string, data []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// noteDiskWriteError counts one artifact of kind that the disk tier
// failed to persist.
func (s *Store) noteDiskWriteError(kind string) {
	s.mu.Lock()
	s.statsFor(kind).DiskWriteErrors++
	s.mu.Unlock()
}

// ServeSource names which tier answered an Encoded call.
type ServeSource int

const (
	ServeMiss   ServeSource = iota // neither tier held a servable frame
	ServeDisk                      // the verified disk file, as stored
	ServeMemory                    // a re-encode of the memory-tier value
)

// Encoded returns the framed encoding of the artifact under key — the
// peer-serving read path — and the tier that produced it. The disk
// tier's file already is the frame, so it is served as-is once it
// passes VerifyFrame (a locally corrupted file is never propagated to
// a peer), and its mtime is re-stamped as on a disk hit. Only when
// there is no disk tier, no file, or the file fails verification is a
// finished memory-tier value re-encoded; determinism makes both
// answers the same bytes. A memory entry counts as used for LRU
// purposes either way. A file that fails verification is counted
// (DiskServeRejects). A key that fails validKey (the peer route's key
// comes off the wire) is a miss.
func (s *Store) Encoded(key string, codec Codec) ([]byte, ServeSource) {
	if !validKey(key) {
		return nil, ServeMiss
	}
	var v any
	held := false
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && e.done && e.err == nil && e.kind == codec.Kind() {
		v, held = e.v, true
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if s.dir != "" {
		path := s.path(key, codec)
		if data, err := os.ReadFile(path); err == nil {
			if VerifyFrame(data, codec) == nil {
				touch(path)
				return data, ServeDisk
			}
			s.diskServeRejects.Add(1)
		}
	}
	if !held {
		return nil, ServeMiss
	}
	frame, err := EncodeFrame(codec, v)
	if err != nil {
		return nil, ServeMiss
	}
	return frame, ServeMemory
}

// DiskServeRejects counts disk files Encoded read but refused because
// they failed frame verification: local corruption that the serve
// path survives (by re-encoding or missing) but should not hide.
func (s *Store) DiskServeRejects() uint64 { return s.diskServeRejects.Load() }

// noteDiskWrite maintains the running disk-tier byte estimate and
// triggers GC only when it crosses the cap, keeping the common write
// O(1) instead of a directory scan. The estimate may drift (a rename
// over an existing key double-counts); every GC scan re-measures
// exactly, so drift never accumulates past one GC cycle.
func (s *Store) noteDiskWrite(n int64) {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	if s.diskTotal >= 0 {
		s.diskTotal += n
	}
	if s.diskTotal >= 0 && s.diskTotal <= s.maxDisk {
		return
	}
	s.gcDiskLocked()
}

// gcDiskLocked bounds the disk tier: while the artifact files exceed
// MaxDiskBytes, the least recently touched (disk loads and peer serves
// re-stamp mtimes, making mtime order LRU order) are deleted. Best
// effort.
// Caller holds diskMu.
func (s *Store) gcDiskLocked() {
	dents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type file struct {
		name  string
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	for _, d := range dents {
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".art") {
			continue
		}
		info, err := d.Info()
		if err != nil {
			continue
		}
		files = append(files, file{name: d.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		if total <= s.maxDisk {
			break
		}
		if os.Remove(filepath.Join(s.dir, f.name)) == nil {
			total -= f.size
		}
	}
	s.diskTotal = total
}
