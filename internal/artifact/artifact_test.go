package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// intCodec is a trivial test codec over int values.
type intCodec struct {
	kind    string
	version int
}

func (c intCodec) Kind() string { return c.kind }
func (c intCodec) Version() int { return c.version }
func (c intCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, uint64(v.(int))), nil
}
func (c intCodec) DecodeBytes(data []byte) (any, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("int payload is %d bytes, want 8", len(data))
	}
	return int(binary.LittleEndian.Uint64(data)), nil
}

func TestKeyStability(t *testing.T) {
	a := Key("corpus", "seed=1", "scale=1")
	if a != Key("corpus", "seed=1", "scale=1") {
		t.Fatal("identical inputs produced different keys")
	}
	if a == Key("corpus", "seed=1", "scale=2") {
		t.Fatal("different params produced the same key")
	}
	// The separator must make ("ab", "c") and ("a", "bc") distinct.
	if Key("k", "ab", "c") == Key("k", "a", "bc") {
		t.Fatal("key joining is ambiguous")
	}
}

func TestMemoryTierHit(t *testing.T) {
	s := NewStore(Options{})
	c := intCodec{kind: "stage", version: 1}
	runs := 0
	compute := func() (any, error) { runs++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := s.GetOrCompute(context.Background(), "k1", c, compute)
		if err != nil || v.(int) != 42 {
			t.Fatalf("get %d: %v, %v", i, v, err)
		}
	}
	if runs != 1 {
		t.Fatalf("computed %d times, want 1", runs)
	}
	st := s.Stats()["stage"]
	if st.Computed != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want computed 1 hits 2", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := NewStore(Options{})
	c := intCodec{kind: "stage", version: 1}
	runs := 0
	_, err := s.GetOrCompute(context.Background(), "k", c, func() (any, error) { runs++; return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("expected error")
	}
	v, err := s.GetOrCompute(context.Background(), "k", c, func() (any, error) { runs++; return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry after failure: %v, %v", v, err)
	}
	if runs != 2 {
		t.Fatalf("computed %d times, want 2 (failed runs must not be cached)", runs)
	}
}

func TestSingleFlight(t *testing.T) {
	s := NewStore(Options{})
	c := intCodec{kind: "stage", version: 1}
	var runs atomic.Int32
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.GetOrCompute(context.Background(), "shared", c, func() (any, error) {
				runs.Add(1)
				<-gate
				return 99, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = v.(int)
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("computed %d times under concurrency, want 1", got)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
	}
	st := s.Stats()["stage"]
	if st.Computed != 1 {
		t.Fatalf("stats computed = %d, want 1", st.Computed)
	}
	if st.Hits+st.InFlightJoins != callers-1 {
		t.Fatalf("hits %d + joins %d, want %d shared callers", st.Hits, st.InFlightJoins, callers-1)
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewStore(Options{MaxEntries: 2})
	c := intCodec{kind: "stage", version: 1}
	runs := 0
	get := func(k string) {
		t.Helper()
		if _, err := s.GetOrCompute(context.Background(), k, c, func() (any, error) { runs++; return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a; b is now LRU
	get("c") // evicts b
	get("a") // still cached
	get("b") // recomputed
	if runs != 4 {
		t.Fatalf("computed %d times, want 4 (a, b, c, b-again)", runs)
	}
	if st := s.Stats()["stage"]; st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
}

// diskKey is a well-formed key for the disk-tier tests: the store
// writes and reads only keys of the form Key produces.
var diskKey = Key("k")

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := intCodec{kind: "stage", version: 1}

	s1 := NewStore(Options{Dir: dir})
	if _, err := s1.GetOrCompute(context.Background(), diskKey, c, func() (any, error) { return 1234, nil }); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same dir must answer from disk.
	s2 := NewStore(Options{Dir: dir})
	v, err := s2.GetOrCompute(context.Background(), diskKey, c, func() (any, error) {
		return nil, fmt.Errorf("should not recompute")
	})
	if err != nil || v.(int) != 1234 {
		t.Fatalf("disk load: %v, %v", v, err)
	}
	st := s2.Stats()["stage"]
	if st.DiskHits != 1 || st.Computed != 0 {
		t.Fatalf("stats = %+v, want one disk hit and zero computations", st)
	}
}

// TestDiskCorruptionIsIgnored damages the one file a store wrote in
// each way a disk can: every damaged file is a miss that recomputes,
// and is counted once as a disk reject.
func TestDiskCorruptionIsIgnored(t *testing.T) {
	dir := t.TempDir()
	c := intCodec{kind: "stage", version: 1}
	s1 := NewStore(Options{Dir: dir})
	if _, err := s1.GetOrCompute(context.Background(), diskKey, c, func() (any, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifact files: %v, %v", files, err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"flipped":   func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"bad-magic": func(b []byte) []byte { b[0] = 'X'; return b },
		"empty":     func([]byte) []byte { return nil },
		"garbage":   func([]byte) []byte { return []byte("garbage\n") },
		// The payload still decodes; the byte after it must not pass.
		"trailing-byte": func(b []byte) []byte { return append(b, 0) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			orig, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], corrupt(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(files[0], orig, 0o644)

			s2 := NewStore(Options{Dir: dir})
			v, err := s2.GetOrCompute(context.Background(), diskKey, c, func() (any, error) { return 5, nil })
			if err != nil || v.(int) != 5 {
				t.Fatalf("corrupted artifact was fatal: %v, %v", v, err)
			}
			if st := s2.Stats()["stage"]; st.Computed != 1 || st.DiskHits != 0 || st.DiskRejects != 1 {
				t.Fatalf("stats = %+v, want one disk reject and fallback to recompute", st)
			}
		})
	}
}

// TestFetchedFrameWithTrailingBytesIsRefused hands the store a peer
// frame whose payload decodes but which carries bytes after it. The
// frame must be refused, the stage computed, and the disk file hold
// only the computed frame, not the peer's bytes.
func TestFetchedFrameWithTrailingBytesIsRefused(t *testing.T) {
	dir := t.TempDir()
	c := intCodec{kind: "stage", version: 1}
	frame, err := EncodeFrame(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(Options{Dir: dir})
	s.SetFetcher(func(context.Context, string, Codec) ([]byte, bool) {
		return append(bytes.Clone(frame), make([]byte, 4096)...), true
	})
	v, err := s.GetOrCompute(context.Background(), diskKey, c, func() (any, error) { return 5, nil })
	if err != nil || v.(int) != 5 {
		t.Fatalf("GetOrCompute = %v, %v", v, err)
	}
	if st := s.Stats()["stage"]; st.PeerHits != 0 || st.Computed != 1 {
		t.Fatalf("stats = %+v, want the peer frame refused and one compute", st)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifact files: %v, %v", files, err)
	}
	if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("disk file is %d bytes (%v), want the %d-byte computed frame", len(got), err, len(frame))
	}
}

func TestDiskVersionMismatchIsIgnored(t *testing.T) {
	dir := t.TempDir()
	s1 := NewStore(Options{Dir: dir})
	if _, err := s1.GetOrCompute(context.Background(), diskKey, intCodec{kind: "stage", version: 1}, func() (any, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}

	// Same kind and key, bumped codec version: old file must be ignored.
	s2 := NewStore(Options{Dir: dir})
	runs := 0
	v, err := s2.GetOrCompute(context.Background(), diskKey, intCodec{kind: "stage", version: 2}, func() (any, error) { runs++; return 6, nil })
	if err != nil || v.(int) != 6 || runs != 1 {
		t.Fatalf("version mismatch not recomputed: v=%v err=%v runs=%d", v, err, runs)
	}
}

func TestDiskTierDisabled(t *testing.T) {
	s := NewStore(Options{})
	if _, err := s.GetOrCompute(context.Background(), "k", intCodec{kind: "s", version: 1}, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDiskGCBoundsTotalSize(t *testing.T) {
	dir := t.TempDir()
	// Each int artifact file is ~80 bytes; cap at ~3 files' worth.
	s := NewStore(Options{Dir: dir, MaxDiskBytes: 250})
	c := intCodec{kind: "stage", version: 1}
	for i := 0; i < 10; i++ {
		key := Key(fmt.Sprintf("k%02d", i))
		if _, err := s.GetOrCompute(context.Background(), key, c, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct mtimes so LRU order is unambiguous
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 250 {
		t.Fatalf("disk tier holds %d bytes across %d files, want <= 250", total, len(files))
	}
	if len(files) == 0 {
		t.Fatal("GC deleted everything, including the newest artifact")
	}
	// The newest artifacts survive; a fresh store can still load one.
	s2 := NewStore(Options{Dir: dir, MaxDiskBytes: 250})
	if _, err := s2.GetOrCompute(context.Background(), Key("k09"), c, func() (any, error) {
		return nil, fmt.Errorf("newest artifact was evicted")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestUnwritableDirIsNotFatal(t *testing.T) {
	// A bogus cache dir degrades to memory-only behaviour.
	s := NewStore(Options{Dir: filepath.Join(string([]byte{0}), "nope")})
	v, err := s.GetOrCompute(context.Background(), diskKey, intCodec{kind: "s", version: 1}, func() (any, error) { return 3, nil })
	if err != nil || v.(int) != 3 {
		t.Fatalf("unwritable dir was fatal: %v, %v", v, err)
	}
}

func TestValidKey(t *testing.T) {
	if k := Key("stage", "x"); !validKey(k) {
		t.Fatalf("Key output %q rejected", k)
	}
	k := Key("stage", "x")
	for _, bad := range []string{
		"", "k", k[:31], k + "0", strings.ToUpper(k), "g" + k[1:],
		"/../../secret", "../" + k[3:], k[:16] + "/" + k[17:],
	} {
		if validKey(bad) {
			t.Errorf("validKey(%q) = true", bad)
		}
	}
}

// TestStoreRefusesMalformedKeys pins the disk tier to well-formed keys:
// a key that would resolve outside the cache directory is neither
// served, loaded nor written, even when a valid frame sits where it
// points.
func TestStoreRefusesMalformedKeys(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "cache")
	c := intCodec{kind: "stage", version: 1}
	frame, err := EncodeFrame(c, 99)
	if err != nil {
		t.Fatal(err)
	}
	// "stage-v1-/../../secret.art" under dir is root/a/secret.art.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "a", "secret.art"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(Options{Dir: dir})
	for _, key := range []string{"/../../secret", strings.ToUpper(Key("stage", "x")), "not-hex"} {
		if _, src := s.Encoded(key, c); src != ServeMiss {
			t.Errorf("Encoded(%q) served bytes", key)
		}
	}
	// GetOrCompute still answers (memory tier), but never from or to
	// disk under a malformed key.
	v, err := s.GetOrCompute(context.Background(), "/../../secret", c, func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("GetOrCompute = %v, %v; want the computed 7, not the file outside the cache", v, err)
	}
	if _, err := s.GetOrCompute(context.Background(), "/../../written", c, func() (any, error) { return 8, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "a", "written.art")); !os.IsNotExist(err) {
		t.Fatalf("malformed key wrote outside the cache directory: %v", err)
	}
	if st := s.Stats()["stage"]; st.DiskHits != 0 || st.Computed != 2 {
		t.Fatalf("stats = %+v, want two computes and no disk hits", st)
	}
}
