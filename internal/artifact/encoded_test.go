package artifact_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cuisines/internal/artifact"
	"cuisines/internal/pipeline"
)

// TestEncodedServesVerifiedDiskFrame pins the peer-serving read path
// over every stage kind of a real pipeline run: Store.Encoded answers
// with the disk tier's verified frame as stored, which must be exactly
// the bytes a re-encode of the memory value gives (and what a
// memory-only store serves); a flipped, truncated, extended or deleted
// file falls back to the memory re-encode byte for byte, and a file
// that fails verification is counted.
func TestEncodedServesVerifiedDiskFrame(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	disk := artifact.NewStore(artifact.Options{Dir: dir})
	mem := artifact.NewStore(artifact.Options{})
	for _, s := range []*artifact.Store{disk, mem} {
		res, err := pipeline.New(s).Run(ctx, pipeline.Params{Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		// The elbow is resolved on demand only.
		if _, err := res.Elbow(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Every disk file names its kind, codec version and key.
	dents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	codecs := pipeline.Codecs()
	seen := map[string]bool{}
	type art struct {
		key, path string
		codec     artifact.Codec
	}
	var arts []art
	for _, d := range dents {
		for kind, c := range codecs {
			prefix := fmt.Sprintf("%s-v%d-", kind, c.Version())
			if key, ok := strings.CutPrefix(d.Name(), prefix); ok {
				key = strings.TrimSuffix(key, ".art")
				arts = append(arts, art{key: key, path: filepath.Join(dir, d.Name()), codec: c})
				seen[kind] = true
			}
		}
	}
	for kind := range codecs {
		if !seen[kind] {
			t.Fatalf("the run left no %s artifact on disk", kind)
		}
	}

	old := time.Unix(1_000_000_000, 0)
	intact := func(frame []byte) []byte { return frame }
	flipped := func(frame []byte) []byte {
		b := bytes.Clone(frame)
		b[len(b)/2] ^= 0x01
		return b
	}
	truncated := func(frame []byte) []byte { return frame[:len(frame)-1] }
	trailing := func(frame []byte) []byte { return append(bytes.Clone(frame), 0) }
	cases := []struct {
		name   string
		file   func(frame []byte) []byte // the disk file's bytes; nil = no file
		held   bool                      // the store holds the memory entry
		want   artifact.ServeSource
		reject bool // the file fails verification
	}{
		{"disk frame", intact, true, artifact.ServeDisk, false},
		{"disk frame, no memory entry", intact, false, artifact.ServeDisk, false},
		{"flipped byte", flipped, true, artifact.ServeMemory, true},
		{"truncated", truncated, true, artifact.ServeMemory, true},
		{"trailing byte", trailing, true, artifact.ServeMemory, true},
		{"deleted", nil, true, artifact.ServeMemory, false},
		{"flipped byte, no memory entry", flipped, false, artifact.ServeMiss, true},
		{"no entry, no file", nil, false, artifact.ServeMiss, false},
	}

	for _, a := range arts {
		kind := a.codec.Kind()
		v, err := disk.GetOrCompute(ctx, a.key, a.codec, func() (any, error) {
			return nil, fmt.Errorf("%s %s not in the memory tier", kind, a.key)
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := artifact.EncodeFrame(a.codec, v)
		if err != nil {
			t.Fatal(err)
		}
		// One value, one encoding: a stored frame can stand in for a
		// re-encode only if re-encoding never varies (gob once walked
		// a map in random order here).
		for i := 0; i < 8; i++ {
			if again, err := artifact.EncodeFrame(a.codec, v); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("%s: re-encoding the same value gave different bytes (err %v)", kind, err)
			}
		}
		got, src := mem.Encoded(a.key, a.codec)
		if src != artifact.ServeMemory || !bytes.Equal(got, want) {
			t.Fatalf("%s: memory-only store served %d bytes from source %d; want the %d-byte re-encode", kind, len(got), src, len(want))
		}

		for _, c := range cases {
			t.Run(kind+"/"+c.name, func(t *testing.T) {
				s := disk
				if !c.held {
					s = artifact.NewStore(artifact.Options{Dir: dir})
				}
				os.Remove(a.path)
				if c.file != nil {
					if err := os.WriteFile(a.path, c.file(want), 0o644); err != nil {
						t.Fatal(err)
					}
					if err := os.Chtimes(a.path, old, old); err != nil {
						t.Fatal(err)
					}
				}
				rejects := s.DiskServeRejects()
				got, src := s.Encoded(a.key, a.codec)
				if src != c.want {
					t.Fatalf("source %d, want %d", src, c.want)
				}
				if c.want == artifact.ServeMiss {
					if got != nil {
						t.Fatalf("a miss served %d bytes", len(got))
					}
				} else if !bytes.Equal(got, want) {
					t.Fatalf("served %d bytes that differ from the %d-byte re-encode", len(got), len(want))
				}
				wantRejects := rejects
				if c.reject {
					wantRejects++
				}
				if n := s.DiskServeRejects(); n != wantRejects {
					t.Fatalf("DiskServeRejects = %d, want %d", n, wantRejects)
				}
				if c.want == artifact.ServeDisk {
					info, err := os.Stat(a.path)
					if err != nil {
						t.Fatal(err)
					}
					if !info.ModTime().After(old) {
						t.Fatalf("a disk serve left the mtime at %v", info.ModTime())
					}
				}
			})
		}
		// Leave the intact frame behind, as the run wrote it.
		if err := os.WriteFile(a.path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
