package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cuisines/internal/artifact"
	"cuisines/internal/cluster"
)

// TestServeArtifactRejectsMalformedKeys is the path-traversal
// regression test for the peer wire route. ServeMux unescapes %2F
// inside {key}, so without the store's key check a GET for
// "%2F..%2F..%2Fsecret" would serve <cache-dir>/../secret.art.
// Every key that is not 32 lowercase hex characters must answer 404
// and count a serve miss; the held artifact itself still serves.
func TestServeArtifactRejectsMalformedKeys(t *testing.T) {
	root := t.TempDir()
	store := artifact.NewStore(artifact.Options{Dir: filepath.Join(root, "a", "cache")})
	node, err := cluster.New(cluster.Config{
		Self:   "http://127.0.0.1:1", // never dialed: serving side only
		Peers:  []string{"http://127.0.0.1:2"},
		Store:  store,
		Codecs: map[string]artifact.Codec{"blob": blobCodec{}},
		Now:    time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := artifact.Key("blob", "held")
	if _, err := store.GetOrCompute(context.Background(), held, blobCodec{}, func() (any, error) {
		return []byte("held payload"), nil
	}); err != nil {
		t.Fatal(err)
	}
	// A valid frame outside the cache directory, where the traversal
	// key's file name resolves to.
	frame, err := artifact.EncodeFrame(blobCodec{}, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "a", "secret.art"), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET "+cluster.ArtifactPathPrefix+"{kind}/{key}", node.ServeArtifact)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(key string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + cluster.ArtifactPathPrefix + "blob/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get(held); code != http.StatusOK {
		t.Fatalf("GET held key = %d, want 200", code)
	}
	bad := []string{
		"%2F..%2F..%2Fsecret",
		"%2F..%2F..%2F" + held[:20],
		"..%2F..%2F" + held,
		strings.ToUpper(held),
		held[:31],
		held + "0",
		"g" + held[1:],
		"not-hex",
	}
	before := node.Metrics().ServeMisses
	for _, key := range bad {
		if code := get(key); code != http.StatusNotFound {
			t.Errorf("GET %q = %d, want 404", key, code)
		}
	}
	if got, want := node.Metrics().ServeMisses-before, uint64(len(bad)); got != want {
		t.Errorf("serve misses rose by %d, want %d", got, want)
	}
}
