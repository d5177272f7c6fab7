package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/pipeline"
)

// TestSlowlorisConnectionDropped is the regression test for the bare
// http.Server the daemon used to run: a client that opens a connection
// and trickles an eternally unfinished header block must be dropped by
// ReadHeaderTimeout, not parked forever.
func TestSlowlorisConnectionDropped(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), 100*time.Millisecond, time.Second, time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An incomplete header block: the final blank line never arrives.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed the connection
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled connection survived %v; ReadHeaderTimeout not enforced", elapsed)
	}
}

func TestDoctorInventoriesArtifacts(t *testing.T) {
	dir := t.TempDir()
	mine := pipeline.Codecs()["mine"]
	current := fmt.Sprintf("mine-v%d-0123456789abcdef0123456789abcdef.art", mine.Version())
	orphan := fmt.Sprintf("mine-v%d-0123456789abcdef0123456789abcdef.art", mine.Version()+7)
	frame, err := artifact.EncodeFrame(mine, []core.RegionPatterns(nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{current: frame, orphan: []byte("x"), "not-an-artifact.art": []byte("x")} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	if err := runDoctor(&out, dir, "average"); err != nil {
		t.Fatalf("doctor failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"1 current", "0 corrupt", "1 orphaned", "1 unrecognized",
		"writable", fmt.Sprintf("mine=v%d", mine.Version()), "ok\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("doctor report missing %q:\n%s", want, report)
		}
	}
}

// TestDoctorCountsCorruptArtifacts: a current-version file that fails
// frame verification — garbage, or a valid frame with one byte
// appended — is reported corrupt, once each, and not as current.
func TestDoctorCountsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	p := pipeline.New(artifact.NewStore(artifact.Options{Dir: dir}))
	if _, err := p.Run(context.Background(), pipeline.Params{Scale: 0.02}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(files) < 2 {
		t.Fatalf("pipeline run left %d artifacts: %v", len(files), err)
	}
	report := func() string {
		t.Helper()
		var out strings.Builder
		if err := runDoctor(&out, dir, "average"); err != nil {
			t.Fatalf("doctor failed: %v\n%s", err, out.String())
		}
		return out.String()
	}
	if r, want := report(), fmt.Sprintf("%d current, 0 corrupt", len(files)); !strings.Contains(r, want) {
		t.Fatalf("intact cache: report missing %q:\n%s", want, r)
	}

	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(files[1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := report()
	for _, want := range []string{
		fmt.Sprintf("%d current, 2 corrupt (will be rejected and recomputed)", len(files)-2),
		"ok\n",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("damaged cache: report missing %q:\n%s", want, r)
		}
	}
}

func TestDoctorRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := runDoctor(&out, "", "nosuchlinkage"); err == nil {
		t.Fatal("doctor accepted an unknown linkage")
	}
}

func TestDoctorWithoutCacheDir(t *testing.T) {
	var out strings.Builder
	if err := runDoctor(&out, "", "average"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "memory-only") {
		t.Errorf("doctor report should note the memory-only store:\n%s", out.String())
	}
}
