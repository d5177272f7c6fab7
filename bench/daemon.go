package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cuisines"
	"cuisines/internal/cluster"
	"cuisines/internal/pipeline"
	"cuisines/internal/server"
)

// daemonConfig is one cuisined instance's configuration.
type daemonConfig struct {
	addr     string // host:port to listen on
	scale    float64
	preload  bool
	cacheDir string   // empty = memory only
	peers    []string // cluster members' base URLs, self included; nil = single node
}

func (c daemonConfig) base() string { return "http://" + c.addr }

// daemon is a running cuisined.
type daemon struct {
	base   string
	execAt time.Time // when it was started
	boot   time.Duration
	rss    func() (float64, error) // peak resident set (VmHWM), MiB
	stop   func() error
}

// launcher starts daemons: as separate processes for measurement, or
// in this process for the package's tests.
type launcher interface {
	launch(ctx context.Context, cfg daemonConfig) (*daemon, error)
}

// processLauncher execs the cuisined binary built from the working tree.
type processLauncher struct {
	bin string
	hc  *http.Client
}

func (l processLauncher) launch(ctx context.Context, cfg daemonConfig) (*daemon, error) {
	args := []string{
		"-addr", cfg.addr,
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-access-log=false",
	}
	if cfg.preload {
		args = append(args, "-preload")
	}
	if cfg.cacheDir != "" {
		args = append(args, "-cache-dir", cfg.cacheDir)
	}
	if cfg.peers != nil {
		args = append(args, "-self", cfg.base(), "-peers", strings.Join(cfg.peers, ","))
	}
	cmd := exec.Command(l.bin, args...)
	logs := &tailBuffer{max: 16 << 10}
	cmd.Stderr = logs
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	execAt := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cuisined: %w", err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
				if waitErr != nil {
					stopErr = fmt.Errorf("cuisined %s: %v\n%s", cfg.addr, waitErr, logs)
				}
			case <-time.After(20 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				stopErr = fmt.Errorf("cuisined %s: no clean shutdown within 20s", cfg.addr)
			}
		})
		return stopErr
	}
	boot, err := waitHealthy(ctx, l.hc, cfg.base(), execAt, exited)
	if err != nil {
		_ = stop()
		return nil, fmt.Errorf("%w\n%s", err, logs)
	}
	pid := cmd.Process.Pid
	return &daemon{
		base:   cfg.base(),
		execAt: execAt,
		boot:   boot,
		rss:    func() (float64, error) { return vmHWM(fmt.Sprintf("/proc/%d/status", pid)) },
		stop:   stop,
	}, nil
}

// waitHealthy polls base/healthz until it answers 200 and returns the
// time since execAt: the daemon's boot time. exited, when closed, means
// the daemon died first.
func waitHealthy(ctx context.Context, hc *http.Client, base string, execAt time.Time, exited <-chan struct{}) (time.Duration, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return 0, err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(execAt), nil
			}
		}
		select {
		case <-exited:
			return 0, fmt.Errorf("cuisined at %s exited before answering /healthz", base)
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("cuisined at %s not healthy within 60s", base)
		}
	}
}

// vmHWM reads a process's peak resident set size from its
// /proc/<pid>/status, in MiB.
func vmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", statusPath, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", statusPath)
}

// tailBuffer keeps the last max bytes written to it: a daemon's log,
// shown when it fails.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - t.max; over > 0 {
		t.b = t.b[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// inProcessLauncher serves server.New in this process, wired as
// cmd/cuisined wires it. The package's tests use it to run every
// workload without building the daemon; its peak RSS is this process's.
type inProcessLauncher struct{ hc *http.Client }

func (l inProcessLauncher) launch(ctx context.Context, cfg daemonConfig) (*daemon, error) {
	execAt := time.Now()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	engine := cuisines.NewEngine(cuisines.EngineConfig{CacheDir: cfg.cacheDir})
	var node *cluster.Node
	if cfg.peers != nil {
		node, err = cluster.New(cluster.Config{
			Self: cfg.base(), Peers: cfg.peers, Store: engine.ArtifactStore(),
			Codecs: pipeline.Codecs(), Now: time.Now,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	srv := server.New(server.Config{Base: cuisines.Options{Scale: cfg.scale}, Engine: engine, Cluster: node})
	hs := &http.Server{Handler: srv}
	runCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "in-process cuisined %s: %v\n", cfg.addr, err)
		}
	}()
	if node != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Run(runCtx)
		}()
	}
	if cfg.preload {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Warm(runCtx)
		}()
	}
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			cancel()
			stopErr = hs.Shutdown(context.Background())
			wg.Wait()
		})
		return stopErr
	}
	boot, err := waitHealthy(ctx, l.hc, cfg.base(), execAt, nil)
	if err != nil {
		_ = stop()
		return nil, err
	}
	return &daemon{
		base:   cfg.base(),
		execAt: execAt,
		boot:   boot,
		rss:    func() (float64, error) { return vmHWM("/proc/self/status") },
		stop:   stop,
	}, nil
}
