package cluster

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cuisines/internal/artifact"
)

// ArtifactPathPrefix is the peer wire route for artifact frames:
// GET {prefix}{kind}/{key} returns the framed encoding (200) or 404.
// The kind segment selects the codec server-side, so the serving node
// frames (and the fetching node verifies) with the same codec the disk
// tier uses — a peer response and a disk file are interchangeable.
const ArtifactPathPrefix = "/internal/v1/artifact/"

// DefaultFetchTimeout caps one peer artifact fetch. Generous relative
// to the probe timeout: a warm peer streams even the tens-of-MB matrix
// artifacts well inside it, while recomputing them costs far more.
const DefaultFetchTimeout = 30 * time.Second

// DefaultMaxFrameBytes caps a peer response read. The largest real
// artifacts (full-scale pdist matrices) are tens of MB; 256 MiB keeps
// headroom without letting a broken peer stream unbounded garbage.
const DefaultMaxFrameBytes = 256 << 20

// Metrics is a snapshot of the exchange counters, rendered on /metrics.
// Every fetch ends in exactly one of hit, miss, error or reject, so
// their sum is the number of peer GETs issued.
type Metrics struct {
	// Fetch side (this node asking peers).
	FetchHits    uint64 // verified frames received
	FetchMisses  uint64 // peer answered 404
	FetchErrors  uint64 // transport/status errors
	FetchRejects uint64 // responses failing frame verification
	// Serve side (peers asking this node). Every GET hit is answered
	// by one source: the verified disk frame as stored, or a re-encode
	// of the memory value. ServeDiskRejects counts local disk frames
	// that failed verification on a serve.
	ServeHits        uint64
	ServeMisses      uint64
	ServeDisk        uint64
	ServeMemory      uint64
	ServeDiskRejects uint64
}

// exchange implements both halves of the peer artifact protocol.
type exchange struct {
	self   string
	client *http.Client
	store  *artifact.Store
	codecs map[string]artifact.Codec
	ring   *Ring
	health *health

	fetchHits    atomic.Uint64
	fetchMisses  atomic.Uint64
	fetchErrors  atomic.Uint64
	fetchRejects atomic.Uint64
	serveHits    atomic.Uint64
	serveMisses  atomic.Uint64
	serveDisk    atomic.Uint64
	serveMemory  atomic.Uint64
}

func (e *exchange) metrics() Metrics {
	return Metrics{
		FetchHits:        e.fetchHits.Load(),
		FetchMisses:      e.fetchMisses.Load(),
		FetchErrors:      e.fetchErrors.Load(),
		FetchRejects:     e.fetchRejects.Load(),
		ServeHits:        e.serveHits.Load(),
		ServeMisses:      e.serveMisses.Load(),
		ServeDisk:        e.serveDisk.Load(),
		ServeMemory:      e.serveMemory.Load(),
		ServeDiskRejects: e.store.DiskServeRejects(),
	}
}

// candidates orders the peers to ask for key: the key's ring owners
// first (most likely to hold it — they are where routing concentrates
// its computes), then every other healthy peer. Stage artifact keys
// hash independently of the analysis routing key, so the owner guess
// is a prior, not a guarantee; the full healthy set is the fallback
// that makes cluster-warm serving work from any node. Self is never a
// candidate.
func (e *exchange) candidates(key string) []string {
	owners := e.ring.Owners(key, e.aliveOrSelf)
	out := make([]string, 0, len(e.ring.members))
	seen := map[string]bool{e.self: true}
	for _, m := range owners {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for _, m := range e.ring.members {
		if !seen[m] && e.health.alive(m) {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// aliveOrSelf is the ring liveness predicate: peers by health verdict,
// self always.
func (e *exchange) aliveOrSelf(member string) bool {
	return member == e.self || e.health.alive(member)
}

// fetch is the artifact.Fetcher installed on the store: on a local
// miss it asks candidate peers in order for the framed artifact and
// returns the first response that exists. The store re-verifies and
// decodes the frame itself, so a corrupt response here can at worst
// waste one candidate slot — never poison the cache; fetch still
// pre-verifies so a bad frame from one peer does not stop it from
// trying the next.
func (e *exchange) fetch(ctx context.Context, key string, codec artifact.Codec) ([]byte, bool) {
	for _, peer := range e.candidates(key) {
		if ctx.Err() != nil {
			return nil, false
		}
		frame, ok := e.fetchFrom(ctx, peer, key, codec)
		if ok {
			return frame, true
		}
	}
	return nil, false
}

func (e *exchange) fetchFrom(ctx context.Context, peer, key string, codec artifact.Codec) ([]byte, bool) {
	url := peer + ArtifactPathPrefix + codec.Kind() + "/" + key
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		e.fetchErrors.Add(1)
		return nil, false
	}
	resp, err := e.client.Do(req)
	if err != nil {
		e.fetchErrors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		e.fetchMisses.Add(1)
		return nil, false
	default:
		e.fetchErrors.Add(1)
		return nil, false
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxFrameBytes+1))
	if err != nil || len(frame) > DefaultMaxFrameBytes {
		e.fetchErrors.Add(1)
		return nil, false
	}
	if err := artifact.VerifyFrame(frame, codec); err != nil {
		e.fetchRejects.Add(1)
		return nil, false
	}
	e.fetchHits.Add(1)
	return frame, true
}

// serveArtifact answers GET {ArtifactPathPrefix}{kind}/{key} from
// the local store only — it never computes and never asks other peers,
// which is what makes the peer protocol loop-free by construction.
func (e *exchange) serveArtifact(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	key := r.PathValue("key")
	codec, ok := e.codecs[kind]
	if !ok || key == "" {
		e.serveMisses.Add(1)
		http.Error(w, "unknown artifact kind", http.StatusNotFound)
		return
	}
	frame, src := e.store.Encoded(key, codec)
	switch src {
	case artifact.ServeMiss:
		e.serveMisses.Add(1)
		http.Error(w, "artifact not held", http.StatusNotFound)
		return
	case artifact.ServeDisk:
		e.serveDisk.Add(1)
	case artifact.ServeMemory:
		e.serveMemory.Add(1)
	}
	e.serveHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}
