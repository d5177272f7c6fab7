package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cuisines/internal/artifact"
)

// Config configures a Node.
type Config struct {
	// Self is this node's own base URL as it appears in every fleet
	// member's -peers list (e.g. "http://10.0.0.1:8372"). Required.
	Self string
	// Peers are the other members' base URLs. The list plus Self forms
	// the (static) ring membership; order does not matter.
	Peers []string
	// Replicas is how many distinct owners each key has on the ring;
	// <= 0 means DefaultReplicas.
	Replicas int
	// Store is the artifact store to attach the peer exchange to.
	// Required. New installs the fetch hook on it.
	Store *artifact.Store
	// Codecs maps artifact kind -> codec for the wire (typically
	// pipeline.Codecs()). Required non-empty.
	Codecs map[string]artifact.Codec
	// Now is the wall clock (health-probe timestamps). Required by the
	// lint contract to be explicit; cmd/cuisined passes time.Now.
	Now func() time.Time
	// ProbeInterval is the health sweep period; <= 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout caps one liveness probe; <= 0 means
	// DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// FetchTimeout caps one peer artifact fetch; <= 0 means
	// DefaultFetchTimeout.
	FetchTimeout time.Duration
}

// Node is one cuisined's membership in the cluster: the ring, the
// health checker and the artifact exchange, bundled behind the few
// calls the server and daemon need.
type Node struct {
	self     string
	ring     *Ring
	health   *health
	exchange *exchange
	interval time.Duration
}

// New builds a Node and installs its peer fetcher on cfg.Store. The
// health loop is not started — the daemon calls the blocking Run
// itself (this package spawns no goroutines).
func New(cfg Config) (*Node, error) {
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	peers := make([]string, 0, len(cfg.Peers))
	seen := map[string]bool{self: true}
	for _, p := range cfg.Peers {
		u, err := normalizeURL(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", p, err)
		}
		if seen[u] { // tolerate self (and duplicates) in a fleet-wide shared -peers list
			continue
		}
		seen[u] = true
		peers = append(peers, u)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: Store is required")
	}
	if len(cfg.Codecs) == 0 {
		return nil, fmt.Errorf("cluster: Codecs is required")
	}
	if cfg.Now == nil {
		return nil, fmt.Errorf("cluster: Now is required")
	}
	interval := cfg.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	fetchTimeout := cfg.FetchTimeout
	if fetchTimeout <= 0 {
		fetchTimeout = DefaultFetchTimeout
	}
	h := newHealth(peers, cfg.ProbeTimeout, cfg.Now)
	ring := NewRing(append([]string{self}, peers...), cfg.Replicas)
	ex := &exchange{
		self:   self,
		client: &http.Client{Timeout: fetchTimeout},
		store:  cfg.Store,
		codecs: cfg.Codecs,
		ring:   ring,
		health: h,
	}
	n := &Node{
		self:     self,
		ring:     ring,
		health:   h,
		exchange: ex,
		interval: interval,
	}
	cfg.Store.SetFetcher(ex.fetch)
	return n, nil
}

func normalizeURL(s string) (string, error) {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s == "" {
		return "", fmt.Errorf("empty URL")
	}
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		return "", fmt.Errorf("%q must start with http:// or https://", s)
	}
	return s, nil
}

// Self returns this node's normalized base URL.
func (n *Node) Self() string { return n.self }

// Ring exposes the node's (immutable) consistent-hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Run is the blocking health loop: one sweep immediately, then one per
// ProbeInterval until ctx is done. The daemon runs it in a goroutine
// of its own (cmd/ is outside the nakedgo contract; this package is
// not).
func (n *Node) Run(ctx context.Context) {
	n.health.tick(ctx, false)
	t := time.NewTicker(n.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.health.tick(ctx, false)
		}
	}
}

// CheckNow forces one full health sweep, ignoring backoff. Tests (and
// anything that just changed the fleet) use it instead of waiting out
// the probe interval.
func (n *Node) CheckNow(ctx context.Context) { n.health.tick(ctx, true) }

// Route decides where a request keyed by key should be served:
// ("", true) to serve locally (this node owns the key, or no owner is
// reachable), or (ownerURL, false) to proxy. With replicas > 1 a node
// that is any live owner serves locally — it will hold or warm the
// artifacts — so replicas also spread request load, not just survival.
func (n *Node) Route(key string) (owner string, local bool) {
	owners := n.ring.Owners(key, n.exchange.aliveOrSelf)
	if len(owners) == 0 {
		return "", true
	}
	for _, o := range owners {
		if o == n.self {
			return "", true
		}
	}
	return owners[0], false
}

// Owners exposes the ring walk for key over currently-live members
// (self included). Tests and /v1/cluster use it.
func (n *Node) Owners(key string) []string {
	return n.ring.Owners(key, n.exchange.aliveOrSelf)
}

// Metrics returns a snapshot of the exchange counters.
func (n *Node) Metrics() Metrics { return n.exchange.metrics() }

// Peers returns the current health snapshot of every peer.
func (n *Node) Peers() []PeerStatus { return n.health.snapshot() }

// ServeArtifact answers the peer wire route (GET
// {ArtifactPathPrefix}{kind}/{key}) from the local store only.
func (n *Node) ServeArtifact(w http.ResponseWriter, r *http.Request) {
	n.exchange.serveArtifact(w, r)
}
