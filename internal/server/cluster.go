package server

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"cuisines"
)

// HopHeader marks a request that has already made its one proxy hop:
// a node receiving it always serves locally, so misrouted requests
// (stale health views on two nodes) degrade to one extra hop, never a
// proxy loop. Clients may set it themselves to pin local serving —
// the cluster tests and CI's cluster smoke do, to exercise the peer
// artifact exchange rather than request routing.
const HopHeader = "X-Cuisined-Hop"

// RoutingKey derives the cluster routing key for opts: the canonical
// options with the output-neutral knobs zeroed (same equivalence class
// as the analysis cache key), rendered to a stable string for the
// ring. Requests differing only in workers land on the same owner and share its warm analysis.
func RoutingKey(opts cuisines.Options) (string, error) {
	key, err := Key(opts)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("analysis|%+v", key), nil
}

// proxyStats counts request routing outcomes (the exchange-level
// counters live on the cluster node itself).
type proxyStats struct {
	proxied   atomic.Uint64 // requests forwarded to a ring owner
	fallbacks atomic.Uint64 // forwards that failed transport-level and ran locally
}

// maybeProxy applies consistent-hash routing: when the request's
// analysis key is owned by another live node (and the request has not
// already hopped), it is forwarded there and the response relayed
// back. A false return means the caller should serve locally — either
// this node owns the key, the fleet is down (degrade to local
// compute), or the owner died mid-request (transport failure; the
// response is untouched, so local serving still works).
func (s *Server) maybeProxy(w http.ResponseWriter, r *http.Request, opts cuisines.Options) bool {
	if s.cluster == nil || r.Header.Get(HopHeader) != "" {
		return false
	}
	key, err := RoutingKey(opts)
	if err != nil {
		return false // requestOptions already validated; be safe anyway
	}
	owner, local := s.cluster.Route(key)
	if local {
		return false
	}
	if !s.forward(w, r, owner) {
		s.proxy.fallbacks.Add(1)
		return false
	}
	s.proxy.proxied.Add(1)
	return true
}

// forward relays the request to owner with the hop header set. It
// writes nothing until the owner's response header arrives, so a
// transport failure leaves the ResponseWriter clean for the local
// fallback. Whatever the owner answered — including 4xx/5xx — is
// relayed verbatim: the owner ran the authoritative compute, and a
// local retry would at best duplicate its work.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, owner string) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, owner+r.URL.RequestURI(), nil)
	if err != nil {
		return false
	}
	req.Header.Set(HopHeader, "1")
	// The conditional-request and negotiation headers travel with the
	// request so the owner can answer 304 or serve its gzip variant;
	// the response's validator and encoding come back untouched (the
	// proxy client never transcodes, see DisableCompression). The
	// determinism invariant makes this safe end-to-end: every node
	// derives byte-identical bodies, so ETags agree fleet-wide.
	for _, h := range []string{"If-None-Match", "Accept-Encoding"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{
		"Content-Type", "Retry-After",
		"ETag", "Cache-Control", "Vary", "Content-Encoding", "Content-Length",
	} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// handlePing answers the peer liveness probe. Registered even without
// a cluster: a lone node probed by a misconfigured fleet should look
// alive, not 404.
func (s *Server) handlePing(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusNoContent)
}

// handleCluster reports this node's cluster view (/v1/cluster).
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, cuisines.ClusterResponse{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, s.clusterResponse())
}

func (s *Server) clusterResponse() cuisines.ClusterResponse {
	n := s.cluster
	m := n.Metrics()
	resp := cuisines.ClusterResponse{
		Enabled:  true,
		Self:     n.Self(),
		Members:  n.Ring().Members(),
		Replicas: n.Ring().Replicas(),
		Exchange: cuisines.ClusterExchangeStats{
			FetchAttempts:    m.FetchAttempts,
			FetchHits:        m.FetchHits,
			FetchMisses:      m.FetchMisses,
			FetchErrors:      m.FetchErrors,
			FetchRejects:     m.FetchRejects,
			ServeHits:        m.ServeHits,
			ServeMisses:      m.ServeMisses,
			ServeDisk:        m.ServeDisk,
			ServeMemory:      m.ServeMemory,
			ServeDiskRejects: m.ServeDiskRejects,
		},
		Proxied:        s.proxy.proxied.Load(),
		ProxyFallbacks: s.proxy.fallbacks.Load(),
	}
	for _, p := range n.Peers() {
		resp.Peers = append(resp.Peers, cuisines.ClusterPeer{
			URL:       p.URL,
			Healthy:   p.Healthy,
			Failures:  p.Failures,
			LastErr:   p.LastErr,
			LastProbe: p.LastProbe,
		})
	}
	return resp
}

// clusterFamilies is the cluster part of /metrics: the exchange
// counters and one health gauge per peer.
func (s *Server) clusterFamilies() []family {
	if s.cluster == nil {
		return nil
	}
	m := s.cluster.Metrics()
	healthy := gauge("cuisined_peer_healthy", "Peer liveness as seen by this node's health checker.")
	for _, p := range s.cluster.Peers() {
		v := 0
		if p.Healthy {
			v = 1
		}
		healthy.samples = append(healthy.samples, val(v, "peer", p.URL))
	}
	return []family{
		counter("cuisined_peer_fetch_total", "Peer artifact fetches issued by this node, by result.",
			val(m.FetchHits, "result", "hit"),
			val(m.FetchMisses, "result", "miss"),
			val(m.FetchErrors, "result", "error"),
			val(m.FetchRejects, "result", "reject")),
		counter("cuisined_peer_serve_total", "Peer artifact requests answered by this node, by result.",
			val(m.ServeHits, "result", "hit"),
			val(m.ServeMisses, "result", "miss")),
		counter("cuisined_peer_serve_source_total", "Peer artifact GETs answered by this node, by the tier that produced the frame.",
			val(m.ServeDisk, "source", "disk"),
			val(m.ServeMemory, "source", "memory")),
		counter("cuisined_peer_serve_disk_rejects_total", "Local disk frames that failed verification while serving a peer.", val(m.ServeDiskRejects)),
		counter("cuisined_proxied_requests_total", "Requests forwarded to their ring owner.", val(s.proxy.proxied.Load())),
		counter("cuisined_proxy_fallbacks_total", "Forwards that failed transport-level and were served locally.", val(s.proxy.fallbacks.Load())),
		healthy,
	}
}
