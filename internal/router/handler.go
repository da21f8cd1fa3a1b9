package router

// HTTP surface: the router serves the same JSON API as a single shard
// (internal/server), so clients need not know whether they talk to a
// monolith, one shard, or a routed fleet. Responses add partial/
// shard_errors fields when shards are down, and /healthz aggregates the
// fleet.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// Handler wraps a Router in the shard-compatible HTTP JSON API.
type Handler struct {
	r   *Router
	mux *http.ServeMux
}

// NewHandler builds the router's HTTP surface. Every endpoint is
// wrapped in its request counter and latency histogram; /metrics
// serves the registry itself and is deliberately left uninstrumented
// (scrapes should not pollute the series they read).
func NewHandler(r *Router) *Handler {
	h := &Handler{r: r, mux: http.NewServeMux()}
	h.handle("healthz", "/healthz", h.handleHealth)
	h.handle("schema", "/schema", h.handleSchema)
	h.handle("query", "/query", h.handleQuery)
	h.handle("interpret", "/interpret", h.handleInterpret)
	h.handle("evidence", "/evidence", h.handleEvidence)
	h.handle("topk", "/topk", h.handleTopK)
	h.handle("reviews", "/reviews", h.handleReviews)
	h.handle("repair", "/repair", h.handleRepair)
	h.handle("admin", "/admin/replicas", h.handleAdminReplicas)
	h.mux.Handle("/metrics", r.metrics.reg.Handler())
	if r.tracer != nil {
		h.mux.Handle("/debug/traces", r.tracer.TracesHandler())
	}
	h.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return h
}

// handle registers fn wrapped in the endpoint's counter and latency
// histogram. With tracing enabled this is the fleet's trace front door:
// the root span (or, for traced clients, the continuation of their
// trace) starts here, and the latency observation carries the trace id
// as an exemplar.
func (h *Handler) handle(endpoint, path string, fn http.HandlerFunc) {
	hist := h.r.metrics.requestSeconds[endpoint]
	total := h.r.metrics.requestsTotal[endpoint]
	h.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		total.Inc()
		t0 := time.Now()
		if c := h.r.tracer; c != nil {
			ctx := trace.Extract(r.Context(), r.Header)
			ctx, sp := c.Start(ctx, "router."+endpoint)
			sw := &server.StatusWriter{ResponseWriter: w}
			fn(sw, r.WithContext(ctx))
			sp.SetAttr("status", strconv.Itoa(sw.Status()))
			if sw.Status() >= http.StatusInternalServerError {
				sp.SetError(http.StatusText(sw.Status()))
			}
			sp.End()
			hist.ObserveSinceWithExemplar(t0, sp.Trace)
			return
		}
		fn(w, r)
		hist.ObserveSince(t0)
	})
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// requireMethod guards an endpoint's verb set, emitting the JSON error
// envelope on mismatch. HEAD is accepted wherever GET is (net/http strips
// the body), keeping health probes working.
func requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m || (m == http.MethodGet && r.Method == http.MethodHead) {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	server.WriteError(w, http.StatusMethodNotAllowed, "use %s", strings.Join(methods, " or "))
	return false
}

// RouterHealthResponse is the router's /healthz payload.
type RouterHealthResponse struct {
	// Status is "ok" with every node live and in the pick, "degraded"
	// otherwise — a probe failure OR an ejection degrades the fleet,
	// so a hedged-around brownout can no longer hide behind green
	// probes.
	Status string `json:"status"`
	// Role distinguishes the router from a shard server's /healthz.
	Role string `json:"role"`
	// Shards is the number of shard ranges; Nodes the fleet's total
	// backend count (every replica of every range). Shard carries one
	// probe entry per node.
	Shards   int `json:"shards"`
	Nodes    int `json:"nodes,omitempty"`
	Entities int `json:"entities"`
	// Degraded rolls the per-node state up: true when any probe failed
	// or any replica is currently ejected from the pick. EjectedNodes
	// counts the replicas sitting out.
	Degraded     bool          `json:"degraded,omitempty"`
	EjectedNodes int           `json:"ejected_nodes,omitempty"`
	Shard        []ShardHealth `json:"shard"`
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	ok, nodes := h.r.Health(r.Context())
	resp := RouterHealthResponse{Status: "ok", Role: "router", Shards: h.r.NumShards(), Shard: nodes}
	if h.r.NumNodes() > h.r.NumShards() {
		resp.Nodes = h.r.NumNodes()
	}
	// Entities counts each range once — replicas serve copies of the same
	// entities, not more of them. The first live replica of each range
	// speaks for it.
	counted := map[int]bool{}
	for _, s := range nodes {
		if s.OK && !counted[s.Index] {
			counted[s.Index] = true
			resp.Entities += s.Entities
		}
		if s.Ejected {
			resp.EjectedNodes++
		}
	}
	resp.Degraded = !ok || resp.EjectedNodes > 0
	if resp.Degraded {
		resp.Status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleSchema(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp, err := h.r.Schema(r.Context())
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Decoding is shared with the shard servers (server.DecodeQueryRequest),
	// so the two tiers accept and reject exactly the same requests.
	req, err := server.DecodeQueryRequest(r)
	if err != nil {
		if errors.Is(err, server.ErrQueryMethod) {
			// Shard servers 405 everything but GET/POST here (including
			// HEAD — /query is not a probe target); mirror them exactly
			// rather than using requireMethod's HEAD-as-GET leniency.
			w.Header().Set("Allow", "GET, POST")
			server.WriteError(w, http.StatusMethodNotAllowed, "%v", err)
		} else {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	res, err := h.r.Query(r.Context(), req.SQL, req.K)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, ErrBadQuery) {
			status = http.StatusBadRequest
		}
		server.WriteError(w, status, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

func (h *Handler) handleInterpret(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	pred, err := server.DecodeInterpretRequest(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, cached, err := h.r.InterpretChain(r.Context(), pred)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	// Surface the front-door memo cache's behavior: interpretation state
	// is replicated, so the router may answer without a shard hop.
	verdict := "miss"
	if cached {
		verdict = "hit"
	}
	hits, misses := h.r.InterpretCacheStats()
	w.Header().Set("X-Interpret-Cache", verdict)
	w.Header().Set("X-Interpret-Cache-Hits", strconv.FormatUint(hits, 10))
	w.Header().Set("X-Interpret-Cache-Misses", strconv.FormatUint(misses, 10))
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleRepair is the operator trigger for one fleet-wide anti-entropy
// pass (see internal/fleet): diff journal positions, backfill laggards,
// report per-node outcomes.
func (h *Handler) handleRepair(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	report, err := h.r.RunRepair(r.Context())
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, report)
}

// handleAdminReplicas is the replica lifecycle surface. POST joins a
// fresh node into a range's replica set (two-phase catch-up with a
// byte-identity gate — Router.AdmitReplica); DELETE retires one
// (drain-then-remove — Router.RetireReplica).
func (h *Handler) handleAdminReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req struct {
			Shard int    `json:"shard"`
			URL   string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			server.WriteError(w, http.StatusBadRequest, "bad join request: %v", err)
			return
		}
		if req.URL == "" {
			server.WriteError(w, http.StatusBadRequest, "join needs the new replica's base url")
			return
		}
		report, err := h.r.AdmitReplica(r.Context(), req.Shard, &HTTPBackend{BaseURL: req.URL})
		if err != nil {
			server.WriteError(w, http.StatusBadGateway, "%v", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, report)
	case http.MethodDelete:
		shard, err1 := strconv.Atoi(r.URL.Query().Get("shard"))
		idx, err2 := strconv.Atoi(r.URL.Query().Get("replica"))
		if err1 != nil || err2 != nil {
			server.WriteError(w, http.StatusBadRequest, "retire needs integer shard and replica query parameters")
			return
		}
		report, err := h.r.RetireReplica(r.Context(), shard, idx)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, report)
	default:
		w.Header().Set("Allow", "POST, DELETE")
		server.WriteError(w, http.StatusMethodNotAllowed, "use POST to join or DELETE to retire")
	}
}

func (h *Handler) handleEvidence(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	// limit stays -1 when unspecified: the owning shard applies its
	// default, keeping the two tiers identical for the same request.
	entity, attribute, limit, err := server.DecodeEvidenceRequest(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := h.r.Evidence(r.Context(), entity, attribute, limit)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	// Pass the owning shard's status and body through verbatim.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}

// handleReviews is the fleet's write front door: decode exactly as a
// shard would, route owner-first with replication (Router.AddReview), and
// pass deliberate shard rejections through verbatim.
func (h *Handler) handleReviews(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	req, err := server.DecodeReviewRequest(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := h.r.AddReview(r.Context(), req)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			if se.Heal != nil {
				// A duplicate write's retry doubles as replication healing;
				// merge the fan-out outcome into the rejection envelope so
				// the client can tell convergence from continued partiality.
				var env map[string]interface{}
				if json.Unmarshal(se.Body, &env) != nil || env == nil {
					env = map[string]interface{}{}
				}
				env["owner_shard"] = se.Heal.OwnerShard
				env["replicated"] = se.Heal.Replicated
				if len(se.Heal.Healed) > 0 {
					env["healed"] = se.Heal.Healed
				}
				if se.Heal.Partial {
					env["partial"] = true
					env["shard_errors"] = se.Heal.ShardErrors
				}
				server.WriteJSON(w, se.Status, env)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(se.Status)
			_, _ = w.Write(se.Body)
			return
		}
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

func (h *Handler) handleTopK(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	preds, k, err := server.DecodeTopKRequest(r, h.r.defaultK)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := h.r.TopK(r.Context(), preds, k)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, ErrBadQuery) {
			status = http.StatusBadRequest
		}
		server.WriteError(w, status, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}
