// Package server puts an HTTP JSON serving surface in front of a built
// subjective database. The query path of a built core.DB is safe for
// unlimited concurrent readers (see internal/core's package doc), so the
// server dispatches every request straight into the engine with no
// serialization — the process serves as many parallel subjective queries
// as the hardware allows.
//
// Endpoints (mirroring cmd/opinedb's subcommands):
//
//	GET  /healthz                       liveness + database shape
//	GET  /schema                        subjective attributes and markers
//	POST /query                         {"sql": ..., "k": ...} → ranked rows
//	GET  /query?sql=...&k=...           same, for quick curls
//	GET  /interpret?predicate=...       Figure 5 interpretation chain
//	GET  /evidence?entity=&attribute=   marker summary with provenance
//	GET  /topk?predicate=...&k=...      Threshold-Algorithm top-k
//	POST /reviews                       ingest one review (journaled live enrichment)
//	GET  /journal/status                journal position + prefix hash (anti-entropy)
//	GET  /journal/records?from=&limit=  stream journal records (anti-entropy backfill)
//	GET  /metrics                       Prometheus text exposition (see metrics.go)
//
// Every response is JSON; errors are {"error": "..."} with a 4xx/5xx
// status.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/trace"
)

// SnapshotInfo describes the snapshot artifact a server was loaded from;
// it is reported verbatim by /healthz so a fleet operator can confirm
// every replica serves the same build. The daemon fills it from
// snapshot.Meta; the server package stays decoupled from the snapshot
// format itself.
type SnapshotInfo struct {
	Path          string  `json:"path"`
	FormatVersion uint32  `json:"format_version"`
	BuildSeed     int64   `json:"build_seed"`
	Entities      int     `json:"entities"`
	Reviews       int     `json:"reviews"`
	Extractions   int     `json:"extractions"`
	FileBytes     int64   `json:"file_bytes"`
	LoadMillis    float64 `json:"load_ms"`
	// Shard identifies the entity partition when the process serves one
	// shard of a sharded build; nil for a monolithic snapshot.
	Shard *ShardInfo `json:"shard,omitempty"`
}

// ShardInfo is the shard identity reported by a shard replica's /healthz.
type ShardInfo struct {
	Index         int    `json:"index"`
	Count         int    `json:"count"`
	Entities      int    `json:"entities"`
	TotalEntities int    `json:"total_entities"`
	FirstEntity   string `json:"first_entity"`
	LastEntity    string `json:"last_entity"`
}

// IngestOptions enable the POST /reviews write endpoint: live incremental
// enrichment of a serving database (§4.2.2's "the marker summaries can be
// incrementally computed", journaled for durability).
type IngestOptions struct {
	// AppendBatch journals a whole commit batch before it is applied —
	// the journal's append-then-apply contract: once the client is acked,
	// a crash replays the delta from the journal. Records land in order,
	// one fsync covers the batch, and the first record's sequence is
	// returned (the batch is seq, seq+1, ...). The call must be atomic —
	// every record journaled and durable, or none — which
	// journal.Journal.AppendBatch guarantees; JournalAppendBatch adapts
	// one. nil ingests without journaling (volatile: test and
	// in-process-build servers).
	AppendBatch func(rvs []core.ReviewData) (firstSeq uint64, err error)
	// MaxQueueDepth bounds the staged commit queue; a write arriving at a
	// full queue is refused with 503 + Retry-After instead of growing the
	// backlog without bound. <= 0 means DefaultCommitQueueDepth.
	MaxQueueDepth int
	// AcceptUnowned accepts router-replicated writes (ReviewRequest.
	// Replica) for entities this instance does not serve. Shard replicas
	// set it: a replicated write for another shard's entity still updates
	// the corpus-global model state (review index, sentiment and
	// co-occurrence statistics) that keeps interpretations byte-identical
	// fleet-wide. Direct writes for unserved entities are 404 regardless,
	// so ghosts are rejected by the range owner before anything mutates.
	AcceptUnowned bool
	// JournalDir, when non-empty, exposes the node's journal introspection
	// surface — GET /journal/status and GET /journal/records — and the
	// journal position in /healthz. It is the one surface operators and
	// the anti-entropy repair loop (internal/fleet) share: the status
	// reports how far this node's fleet-ordered delta log reaches and a
	// prefix hash over it, and the records endpoint streams the tail a
	// lagging peer needs. Empty for volatile (unjournaled) ingestion.
	JournalDir string
	// JournalLastSeq seeds the last-applied sequence reported by /healthz:
	// the sequence of the final journal record replayed at load. The
	// server advances it as /reviews appends.
	JournalLastSeq uint64
}

// Options configure a Server.
type Options struct {
	// EntityName, when non-nil, resolves an entity id to a display name
	// included in query results (e.g. the generated hotel name).
	EntityName func(id string) string
	// DefaultTopK caps rankings when a request does not specify k.
	// 0 means core's default of 10.
	DefaultTopK int
	// Snapshot, when non-nil, records that the database was loaded from a
	// snapshot artifact rather than built in process; /healthz reports it.
	Snapshot *SnapshotInfo
	// Ingest, when non-nil, enables POST /reviews. Without it the server
	// is read-only and /reviews answers 403.
	Ingest *IngestOptions
	// Metrics, when non-nil, is the registry GET /metrics renders and
	// every instrument feeds; nil creates a private one. A single-process
	// fleet passes one shared registry to every shard and the router so
	// one scrape sees the whole deployment.
	Metrics *obs.Registry
	// Trace, when non-nil, records a span per request (continuing a trace
	// propagated in X-Opinedb-Trace/X-Opinedb-Span headers) plus the
	// group-commit pipeline stages, and serves GET /debug/traces. nil
	// disables tracing at zero cost. A single-process fleet passes one
	// shared collector so router and shard spans land in one trace store.
	Trace *trace.Collector
}

// Server is an http.Handler serving one built subjective database.
//
// Locking: the engine's read path needs no coordination, but live
// ingestion mutates the database, so the server holds a stop-the-world
// RWMutex — every read handler runs under RLock. A /reviews write takes
// no lock while it prepares the review, stages it, and (as the group-
// commit leader) journals and fsyncs the batch; only the fold in
// commitBatch, which applies the batch to the database, takes the
// exclusive lock (see groupcommit.go). With ingestion disabled the
// RLocks are uncontended and the server behaves exactly as the
// lock-free reader it used to be.
type Server struct {
	db      *core.DB
	opts    Options
	mux     *http.ServeMux
	started time.Time
	// mu is the reader/writer exclusion around db. See the type comment.
	mu sync.RWMutex
	// appliedSeq is the journal sequence of the last applied review
	// (guarded by mu): seeded from the load-time replay, advanced by
	// /reviews. /healthz and /journal/status report it.
	appliedSeq uint64
	// metrics backs GET /metrics; always non-nil after New.
	metrics *serverMetrics
	// ph is the journal's in-memory prefix-hash chain, built lazily on
	// the first /journal/status or journaled append and extended under
	// the write lock. It makes every prefix-hash probe O(1) instead of a
	// segment rescan. Stored atomically: a chain that desyncs (never in
	// normal operation) is dropped to nil and the handlers fall back to
	// on-disk scans.
	phInit sync.Once
	ph     atomic.Pointer[journal.PrefixHashes]
	// cq is the group-commit staging queue (see groupcommit.go): /reviews
	// handlers stage prepared deltas here and one of them — the leader —
	// drains, journals and applies the batch with a single shared fsync.
	cq commitQueue
}

// New wraps a built database in an HTTP serving surface. The database
// must not be mutated by anyone else (ApplyReview, RebuildSummaries, ...)
// while the server is accepting traffic; the only supported mutation path
// is the server's own /reviews endpoint, which serializes against every
// reader through the server's lock.
func New(db *core.DB, opts Options) *Server {
	s := &Server{db: db, opts: opts, mux: http.NewServeMux(), started: time.Now()}
	if opts.Ingest != nil {
		s.appliedSeq = opts.Ingest.JournalLastSeq
		s.cq.depth = opts.Ingest.MaxQueueDepth
		if s.cq.depth <= 0 {
			s.cq.depth = DefaultCommitQueueDepth
		}
	}
	s.metrics = newServerMetrics(opts.Metrics)
	s.metrics.appliedSeq.Set(float64(s.appliedSeq))
	s.mux.HandleFunc("/healthz", s.timed("healthz", s.read(get(s.handleHealth))))
	s.mux.HandleFunc("/schema", s.timed("schema", s.read(get(s.handleSchema))))
	s.mux.HandleFunc("/query", s.timed("query", s.read(s.handleQuery)))
	s.mux.HandleFunc("/interpret", s.timed("interpret", s.read(get(s.handleInterpret))))
	s.mux.HandleFunc("/evidence", s.timed("evidence", s.read(get(s.handleEvidence))))
	s.mux.HandleFunc("/topk", s.timed("topk", s.read(get(s.handleTopK))))
	s.mux.HandleFunc("/reviews", s.timed("reviews", buffered(s.handleReviews)))
	s.mux.HandleFunc("/journal/status", s.timed("journal_status", s.read(get(s.handleJournalStatus))))
	s.mux.HandleFunc("/journal/records", s.timed("journal_records", s.read(get(s.handleJournalRecords))))
	// The scrape endpoint deliberately bypasses the server lock: it reads
	// only atomics, so metrics stay observable even mid-ingest.
	s.mux.Handle("/metrics", s.metrics.reg.Handler())
	if opts.Trace != nil {
		// The trace store bypasses the server lock the same way.
		s.mux.Handle("/debug/traces", opts.Trace.TracesHandler())
	}
	// Unknown paths get the JSON error envelope too, not the mux's
	// plain-text 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return s
}

// read runs a handler under the reader half of the server's lock.
func (s *Server) read(h http.HandlerFunc) http.HandlerFunc {
	return buffered(func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		h(w, r)
	})
}

// buffered composes a handler's response in memory and flushes it to the
// client only after the handler — and therefore any lock it holds —
// returns. Without it, a handler holding (R)Lock across a write to a
// slow client would stall the lock: sync.RWMutex blocks new readers once
// a writer waits, so one stalled connection plus one pending ingest
// would freeze every endpoint, health probes included.
func buffered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := NewResponseBuffer()
		h(buf, r)
		dst := w.Header()
		for k, v := range buf.header {
			dst[k] = v
		}
		w.WriteHeader(buf.Status())
		_, _ = w.Write(buf.Bytes())
	}
}

// get wraps a read-only handler with a 405 + JSON envelope for every verb
// other than GET and HEAD (HEAD stays allowed — net/http strips the body —
// so load-balancer health probes keep working). Every response this
// server writes — success or failure — is a JSON document with a status
// code that matches it.
func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			WriteError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		h(w, r)
	}
}

// DecodeJSONBody strictly decodes one JSON document into out: unknown
// fields, syntax errors, wrong types and trailing garbage all yield a
// descriptive error (handlers turn it into a 400 envelope) instead of a
// silently half-parsed request.
func DecodeJSONBody(r *http.Request, out interface{}) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON body")
	}
	return nil
}

// ErrQueryMethod is returned by DecodeQueryRequest for a verb other than
// GET or POST; handlers map it to 405 with an Allow header.
var ErrQueryMethod = errors.New("use GET or POST")

// DecodeQueryRequest parses a /query request — strict-JSON POST body or
// GET query parameters — including the missing-sql check. It is shared by
// the shard server and the router so the two tiers accept and reject
// exactly the same requests.
func DecodeQueryRequest(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		if err := DecodeJSONBody(r, &req); err != nil {
			return req, fmt.Errorf("bad request body: %v", err)
		}
	case http.MethodGet:
		req.SQL = r.URL.Query().Get("sql")
		if ks := r.URL.Query().Get("k"); ks != "" {
			k, err := strconv.Atoi(ks)
			if err != nil {
				return req, fmt.Errorf("bad k: %v", err)
			}
			req.K = k
		}
	default:
		return req, ErrQueryMethod
	}
	if strings.TrimSpace(req.SQL) == "" {
		return req, fmt.Errorf("missing sql")
	}
	return req, nil
}

// DecodeTopKRequest parses /topk parameters: the repeatable predicate
// plus k (defaultK when absent). Shared by the shard server and the
// router so both tiers accept and reject exactly the same requests.
func DecodeTopKRequest(r *http.Request, defaultK int) (predicates []string, k int, err error) {
	predicates = r.URL.Query()["predicate"]
	if len(predicates) == 0 {
		return nil, 0, fmt.Errorf("missing predicate (repeatable)")
	}
	k = defaultK
	if k <= 0 {
		k = 10
	}
	if ks := r.URL.Query().Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 {
			return nil, 0, fmt.Errorf("bad k")
		}
	}
	return predicates, k, nil
}

// DecodeEvidenceRequest parses /evidence parameters. limit is -1 when the
// request does not specify one (callers apply their default). Shared by
// the shard server and the router.
func DecodeEvidenceRequest(r *http.Request) (entity, attribute string, limit int, err error) {
	entity = r.URL.Query().Get("entity")
	attribute = r.URL.Query().Get("attribute")
	if entity == "" || attribute == "" {
		return "", "", 0, fmt.Errorf("missing entity or attribute")
	}
	limit = -1
	if ls := r.URL.Query().Get("limit"); ls != "" {
		l, lerr := strconv.Atoi(ls)
		if lerr != nil || l < 0 {
			return "", "", 0, fmt.Errorf("bad limit")
		}
		limit = l
	}
	return entity, attribute, limit, nil
}

// DecodeInterpretRequest parses /interpret's predicate parameter
// (surrounding quotes tolerated). Shared by the shard server and the
// router.
func DecodeInterpretRequest(r *http.Request) (string, error) {
	pred := strings.Trim(r.URL.Query().Get("predicate"), `"' `)
	if pred == "" {
		return "", fmt.Errorf("missing predicate")
	}
	return pred, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// WriteJSON emits one JSON response.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError emits {"error": msg}.
func WriteError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// HealthResponse is the /healthz payload: liveness, database shape, and
// provenance — whether the process built its database in memory or loaded
// a snapshot artifact, and if so which one.
type HealthResponse struct {
	Status        string  `json:"status"`
	Database      string  `json:"database"`
	Entities      int     `json:"entities"`
	Extractions   int     `json:"extractions"`
	Attributes    int     `json:"attributes"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Source is "snapshot" when the database was loaded from an artifact,
	// "built" when constructed in process.
	Source string `json:"source"`
	// Snapshot carries the artifact metadata when Source is "snapshot".
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	// Journal reports the node's position in the fleet-ordered delta log
	// when journaled ingestion is enabled — the same introspection surface
	// the anti-entropy repair loop reads through /journal/status.
	Journal *JournalHealth `json:"journal,omitempty"`
}

// JournalHealth is the /healthz journal-position report.
type JournalHealth struct {
	// LastAppliedSeq is the journal sequence of the last review applied to
	// the serving database (replayed at load or ingested since).
	LastAppliedSeq uint64 `json:"last_applied_seq"`
	// Segments is the number of on-disk journal segment files.
	Segments int `json:"segments"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	source := "built"
	if s.opts.Snapshot != nil {
		source = "snapshot"
	}
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Database:      s.db.Name,
		Entities:      len(s.db.EntityIDs()),
		Extractions:   len(s.db.Extractions),
		Attributes:    len(s.db.Attrs),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Source:        source,
		Snapshot:      s.opts.Snapshot,
		Journal:       s.journalHealth(),
	})
}

// MarkerJSON is one marker of a subjective attribute.
type MarkerJSON struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	Sentiment float64 `json:"sentiment"`
}

// AttributeJSON is one subjective attribute of the schema.
type AttributeJSON struct {
	Name          string       `json:"name"`
	Categorical   bool         `json:"categorical"`
	DomainPhrases int          `json:"domain_phrases"`
	Markers       []MarkerJSON `json:"markers"`
}

// SchemaResponse is the /schema payload.
type SchemaResponse struct {
	Database   string          `json:"database"`
	Attributes []AttributeJSON `json:"attributes"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	resp := SchemaResponse{Database: s.db.Name}
	for _, a := range s.db.Attrs {
		aj := AttributeJSON{
			Name:          a.Name,
			Categorical:   a.Categorical,
			DomainPhrases: len(a.DomainPhrases),
		}
		for i, m := range a.Markers {
			aj.Markers = append(aj.Markers, MarkerJSON{Index: i, Name: m.Name, Sentiment: m.Sentiment})
		}
		resp.Attributes = append(resp.Attributes, aj)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	K   int    `json:"k"`
}

// InterpretationJSON renders one predicate interpretation.
type InterpretationJSON struct {
	Predicate     string   `json:"predicate"`
	Method        string   `json:"method"`
	Rendered      string   `json:"rendered"`
	Terms         []string `json:"terms,omitempty"`
	Disjunction   bool     `json:"disjunction,omitempty"`
	MatchedPhrase string   `json:"matched_phrase,omitempty"`
	Similarity    float64  `json:"similarity"`
}

func interpretationJSON(in core.Interpretation) InterpretationJSON {
	out := InterpretationJSON{
		Predicate:     in.Predicate,
		Method:        string(in.Method),
		Rendered:      in.String(),
		Disjunction:   in.Disjunction,
		MatchedPhrase: in.MatchedPhrase,
		Similarity:    in.Similarity,
	}
	for _, t := range in.Terms {
		out.Terms = append(out.Terms, t.String())
	}
	return out
}

// RowJSON is one ranked entity.
type RowJSON struct {
	EntityID        string             `json:"entity_id"`
	Name            string             `json:"name,omitempty"`
	Score           float64            `json:"score"`
	PredicateScores map[string]float64 `json:"predicate_scores,omitempty"`
}

// QueryResponse is the /query payload.
type QueryResponse struct {
	Rewritten       string                        `json:"rewritten"`
	Interpretations map[string]InterpretationJSON `json:"interpretations"`
	Rows            []RowJSON                     `json:"rows"`
	ElapsedMs       float64                       `json:"elapsed_ms"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeQueryRequest(r)
	if err != nil {
		if errors.Is(err, ErrQueryMethod) {
			w.Header().Set("Allow", "GET, POST")
			WriteError(w, http.StatusMethodNotAllowed, "%v", err)
		} else {
			WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	opts := core.DefaultQueryOptions()
	if s.opts.DefaultTopK > 0 {
		opts.TopK = s.opts.DefaultTopK
	}
	if req.K > 0 {
		opts.TopK = req.K
	}
	start := time.Now()
	res, err := s.db.QueryWithOptions(req.SQL, opts)
	s.metrics.engineQuery.ObserveSince(start)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	resp := QueryResponse{
		Rewritten:       res.Rewritten,
		Interpretations: map[string]InterpretationJSON{},
		Rows:            []RowJSON{},
		ElapsedMs:       float64(time.Since(start).Microseconds()) / 1000,
	}
	for text, in := range res.Interpretations {
		resp.Interpretations[text] = interpretationJSON(in)
	}
	for _, row := range res.Rows {
		rj := RowJSON{EntityID: row.EntityID, Score: row.Score, PredicateScores: row.PredicateScores}
		if s.opts.EntityName != nil {
			rj.Name = s.opts.EntityName(row.EntityID)
		}
		resp.Rows = append(resp.Rows, rj)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// InterpretResponse is the /interpret payload: the chosen interpretation
// plus the per-stage diagnostics cmd/opinedb's \interpret prints.
type InterpretResponse struct {
	Chosen      InterpretationJSON `json:"chosen"`
	W2VOnly     InterpretationJSON `json:"w2v_only"`
	CooccurOnly InterpretationJSON `json:"cooccur_only"`
}

func (s *Server) handleInterpret(w http.ResponseWriter, r *http.Request) {
	pred, err := DecodeInterpretRequest(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, InterpretResponse{
		Chosen:      interpretationJSON(s.db.Interpret(pred)),
		W2VOnly:     interpretationJSON(s.db.InterpretW2VOnly(pred)),
		CooccurOnly: interpretationJSON(s.db.InterpretCooccurOnly(pred)),
	})
}

// EvidenceExtraction is one provenance record.
type EvidenceExtraction struct {
	ReviewID string `json:"review_id"`
	Aspect   string `json:"aspect,omitempty"`
	Phrase   string `json:"phrase"`
}

// EvidenceMarker is one marker row of an evidence response.
type EvidenceMarker struct {
	Index        int                  `json:"index"`
	Name         string               `json:"name"`
	Count        float64              `json:"count"`
	AvgSentiment float64              `json:"avg_sentiment"`
	Extractions  []EvidenceExtraction `json:"extractions,omitempty"`
}

// EvidenceResponse is the /evidence payload: the marker summary of one
// (entity, attribute) pair with the reviews backing each marker — the
// paper's "any result returned can be supported with evidence from the
// reviews".
type EvidenceResponse struct {
	EntityID  string           `json:"entity_id"`
	Attribute string           `json:"attribute"`
	Total     float64          `json:"total"`
	Markers   []EvidenceMarker `json:"markers"`
}

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	entity, attribute, limit, err := DecodeEvidenceRequest(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if limit < 0 {
		limit = 3
	}
	attr := s.db.Attr(attribute)
	if attr == nil {
		WriteError(w, http.StatusNotFound, "no attribute %q", attribute)
		return
	}
	sum := s.db.Summary(attribute, entity)
	if sum == nil {
		WriteError(w, http.StatusNotFound, "no summary for %s/%s", entity, attribute)
		return
	}
	resp := EvidenceResponse{EntityID: entity, Attribute: attribute, Total: sum.Total}
	for i, m := range attr.Markers {
		em := EvidenceMarker{
			Index:        i,
			Name:         m.Name,
			Count:        sum.Counts[i],
			AvgSentiment: sum.AvgSentiment(i),
		}
		for j, ext := range s.db.ProvenanceOf(attribute, entity, i) {
			if j >= limit {
				break
			}
			em.Extractions = append(em.Extractions, EvidenceExtraction{
				ReviewID: ext.ReviewID, Aspect: ext.Aspect, Phrase: ext.Phrase,
			})
		}
		resp.Markers = append(resp.Markers, em)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// TopKResponse is the /topk payload.
type TopKResponse struct {
	Rows           []RowJSON `json:"rows"`
	SortedAccesses int       `json:"sorted_accesses"`
	Depth          int       `json:"depth"`
	Candidates     int       `json:"candidates"`
	ElapsedMs      float64   `json:"elapsed_ms"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	// Same default as /query: the operator's -k flag, else 10 — so a
	// shard, a monolith and the router answer a no-k request identically.
	preds, k, err := DecodeTopKRequest(r, s.opts.DefaultTopK)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	rows, stats, err := s.db.TopKThreshold(preds, k)
	s.metrics.engineTopK.ObserveSince(start)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "topk: %v", err)
		return
	}
	resp := TopKResponse{
		Rows:           []RowJSON{},
		SortedAccesses: stats.SortedAccesses,
		Depth:          stats.Depth,
		Candidates:     stats.Candidates,
		ElapsedMs:      float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, row := range rows {
		rj := RowJSON{EntityID: row.EntityID, Score: row.Score}
		if s.opts.EntityName != nil {
			rj.Name = s.opts.EntityName(row.EntityID)
		}
		resp.Rows = append(resp.Rows, rj)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ReviewRequest is the POST /reviews body: one raw review to ingest.
type ReviewRequest struct {
	ID       string `json:"id"`
	EntityID string `json:"entity"`
	Reviewer string `json:"reviewer"`
	Day      int    `json:"day"`
	Text     string `json:"text"`
	// Replica marks a router-replicated write: the receiving shard should
	// absorb the corpus-global state even though it does not serve the
	// entity. Only honored when the server was configured with
	// IngestOptions.AcceptUnowned; a direct (non-replica) write for an
	// unserved entity is always a 404, so a client cannot bypass the
	// router's owner-first ordering and ghost-entity rejection.
	Replica bool `json:"replica,omitempty"`
}

// ReviewResponse acknowledges one ingested review.
type ReviewResponse struct {
	ReviewID string `json:"review_id"`
	EntityID string `json:"entity_id"`
	// Owned is true when this instance serves the entity and therefore
	// materialized its marker-summary update; false on a shard replica
	// that only absorbed the corpus-global state of a replicated write.
	Owned bool `json:"owned"`
	// Extractions is how many opinions the extractor materialized from
	// the review on this instance.
	Extractions int `json:"extractions"`
	// Seq is the journal sequence number assigned to this review. Always
	// present: 0 means the server ingests without a journal (volatile),
	// never "field omitted" — clients must be able to tell the two apart.
	Seq uint64 `json:"seq"`
	// Durable is true iff the review was journaled: AppendBatch fsyncs
	// every batch before any of its acknowledgements is written. False
	// only on volatile (journal-less) ingestion.
	Durable bool `json:"durable"`
}

// DecodeReviewRequest parses a POST /reviews body with the missing-field
// checks. Shared by the shard server and the router so both tiers accept
// and reject exactly the same requests.
func DecodeReviewRequest(r *http.Request) (ReviewRequest, error) {
	var req ReviewRequest
	if err := DecodeJSONBody(r, &req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if strings.TrimSpace(req.ID) == "" || strings.TrimSpace(req.EntityID) == "" {
		return req, fmt.Errorf("missing id or entity")
	}
	if strings.TrimSpace(req.Text) == "" {
		return req, fmt.Errorf("missing text")
	}
	return req, nil
}

// handleReviews is the live-enrichment write path, group commit (see
// groupcommit.go): the handler prepares the delta outside every lock,
// stages it on the commit queue, and one staged writer — the leader —
// journals the whole queue with a single shared fsync before applying it
// in sequence order, so every 200 from a journaled server implies
// durability regardless of how many writers arrived together.
// Append-before-apply is what makes a crash safe — an acknowledged
// review is either in the served state or replayed from the journal at
// the next load.
func (s *Server) handleReviews(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.opts.Ingest == nil {
		WriteError(w, http.StatusForbidden, "read-only server: ingestion is not enabled (serve with a journal)")
		return
	}
	req, err := DecodeReviewRequest(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rv := core.ReviewData{ID: req.ID, EntityID: req.EntityID, Reviewer: req.Reviewer, Day: req.Day, Text: req.Text}
	s.ingest(w, r.Context(), req.Replica, rv)
}

// extendPrefixChain advances the in-memory prefix-hash chain with one
// journaled record. A chain error (cannot happen while this server owns
// the journal) drops the chain with an operator signal — a counter and a
// structured log line carrying the sequence and the trace id of the
// request that hit it — and status probes fall back to on-disk scans.
func (s *Server) extendPrefixChain(seq uint64, rv core.ReviewData, traceID string) {
	ph := s.prefixHashes()
	if ph == nil {
		return
	}
	if err := ph.Append(seq, journalReview(rv)); err != nil {
		s.ph.Store(nil)
		s.metrics.chainDropped.Inc()
		slog.Warn("server: prefix-hash chain dropped; journal/status probes degrade to segment scans until restart",
			"seq", seq, "trace", traceID, "err", err)
	}
}
