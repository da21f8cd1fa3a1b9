package server

// Shard-server observability: every request, engine stage, and journal
// interaction feeds a dependency-free obs.Registry that GET /metrics
// renders in the Prometheus text format. The registry is injectable
// (Options.Metrics) so a single-process fleet — the daemon's -router
// role, the harness's in-process deployments — can share one registry
// across the front door and every shard; label sets keep the series
// distinct. Instrument updates are single atomic ops, so the request
// path cost is negligible next to a query.

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Metric family names served by GET /metrics; the router (internal/
// router) adds its own opinedb_router_* families on top. Exported so
// operators, tests and the load harness address series by one shared
// vocabulary.
const (
	// MetricRequestSeconds: per-endpoint wall time, lock wait included —
	// labeled {endpoint="query"|"topk"|...}.
	MetricRequestSeconds = "opinedb_http_request_seconds"
	// MetricRequestsTotal: per-endpoint request counter.
	MetricRequestsTotal = "opinedb_http_requests_total"
	// MetricStageSeconds: engine/journal stage latency — labeled
	// {stage="engine_query"|"engine_topk"|"apply"|"journal_append"}.
	MetricStageSeconds = "opinedb_stage_seconds"
	// MetricFsyncSeconds: journal fsync latency (fed through
	// journal.Options.SyncObserver; see FsyncObserver).
	MetricFsyncSeconds = "opinedb_journal_fsync_seconds"
	// MetricAppliedSeq: journal sequence of the last applied review.
	MetricAppliedSeq = "opinedb_journal_last_applied_seq"
	// MetricCommitBatchSize: how many staged writes each group commit
	// drained — 1 under light load, rising toward the queue depth as
	// concurrent writers pile up behind one fsync.
	MetricCommitBatchSize = "opinedb_commit_batch_size"
	// MetricCommitWaitSeconds: how long a write waited from staging until
	// its commit completed (fsync shared, delta applied, waiter woken).
	MetricCommitWaitSeconds = "opinedb_commit_wait_seconds"
	// MetricCommitQueueDepth: staged writes awaiting the next group
	// commit, sampled at every stage/drain transition.
	MetricCommitQueueDepth = "opinedb_commit_queue_depth"
	// MetricCommitBackpressureTotal: writes refused with 503 because the
	// commit queue was full.
	MetricCommitBackpressureTotal = "opinedb_commit_backpressure_total"
	// MetricPrefixChainDroppedTotal: times the in-memory prefix-hash
	// chain desynced and was dropped, degrading /journal/status probes to
	// on-disk segment scans until restart.
	MetricPrefixChainDroppedTotal = "opinedb_prefix_chain_dropped_total"
)

// Names left over from the deleted per-shard /topk fragment memo. No
// server code registers or reads them; they exist only because the
// fleet benchmark (fleetbench/layers.go and fleetbench/replay.go)
// compiles against them, and they go at the next change to the
// benchmark.
const (
	MetricTopKMemoHits     = "opinedb_topk_memo_hits_total"
	MetricTopKMemoMisses   = "opinedb_topk_memo_misses_total"
	DefaultTopKMemoEntries = 4096
)

// metricEndpoints are the instrumented endpoint labels, fixed up front
// so every scrape exposes the full set (zeroed, not absent).
var metricEndpoints = []string{
	"healthz", "schema", "query", "interpret", "evidence", "topk",
	"reviews", "journal_status", "journal_records",
}

// serverMetrics holds the server's pre-resolved instruments so the
// request path never takes the registry lock.
type serverMetrics struct {
	reg            *obs.Registry
	requestSeconds map[string]*obs.Histogram
	requestsTotal  map[string]*obs.Counter
	engineQuery    *obs.Histogram
	engineTopK     *obs.Histogram
	apply          *obs.Histogram
	journalAppend  *obs.Histogram
	appliedSeq     *obs.Gauge
	commitBatch    *obs.Histogram
	commitWait     *obs.Histogram
	queueDepth     *obs.Gauge
	backpressure   *obs.Counter
	chainDropped   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serverMetrics{
		reg:            reg,
		requestSeconds: make(map[string]*obs.Histogram, len(metricEndpoints)),
		requestsTotal:  make(map[string]*obs.Counter, len(metricEndpoints)),
	}
	for _, ep := range metricEndpoints {
		m.requestSeconds[ep] = reg.Histogram(MetricRequestSeconds,
			"Per-endpoint request wall time in seconds (lock wait included).",
			obs.L("endpoint", ep))
		m.requestsTotal[ep] = reg.Counter(MetricRequestsTotal,
			"Requests served, by endpoint.", obs.L("endpoint", ep))
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(MetricStageSeconds,
			"Engine and journal stage latency in seconds.", obs.L("stage", name))
	}
	m.engineQuery = stage("engine_query")
	m.engineTopK = stage("engine_topk")
	m.apply = stage("apply")
	m.journalAppend = stage("journal_append")
	m.appliedSeq = reg.Gauge(MetricAppliedSeq,
		"Journal sequence of the last review applied to the serving database.")
	m.commitBatch = reg.Histogram(MetricCommitBatchSize,
		"Writes drained per group commit (shared-fsync batch size).")
	m.commitWait = reg.Histogram(MetricCommitWaitSeconds,
		"Seconds a write waited from staging to commit completion.")
	m.queueDepth = reg.Gauge(MetricCommitQueueDepth,
		"Writes staged and awaiting the next group commit.")
	m.backpressure = reg.Counter(MetricCommitBackpressureTotal,
		"Writes refused with 503 because the commit queue was full.")
	m.chainDropped = reg.Counter(MetricPrefixChainDroppedTotal,
		"Prefix-hash chain desyncs; probes fall back to segment scans.")
	return m
}

// timed wraps a handler with the endpoint's counter and latency
// histogram. It sits outside read()'s lock acquisition on purpose: lock
// wait is exactly the latency a caller experiences, so it belongs in
// the histogram. With tracing enabled it is also the process's trace
// front door: the propagation headers are extracted and a root span
// opened before the handler runs, and the histogram observation carries
// the trace id as an exemplar so metrics and traces join on one id.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.requestSeconds[endpoint]
	total := s.metrics.requestsTotal[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		total.Inc()
		t0 := time.Now()
		if c := s.opts.Trace; c != nil {
			ctx := trace.Extract(r.Context(), r.Header)
			ctx, sp := c.Start(ctx, "server."+endpoint)
			sw := &StatusWriter{ResponseWriter: w}
			h(sw, r.WithContext(ctx))
			sp.SetAttr("status", strconv.Itoa(sw.Status()))
			if sw.Status() >= http.StatusInternalServerError {
				sp.SetError(http.StatusText(sw.Status()))
			}
			sp.End()
			hist.ObserveSinceWithExemplar(t0, sp.Trace)
			return
		}
		h(w, r)
		hist.ObserveSince(t0)
	}
}

// Metrics returns the registry backing GET /metrics — the daemon and
// the harness read it to wire cross-cutting observers (journal fsync)
// and to assert on series in tests.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// FsyncObserver returns a journal.Options.SyncObserver feeding reg's
// fsync-latency histogram. A helper rather than a server method because
// the journal is opened before the server exists.
func FsyncObserver(reg *obs.Registry) func(d time.Duration) {
	h := reg.Histogram(MetricFsyncSeconds, "Journal fsync latency in seconds.")
	return func(d time.Duration) { h.Observe(d.Seconds()) }
}
