package harness

// Mixed-traffic load harness: drive a routed fleet's HTTP surface with
// a configurable read/write mix (query / topk / interpret / reviews)
// at fixed concurrency for a fixed duration and report per-operation
// SLO percentiles from the exact recorded latencies (no bucketing —
// the sample counts here are small enough to sort). The same runner
// backs `opinedbload` (real TCP against a live fleet), the scenario
// table's load phases (scenario.go), and benchall's "load" experiment
// (in-process handler, plus an A/B of the incremental journal
// prefix-hash chain vs the per-probe segment rescan it replaced).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// LoadMix weights the four operation kinds. Zero-valued kinds are not
// driven; an all-zero mix is rejected.
type LoadMix struct {
	Query     int `json:"query"`
	TopK      int `json:"topk"`
	Interpret int `json:"interpret"`
	Reviews   int `json:"reviews"`
}

// DefaultLoadMix is read-heavy with a steady write trickle, the shape
// a serving fleet actually sees.
func DefaultLoadMix() LoadMix { return LoadMix{Query: 4, TopK: 3, Interpret: 2, Reviews: 1} }

func (m LoadMix) total() int { return m.Query + m.TopK + m.Interpret + m.Reviews }

// LoadOptions configure one load run.
type LoadOptions struct {
	Mix LoadMix
	// Concurrency is the number of workers driving requests. <= 0 means 4.
	Concurrency int
	// Duration bounds the run. <= 0 means 3s.
	Duration time.Duration
	// Seed makes the request sequence reproducible per worker.
	Seed int64
	// K is the result size requested by query/topk ops. <= 0 means 10.
	K int
}

// LoadOpStats are one operation kind's latency SLOs over a run.
type LoadOpStats struct {
	Ops        int     `json:"ops"`
	Errors     int     `json:"errors"`
	MeanMicros float64 `json:"mean_micros"`
	P50Micros  float64 `json:"p50_micros"`
	P95Micros  float64 `json:"p95_micros"`
	P99Micros  float64 `json:"p99_micros"`
	MaxMicros  float64 `json:"max_micros"`
}

// LoadResult is one mixed-traffic run's outcome.
type LoadResult struct {
	Concurrency  int                    `json:"concurrency"`
	Seconds      float64                `json:"seconds"`
	TotalOps     int                    `json:"total_ops"`
	TotalErrors  int                    `json:"total_errors"`
	OpsPerSecond float64                `json:"ops_per_second"`
	PerOp        map[string]LoadOpStats `json:"per_op"`
	// NonDurableAcks counts successful POST /reviews whose ack lacked
	// "durable":true — writes the fleet accepted without journaling.
	NonDurableAcks int `json:"non_durable_acks"`
	// Err is non-empty when the run itself could not proceed (as opposed
	// to individual requests failing, which land in Errors).
	Err string `json:"error,omitempty"`
}

// LoadTarget executes one HTTP-shaped request against the system under
// load — the same signature as a router backend's Do, so an in-process
// handler and a real TCP endpoint are interchangeable.
type LoadTarget func(ctx context.Context, method, target string, body []byte) (status int, respBody []byte, err error)

// HTTPLoadTarget drives a live base URL ("http://127.0.0.1:8080")
// through client (nil uses http.DefaultClient's transport with a 30s
// timeout).
func HTTPLoadTarget(baseURL string, client *http.Client) LoadTarget {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	base := strings.TrimRight(baseURL, "/")
	return func(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
		var rd *bytes.Reader
		req, err := http.NewRequestWithContext(ctx, method, base+target, nil)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			rd = bytes.NewReader(body)
			req.Body = nopCloser{rd}
			req.ContentLength = int64(len(body))
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// HandlerLoadTarget drives an http.Handler in process — no sockets, so
// the run measures serving work, not loopback.
func HandlerLoadTarget(h http.Handler) LoadTarget {
	return func(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
		var rd *bytes.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		var req *http.Request
		var err error
		if rd != nil {
			req, err = http.NewRequestWithContext(ctx, method, target, rd)
		} else {
			req, err = http.NewRequestWithContext(ctx, method, target, nil)
		}
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := server.NewResponseBuffer()
		h.ServeHTTP(rec, req)
		return rec.Status(), rec.Bytes(), nil
	}
}

// loadVocabulary is the request vocabulary a run draws from.
type loadVocabulary struct {
	predicates []string
	entityIDs  []string
}

// loadVocab derives the vocabulary from a generated dataset: every
// schema-targeting bank predicate, and every entity id.
func loadVocab(d *corpus.Dataset) loadVocabulary {
	var v loadVocabulary
	for _, p := range d.Predicates {
		if p.Kind == corpus.KindOutOfSchema {
			continue
		}
		v.predicates = append(v.predicates, p.Text)
	}
	for _, e := range d.Entities {
		v.entityIDs = append(v.entityIDs, e.ID)
	}
	return v
}

// reviewPhrases seed the write traffic; they tokenize into the hotel
// schema's marker vocabulary so ingested reviews exercise the real
// enrichment path, not a stop-word fast path.
var reviewPhrases = []string{
	"The room was spotless and the staff were friendly.",
	"Terribly noisy at night but the breakfast was great.",
	"Lovely view, clean bathroom, very helpful reception.",
	"The bed was uncomfortable and the wifi kept dropping.",
	"Quiet floor, spacious room, excellent location.",
}

// loadSample is one recorded operation.
type loadSample struct {
	op         string
	micros     float64
	err        bool
	nonDurable bool
}

// ackDurable reports whether a /reviews response body acks a journaled
// write.
func ackDurable(body []byte) bool {
	var ack struct {
		Durable bool `json:"durable"`
	}
	return json.Unmarshal(body, &ack) == nil && ack.Durable
}

// RunLoadMix drives the target with the mixed workload and reports SLO
// percentiles per operation kind. Request errors (transport failures or
// any status >= 400) are counted, not fatal — a load run's job is to
// report them.
func RunLoadMix(ctx context.Context, do LoadTarget, vocabD *corpus.Dataset, opts LoadOptions) LoadResult {
	res := LoadResult{PerOp: map[string]LoadOpStats{}}
	if opts.Mix.total() <= 0 {
		res.Err = "load: mix has no operations"
		return res
	}
	vocab := loadVocab(vocabD)
	if len(vocab.predicates) == 0 || len(vocab.entityIDs) == 0 {
		res.Err = "load: empty request vocabulary"
		return res
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 4
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = 3 * time.Second
	}
	k := opts.K
	if k <= 0 {
		k = 10
	}
	res.Concurrency = conc

	// The weighted op table: one entry per weight unit, indexed by a
	// uniform draw.
	var ops []string
	for _, w := range []struct {
		name   string
		weight int
	}{
		{"query", opts.Mix.Query}, {"topk", opts.Mix.TopK},
		{"interpret", opts.Mix.Interpret}, {"reviews", opts.Mix.Reviews},
	} {
		for i := 0; i < w.weight; i++ {
			ops = append(ops, w.name)
		}
	}

	runCtx, cancel := context.WithDeadline(ctx, time.Now().Add(dur))
	defer cancel()
	start := time.Now()
	samples := make([][]loadSample, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			day := 5000 + w
			for i := 0; runCtx.Err() == nil; i++ {
				op := ops[rng.Intn(len(ops))]
				var (
					method, target string
					body           []byte
				)
				switch op {
				case "query":
					pred := vocab.predicates[rng.Intn(len(vocab.predicates))]
					sql := `SELECT * FROM Entities WHERE "` + pred + `"`
					target = fmt.Sprintf("/query?sql=%s&k=%d", url.QueryEscape(sql), k)
					method = http.MethodGet
				case "topk":
					pred := vocab.predicates[rng.Intn(len(vocab.predicates))]
					target = fmt.Sprintf("/topk?predicate=%s&k=%d", url.QueryEscape(pred), k)
					method = http.MethodGet
				case "interpret":
					pred := vocab.predicates[rng.Intn(len(vocab.predicates))]
					target = "/interpret?predicate=" + url.QueryEscape(pred)
					method = http.MethodGet
				case "reviews":
					req := server.ReviewRequest{
						ID:       fmt.Sprintf("load-%d-%d-%d", opts.Seed, w, i),
						EntityID: vocab.entityIDs[rng.Intn(len(vocab.entityIDs))],
						Reviewer: fmt.Sprintf("loadgen-%d", w),
						Day:      day + i,
						Text:     reviewPhrases[rng.Intn(len(reviewPhrases))],
					}
					body, _ = json.Marshal(req)
					target, method = "/reviews", http.MethodPost
				}
				t0 := time.Now()
				status, resp, err := do(runCtx, method, target, body)
				elapsed := time.Since(t0)
				failed := err != nil || status >= 400
				if runCtx.Err() != nil && failed {
					// The deadline cut this request off mid-flight — whether the
					// failure surfaced as a transport error or as the router
					// reporting its cancelled scatter legs, it is the clock
					// ending the run, not a serving failure.
					break
				}
				samples[w] = append(samples[w], loadSample{
					op:         op,
					micros:     float64(elapsed.Microseconds()),
					err:        failed,
					nonDurable: op == "reviews" && !failed && !ackDurable(resp),
				})
			}
		}(w)
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()

	byOp := map[string][]float64{}
	for _, ws := range samples {
		for _, s := range ws {
			st := res.PerOp[s.op]
			st.Ops++
			if s.err {
				st.Errors++
				res.TotalErrors++
			} else {
				byOp[s.op] = append(byOp[s.op], s.micros)
			}
			if s.nonDurable {
				res.NonDurableAcks++
			}
			res.PerOp[s.op] = st
			res.TotalOps++
		}
	}
	for op, lat := range byOp {
		sort.Float64s(lat)
		st := res.PerOp[op]
		var sum float64
		for _, v := range lat {
			sum += v
		}
		st.MeanMicros = sum / float64(len(lat))
		st.P50Micros = percentile(lat, 0.50)
		st.P95Micros = percentile(lat, 0.95)
		st.P99Micros = percentile(lat, 0.99)
		st.MaxMicros = lat[len(lat)-1]
		res.PerOp[op] = st
	}
	if res.Seconds > 0 {
		res.OpsPerSecond = float64(res.TotalOps) / res.Seconds
	}
	return res
}

// percentile reads the exact q-quantile from sorted latencies (nearest-
// rank; the harness records every sample, so no interpolation needed).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LoadFleet is an in-process journaled routed fleet assembled for load
// runs: the router's HTTP front door, the generated dataset behind it
// (the request vocabulary), the monolithic database the fleet was built
// from (the byte-identity reference), the shared metrics registry, and
// each node's journal directory, indexed [shard][replica]. Counts holds
// each range's replica-set size; a live join grows JournalDirs[shard]
// past Counts[shard].
type LoadFleet struct {
	Router      *router.Router
	Handler     http.Handler
	Dataset     *corpus.Dataset
	DB          *core.DB
	Registry    *obs.Registry
	JournalDirs [][]string
	Manifest    *snapshot.Manifest
	Counts      []int
	// Trace is the fleet's shared trace collector (nil when the fleet was
	// built without tracing). In-process fleets share ONE collector across
	// the router front door and every shard replica, so a routed request's
	// spans — front door, scatter legs, per-shard server work — land in a
	// single record exactly as a distributed fleet's would after
	// cross-process propagation.
	Trace *trace.Collector

	// The pieces a live join needs to assemble a fresh node exactly the
	// way BuildLoadFleet assembled the originals.
	manifestPath string
	nodeServer   func(shard, replica int) (server.Options, error)
	wrap         func(shard, replica int, b router.Backend) router.Backend
}

// ReplayOwnedWrites folds every write the fleet journaled during a run
// into the pre-fleet monolith (fl.DB), each in its OWNER's commit order:
// shard by shard, replica 0's journal, applying only the writes that
// shard owns. Every node journals every routed write, but concurrent
// writers interleave differently at different nodes, and a summary's
// incremental centroid is floating-point order-sensitive — so byte
// identity with the live fleet (whose per-entity answers come from the
// owners) requires replaying each entity's writes in its owner's order,
// not any single node's. Corpus-global state is order-independent, so
// the shard-major replay order does not disturb it. Returns the number
// of writes applied.
func (fl *LoadFleet) ReplayOwnedWrites() (int, error) {
	applied := 0
	for s, ms := range fl.Manifest.Shard {
		jdir := fl.JournalDirs[s][0]
		_, err := journal.Replay(jdir, func(seq uint64, rv journal.Review) error {
			if rv.EntityID < ms.FirstEntity || rv.EntityID > ms.LastEntity {
				return nil
			}
			if err := fl.DB.ApplyReview(core.ReviewData{
				ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer,
				Day: rv.Day, Text: rv.Text,
			}); err != nil {
				return fmt.Errorf("shard %d seq %d: %w", s, seq, err)
			}
			applied++
			return nil
		})
		if err != nil {
			return applied, fmt.Errorf("replay owned writes: %w", err)
		}
	}
	return applied, nil
}

// LoadFleetOptions configure BuildLoadFleet.
type LoadFleetOptions struct {
	// Shards is the fleet size. <= 0 means 4.
	Shards int
	// Replicas is each shard range's replica-set size. <= 0 means 1.
	Replicas int
	// ReplicasPerRange gives each range its own replica-set size
	// (index-aligned with shards; entries <= 0 mean 1). Takes precedence
	// over Replicas, so a hot range can run R=3 while cold ranges stay
	// single-replica.
	ReplicasPerRange []int
	// Seed drives corpus generation and the build.
	Seed int64
	// DisableHedging turns off hedged scatter legs — the control arm of
	// the hedging A/B.
	DisableHedging bool
	// WrapBackend, when non-nil, wraps each node's backend (joiners
	// included) before the router sees it — the fault-injection seam
	// (router.DelayBackend, kill switches) of the scenario table and the
	// replication experiment's slow-replica arm.
	WrapBackend func(shard, replica int, b router.Backend) router.Backend
	// Trace, when non-nil, builds the fleet with request tracing: one
	// shared collector wired into the router and every shard server. The
	// collector's sampler RNG is its own (never the router's pick RNG), so
	// tracing cannot perturb replica choice or the query fingerprint.
	Trace *trace.Options
}

// BuildLoadFleet generates the small hotel corpus, builds the
// subjective database, writes an n-shard fleet under dir, and serves it
// through an in-process router — R replicas per range when requested —
// with per-node journals and one shared metrics registry, the same
// deployment shape as `opinedbd -router`.
func BuildLoadFleet(dir string, opts LoadFleetOptions) (*LoadFleet, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = 4
	}
	if n := len(opts.ReplicasPerRange); n > 0 && n != shards {
		return nil, fmt.Errorf("load fleet: %d replica counts for %d shards", n, shards)
	}
	counts := make([]int, shards)
	for i := range counts {
		counts[i] = opts.Replicas
		if i < len(opts.ReplicasPerRange) {
			counts[i] = opts.ReplicasPerRange[i]
		}
		if counts[i] <= 0 {
			counts[i] = 1
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("load fleet: %w", err)
	}
	genCfg := corpus.SmallConfig()
	genCfg.Seed = opts.Seed
	d := corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	db, err := BuildDB(d, cfg, 400, 300)
	if err != nil {
		return nil, fmt.Errorf("load fleet: build: %w", err)
	}
	var manifestPath string
	if len(opts.ReplicasPerRange) > 0 {
		manifestPath, err = WritePerRangeFleet(db, dir, "load", shards, counts, opts.Seed)
	} else {
		manifestPath, err = WriteReplicatedFleet(db, dir, "load", shards, counts[0], opts.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("load fleet: %w", err)
	}

	reg := obs.NewRegistry()
	var tracer *trace.Collector
	if opts.Trace != nil {
		tracer = trace.New(*opts.Trace)
	}
	fl := &LoadFleet{Dataset: d, DB: db, Registry: reg, Trace: tracer, JournalDirs: make([][]string, shards), Counts: counts, manifestPath: manifestPath}
	for s := range fl.JournalDirs {
		fl.JournalDirs[s] = make([]string, counts[s])
	}
	fl.nodeServer = func(shard, replica int) (server.Options, error) {
		// Replica 0 keeps the pre-replication journal dir name so
		// single-replica artifacts stay where tooling expects them.
		name := fmt.Sprintf("shard-%d.journal", shard)
		if replica > 0 {
			name = fmt.Sprintf("shard-%d-r%d.journal", shard, replica)
		}
		jdir := filepath.Join(dir, name)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return server.Options{}, fmt.Errorf("load fleet: shard %d replica %d journal: %w", shard, replica, err)
		}
		j, err := journal.Open(jdir, journal.Options{
			SyncObserver: server.FsyncObserver(reg),
		})
		if err != nil {
			return server.Options{}, fmt.Errorf("load fleet: shard %d replica %d journal: %w", shard, replica, err)
		}
		for len(fl.JournalDirs[shard]) <= replica {
			fl.JournalDirs[shard] = append(fl.JournalDirs[shard], "")
		}
		fl.JournalDirs[shard][replica] = jdir
		return server.Options{
			Metrics: reg,
			Trace:   tracer,
			Ingest: &server.IngestOptions{
				AcceptUnowned:  true,
				JournalDir:     jdir,
				JournalLastSeq: j.NextSeq() - 1,
				AppendBatch:    server.JournalAppendBatch(j),
			},
		}, nil
	}
	fl.wrap = func(shard, replica int, b router.Backend) router.Backend {
		if opts.WrapBackend != nil {
			b = opts.WrapBackend(shard, replica, b)
		}
		return b
	}
	// router.FromManifest's ShardServer hook cannot fail, so the first
	// node error is held here and returned once the router is assembled:
	// a node without its journal must fail the build, not serve without
	// an ingest path.
	var nodeErr error
	rt, m, err := router.FromManifest(manifestPath, router.ManifestOptions{
		Options: router.Options{
			Metrics:        reg,
			Trace:          tracer,
			DisableHedging: opts.DisableHedging,
		},
		ShardServer: func(shard, replica int, _ string, _ *core.DB, _ *snapshot.Meta) server.Options {
			srvOpts, err := fl.nodeServer(shard, replica)
			if err != nil && nodeErr == nil {
				nodeErr = err
			}
			return srvOpts
		},
		WrapBackend: fl.wrap,
	})
	if err != nil {
		return nil, fmt.Errorf("load fleet: %w", err)
	}
	if nodeErr != nil {
		return nil, nodeErr
	}
	fl.Router = rt
	fl.Handler = router.NewHandler(rt)
	fl.Manifest = m
	return fl, nil
}

// NewJoinerBackend assembles a fresh node for one shard range exactly
// the way BuildLoadFleet assembled the originals: the digest-verified
// shard snapshot, its own journal directory (appended to
// JournalDirs[shard]), and the same wrapping. The node is live but NOT
// in the router — hand it to Router.AdmitReplica to join the range's
// replica set.
func (fl *LoadFleet) NewJoinerBackend(shard int) (router.Backend, error) {
	if shard < 0 || shard >= len(fl.Manifest.Shard) {
		return nil, fmt.Errorf("load fleet: joiner for shard %d of %d", shard, len(fl.Manifest.Shard))
	}
	db, _, err := snapshot.LoadVerifiedShard(fl.manifestPath, fl.Manifest, shard)
	if err != nil {
		return nil, fmt.Errorf("load fleet: joiner: %w", err)
	}
	replica := len(fl.JournalDirs[shard])
	srvOpts, err := fl.nodeServer(shard, replica)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("shard%d.r%d", shard, replica)
	return fl.wrap(shard, replica, router.NewLocalBackend(name, db, srvOpts)), nil
}

// FormatLoad renders a load run as the SLO table operators read.
func FormatLoad(r LoadResult) string {
	var b strings.Builder
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %d workers, %.1fs: %d ops (%.0f ops/s), %d errors, %d non-durable write acks\n",
		r.Concurrency, r.Seconds, r.TotalOps, r.OpsPerSecond, r.TotalErrors, r.NonDurableAcks)
	for _, op := range []string{"query", "topk", "interpret", "reviews"} {
		st, ok := r.PerOp[op]
		if !ok || st.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %6d ops   mean %8.0f µs   p50 %8.0f   p95 %8.0f   p99 %8.0f   max %8.0f   errors %d\n",
			op, st.Ops, st.MeanMicros, st.P50Micros, st.P95Micros, st.P99Micros, st.MaxMicros, st.Errors)
	}
	return b.String()
}
