package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// Fleet is an in-process journaled routed fleet: the monolith it was
// built from (the correctness reference, until dropReference), per-shard
// snapshots behind a manifest, one server per node with its own journal,
// and the router.
type Fleet struct {
	Dir          string
	Data         *corpus.Dataset
	DB           *core.DB
	ManifestPath string
	Manifest     *snapshot.Manifest
	Router       *router.Router
	Handler      http.Handler
	Registry     *obs.Registry
	Replicas     int
	JournalDirs  [][]string
	// BuildTime covers corpus generation and the monolith build;
	// FleetTime the shard snapshots, their verified loads and the router.
	BuildTime, FleetTime time.Duration

	// refFP is the monolith's query fingerprint, taken before the
	// monolith is dropped; empty after a workload with writes, whose
	// gate rebuilds the monolith instead.
	refFP string

	mu       sync.Mutex
	journals []*journal.Journal // by node
	openErr  error
}

// buildMonolith generates w's corpus and builds the monolith from it.
// The build is deterministic, so a second call builds the same state.
func buildMonolith(spec *Spec, w Workload) (*corpus.Dataset, *core.DB, error) {
	gen := corpus.SmallConfig()
	if w.Corpus == "default" {
		gen = corpus.DefaultConfig()
	}
	gen.Seed = spec.CorpusSeed
	d := corpus.GenerateHotels(gen)
	cfg := core.DefaultConfig()
	cfg.Seed = spec.CorpusSeed
	db, err := harness.BuildDB(d, cfg, 400, 300)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	return d, db, nil
}

// buildFleet builds w's fleet under dir. With rec non-nil it wraps the
// public seams — the router's handler, every node's backend, and each
// node's journal append closures and fsync observer — so the recorder
// can time them; with rec nil the fleet runs unwrapped.
func buildFleet(dir string, spec *Spec, w Workload, rec *Recorder) (*Fleet, error) {
	t0 := time.Now()
	d, db, err := buildMonolith(spec, w)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mp, err := harness.WriteReplicatedFleet(db, dir, "bench", w.Shards, w.Replicas, spec.CorpusSeed)
	if err != nil {
		return nil, fmt.Errorf("write fleet: %w", err)
	}
	f := &Fleet{
		Dir: dir, Data: d, DB: db, ManifestPath: mp, Registry: obs.NewRegistry(),
		Replicas: w.Replicas, JournalDirs: make([][]string, w.Shards),
		journals: make([]*journal.Journal, w.Shards*w.Replicas),
	}
	for s := range f.JournalDirs {
		f.JournalDirs[s] = make([]string, w.Replicas)
	}
	rt, m, err := router.FromManifest(mp, router.ManifestOptions{
		Options: router.Options{Metrics: f.Registry, PickSeed: 1},
		ShardServer: func(shard, replica int, _ string, _ *core.DB, _ *snapshot.Meta) server.Options {
			return f.shardServer(shard, replica, rec)
		},
		WrapBackend: func(shard, replica int, b router.Backend) router.Backend {
			if rec == nil {
				return b
			}
			return &tracedBackend{inner: b, node: shard*w.Replicas + replica, rec: rec}
		},
	})
	if err == nil {
		err = f.openErr
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f.Router, f.Manifest = rt, m
	f.Handler = router.NewHandler(rt)
	if rec != nil {
		f.Handler = rec.wrapHandler(f.Handler)
	}
	f.BuildTime, f.FleetTime = t1.Sub(t0), time.Since(t1)
	return f, nil
}

// shardServer opens one node's journal (every ack fsynced) and returns
// its server options with group commit on.
func (f *Fleet) shardServer(shard, replica int, rec *Recorder) server.Options {
	node := shard*f.Replicas + replica
	jdir := filepath.Join(f.Dir, fmt.Sprintf("shard-%d-r%d.journal", shard, replica))
	fsync := server.FsyncObserver(f.Registry)
	if rec != nil {
		observe := fsync
		fsync = func(d time.Duration) {
			observe(d)
			rec.fsync(node, d)
		}
	}
	var j *journal.Journal
	err := os.MkdirAll(jdir, 0o755)
	if err == nil {
		j, err = journal.Open(jdir, journal.Options{SyncEvery: 1, SyncObserver: fsync})
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.openErr = errors.Join(f.openErr, fmt.Errorf("node %d journal: %w", node, err))
		return server.Options{Metrics: f.Registry}
	}
	f.journals[node] = j
	f.JournalDirs[shard][replica] = jdir
	appendBatch := func(rvs []core.ReviewData) (uint64, error) {
		batch := make([]journal.Review, len(rvs))
		for i, rv := range rvs {
			batch[i] = journal.Review{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}
		}
		return j.AppendBatch(batch)
	}
	if rec != nil {
		appendBatch = rec.wrapAppendBatch(node, appendBatch)
	}
	// Group commit journals through AppendBatch alone, so Append stays
	// unset and every write passes the one wrapped closure.
	return server.Options{
		Metrics: f.Registry,
		Ingest: &server.IngestOptions{
			AcceptUnowned:  true,
			JournalDir:     jdir,
			JournalLastSeq: j.NextSeq() - 1,
			AppendBatch:    appendBatch,
		},
	}
}

// Close releases the journals and removes the fleet's files.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.journals {
		if j != nil {
			_ = j.Close() // the files are removed next
		}
	}
	f.journals = nil
	_ = os.RemoveAll(f.Dir) // scratch space; a leftover is harmless
}

// dropReference lets the monolith and the corpus's reviews go, so the
// process holds only the served fleet, as a deployed one would; the
// generator and the gate keep the predicates and entity ids. After a
// read-only workload the monolith never changes, so its fingerprint is
// taken here for the gate; after writes the gate rebuilds it.
func (f *Fleet) dropReference(writes bool) {
	if !writes {
		f.refFP, _ = harness.QueryFingerprint(f.Data, f.DB)
	}
	f.DB = nil
	f.Data = &corpus.Dataset{Domain: f.Data.Domain, Entities: f.Data.Entities, Predicates: f.Data.Predicates}
}

// nextSeqs is the sequence number each node's journal gives its next
// record, by node.
func (f *Fleet) nextSeqs() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	seqs := make([]uint64, len(f.journals))
	for node, j := range f.journals {
		seqs[node] = j.NextSeq()
	}
	return seqs
}

// journalBytes is the size of every node's journal on disk.
func (f *Fleet) journalBytes() int64 {
	var n int64
	for _, dirs := range f.JournalDirs {
		for _, dir := range dirs {
			_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
				if err == nil && fi.Mode().IsRegular() {
					n += fi.Size()
				}
				return nil
			})
		}
	}
	return n
}

// serve puts h on a loopback listener.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Shutdown
	return srv, "http://" + ln.Addr().String(), nil
}

// reqHeader carries the benchmark's request id to the traced handler.
const reqHeader = "X-Fleetbench-Req"

// Client sends generated requests over a bounded connection pool.
type Client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// Outcome is what one request's answer showed.
type Outcome struct {
	OK bool
	// NotDurable marks a 200 write ack without durable:true, which
	// breaks the write path's contract and fails the run.
	NotDurable bool
}

// do sends r; reqID >= 0 tags it for the traced handler.
func (c *Client) do(r Request, reqID int64) Outcome {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(context.Background(), r.Method, c.base+r.Target, body)
	if err != nil {
		return Outcome{}
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID >= 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Outcome{}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return Outcome{}
	}
	return judge(r, data)
}

// judge checks a 200 answer. Reads must be complete (not partial);
// writes must be acknowledged durable on a fully replicated fleet.
func judge(r Request, body []byte) Outcome {
	if r.Op != opReview {
		return Outcome{OK: !bytes.Contains(body, []byte(`"partial":true`))}
	}
	var ack struct {
		ReviewID string `json:"review_id"`
		Durable  bool   `json:"durable"`
		Partial  bool   `json:"partial"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ReviewID == "" {
		return Outcome{}
	}
	return Outcome{OK: ack.Durable && !ack.Partial, NotDurable: !ack.Durable}
}
