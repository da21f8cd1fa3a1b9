package server_test

// Tracing through the shard server: the group-commit pipeline's stage
// spans (prepare, wait with leader/follower attribution, journal,
// apply) land in the collector with batch accounting, and a client-sent
// X-Opinedb-Trace header makes the server span join the client's trace.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

type batchFn = func([]core.ReviewData) (uint64, error)

// tracedIngestServer clones the shared fixture (snapshot round trip, so
// the package fixture stays unmutated) and serves it with a journal, the
// group-commit pipeline's shared-fsync AppendBatch — optionally wrapped
// by the caller, e.g. to gate a leader mid-journal — and a sample-
// everything trace collector.
func tracedIngestServer(t *testing.T, wrapBatch func(batchFn) batchFn) (*core.DB, *trace.Collector, *httptest.Server) {
	t.Helper()
	_, db, _ := testServer(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "clone.snap")
	if _, err := snapshot.Save(snap, db); err != nil {
		t.Fatal(err)
	}
	clone, _, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(dir, "wal")
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	appendBatch := server.JournalAppendBatch(j)
	if wrapBatch != nil {
		appendBatch = wrapBatch(appendBatch)
	}
	col := trace.New(trace.Options{SampleRate: 1, SlowCutoff: time.Hour, Capacity: 4096, Seed: 1})
	srv := httptest.NewServer(server.New(clone, server.Options{
		Trace: col,
		Ingest: &server.IngestOptions{
			JournalDir:  jdir,
			AppendBatch: appendBatch,
		},
	}))
	t.Cleanup(srv.Close)
	return clone, col, srv
}

func spanAttr(s trace.SpanJSON, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestGroupCommitSpans pins the pipeline's trace shape with a
// deterministic batch: the first write leads alone and blocks inside its
// journal fsync, two more writes stage behind it and commit together in
// the handoff batch. The initial leader's wait span says role=leader; a
// write that rode another's fsync says role=follower with batch_size 2
// and its leader's trace id; and that leader's trace shows the journal
// and apply stages with the same batch accounting.
func TestGroupCommitSpans(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	first := true
	db, col, srv := tracedIngestServer(t, func(inner batchFn) batchFn {
		return func(rvs []core.ReviewData) (uint64, error) {
			// Single-threaded by construction: only the one in-flight
			// leader calls AppendBatch.
			if first {
				first = false
				close(entered)
				<-release
			}
			return inner(rvs)
		}
	})
	entity := db.EntityIDs()[0]

	post := func(id string) chan error {
		errc := make(chan error, 1)
		go func() {
			body, _ := json.Marshal(server.ReviewRequest{
				ID: id, EntityID: entity, Reviewer: "op", Day: 1,
				Text: "The room was spotless and the staff was friendly.",
			})
			resp, err := http.Post(srv.URL+"/reviews", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = io.ErrUnexpectedEOF
				}
			}
			errc <- err
		}()
		return errc
	}

	// The first write drains the empty queue alone and blocks mid-fsync.
	aErr := post("gc-a")
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached AppendBatch")
	}
	// Two more writes stage behind the blocked leader; the queue-depth
	// gauge reaching 2 is the signal both are committed to the next batch.
	bErr, cErr := post("gc-b"), post("gc-c")
	waitForGauge(t, srv.URL, server.MetricCommitQueueDepth, "2")
	close(release)
	for _, errc := range []chan error{aErr, bErr, cErr} {
		if err := <-errc; err != nil {
			t.Fatalf("write failed: %v", err)
		}
	}

	// The root span ends a hair after the response is written; poll
	// briefly so the assertions never race the handler teardown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if follower := findSharedBatchFollower(col); follower != nil {
			assertGroupCommitTraces(t, col, *follower)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no follower span for the shared batch in %+v", col.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// findSharedBatchFollower returns a finished commit.wait span for a
// write that rode a 2-write batch led by a DIFFERENT request — the
// handoff leader also reports role=follower (it inherited, not won,
// leadership at stage time) but names its own trace as leader.
func findSharedBatchFollower(col *trace.Collector) *trace.SpanJSON {
	for _, tr := range col.Snapshot() {
		for _, s := range tr.Spans {
			if s.Name == "commit.wait" && !s.InFlight &&
				spanAttr(s, "role") == "follower" &&
				spanAttr(s, "batch_size") == "2" &&
				spanAttr(s, "leader_trace") != "" &&
				spanAttr(s, "leader_trace") != tr.TraceID {
				cp := s
				return &cp
			}
		}
	}
	return nil
}

func assertGroupCommitTraces(t *testing.T, col *trace.Collector, follower trace.SpanJSON) {
	t.Helper()
	// The gated first write led its own batch of one.
	foundLeaderRole := false
	for _, tr := range col.Snapshot() {
		for _, s := range tr.Spans {
			if s.Name == "commit.wait" && spanAttr(s, "role") == "leader" {
				foundLeaderRole = true
				if got := spanAttr(s, "batch_size"); got != "1" {
					t.Errorf("initial leader batch_size = %q, want 1 (it drained alone)", got)
				}
			}
		}
	}
	if !foundLeaderRole {
		t.Error("no commit.wait span with role=leader")
	}

	// The batch leader the follower names has the full pipeline trace.
	leader, ok := col.Get(spanAttr(follower, "leader_trace"))
	if !ok {
		t.Fatalf("leader trace %s not in the collector", spanAttr(follower, "leader_trace"))
	}
	stages := map[string]trace.SpanJSON{}
	for _, s := range leader.Spans {
		stages[s.Name] = s
	}
	for _, name := range []string{"server.reviews", "commit.prepare", "commit.wait", "commit.journal", "commit.apply"} {
		if _, found := stages[name]; !found {
			t.Fatalf("leader trace missing %s: %+v", name, leader.Spans)
		}
	}
	if got := spanAttr(stages["commit.journal"], "batch_size"); got != "2" {
		t.Errorf("commit.journal batch_size = %q, want 2 (shared fsync)", got)
	}
	if got := spanAttr(stages["commit.apply"], "batch_size"); got != "2" {
		t.Errorf("commit.apply batch_size = %q, want 2", got)
	}
}

// waitForGauge polls /metrics until the series reports the wanted value.
func waitForGauge(t *testing.T, base, series, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(body), "\n") {
			if line == series+" "+want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %s:\n%s", series, want, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientTraceHeaderJoinsServerSpan: a request arriving with
// X-Opinedb-Trace continues the client's trace — the server span lands
// under the client's id, queryable at /debug/traces?id=.
func TestClientTraceHeaderJoinsServerSpan(t *testing.T) {
	_, col, srv := tracedIngestServer(t, nil)

	const clientTrace = "feedfacecafef00d"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceHeader, clientTrace)
	req.Header.Set(trace.SpanHeader, "0123456789abcdef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	tr, ok := col.Get(clientTrace)
	if !ok {
		t.Fatalf("client trace id never reached the collector: %+v", col.Snapshot())
	}
	found := false
	for _, s := range tr.Spans {
		if s.Name == "server.healthz" && s.ParentID == "0123456789abcdef" {
			found = true
		}
	}
	if !found {
		t.Fatalf("server span not parented under the client's span: %+v", tr.Spans)
	}

	// The debug surface resolves the same id.
	var page struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	getJSON(t, srv.URL+"/debug/traces?id="+clientTrace, http.StatusOK, &page)
	if len(page.Traces) != 1 || page.Traces[0].TraceID != clientTrace {
		t.Fatalf("/debug/traces?id= returned %+v", page.Traces)
	}
}
