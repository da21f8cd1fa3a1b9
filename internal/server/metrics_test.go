package server_test

// Tests of the serving-side observability surface: the /metrics
// exposition, and the incremental /journal/status path agreeing with the
// on-disk scans it replaced.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// metricsServer clones the shared fixture (so writes stay local to the
// test) and serves it with volatile ingestion.
func metricsServer(t *testing.T) (*core.DB, *httptest.Server) {
	t.Helper()
	_, db, _ := testServer(t)
	snap := filepath.Join(t.TempDir(), "clone.snap")
	if _, err := snapshot.Save(snap, db); err != nil {
		t.Fatal(err)
	}
	clone, _, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(clone, server.Options{Ingest: &server.IngestOptions{}}))
	t.Cleanup(srv.Close)
	return clone, srv
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointServesInstrumentedFamilies(t *testing.T) {
	db, srv := metricsServer(t)
	// Drive each instrumented path once.
	getJSON(t, srv.URL+"/query?sql="+`select+*+from+Entities+where+"clean+rooms"+limit+3`, http.StatusOK, nil)
	getJSON(t, srv.URL+"/topk?predicate=clean+rooms&k=3", http.StatusOK, nil)
	postReview(t, srv.URL, server.ReviewRequest{
		ID: "m-1", EntityID: db.EntityIDs()[0], Text: "spotless rooms and friendly staff",
	})

	text := scrape(t, srv.URL)
	for _, want := range []string{
		`opinedb_http_request_seconds_bucket{endpoint="query",le="+Inf"}`,
		`opinedb_http_request_seconds_bucket{endpoint="topk",le="+Inf"}`,
		`opinedb_http_request_seconds_bucket{endpoint="reviews",le="+Inf"}`,
		`opinedb_http_request_seconds_p99{endpoint="query"}`,
		`opinedb_stage_seconds_bucket{le="+Inf",stage="engine_query"}`,
		`opinedb_stage_seconds_bucket{le="+Inf",stage="engine_topk"}`,
		`opinedb_stage_seconds_bucket{le="+Inf",stage="apply"}`,
		"opinedb_http_requests_total{endpoint=\"query\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestJournalStatusIncrementalMatchesScan: the chain-served status must
// agree exactly with the on-disk scans it replaced, full-journal and
// ?at=K alike.
func TestJournalStatusIncrementalMatchesScan(t *testing.T) {
	db, jdir, srv := journaledServer(t)
	ids := db.EntityIDs()
	for i := 0; i < 5; i++ {
		postReview(t, srv.URL, server.ReviewRequest{
			ID: fmt.Sprintf("inc-%d", i), EntityID: ids[i%len(ids)],
			Text: "quiet rooms, lovely breakfast, gorgeous view",
		})
	}

	st, err := journal.StatDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var full server.JournalStatusResponse
	getJSON(t, srv.URL+"/journal/status", http.StatusOK, &full)
	if full.LastSeq != st.LastSeq || full.Records != st.Records ||
		full.Segments != st.Segments || full.PrefixHash != st.PrefixHash || full.HashSeq != st.LastSeq {
		t.Fatalf("incremental status %+v disagrees with StatDir %+v", full, st)
	}

	for at := uint64(1); at <= st.LastSeq+2; at++ {
		wantHash, wantSeq, err := journal.PrefixHashAt(jdir, at)
		if err != nil {
			t.Fatal(err)
		}
		var got server.JournalStatusResponse
		getJSON(t, fmt.Sprintf("%s/journal/status?at=%d", srv.URL, at), http.StatusOK, &got)
		if got.PrefixHash != wantHash || got.HashSeq != wantSeq {
			t.Fatalf("at=%d: (%s, %d), want (%s, %d)", at, got.PrefixHash, got.HashSeq, wantHash, wantSeq)
		}
	}
}
