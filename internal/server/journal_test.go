package server_test

// Tests of the journal introspection surface: /journal/status,
// /journal/records and the /healthz journal position — the node-local
// half of the anti-entropy control plane.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// journaledServer clones the shared fixture database (snapshot round
// trip, so the package fixture stays unmutated) and serves it with a
// fresh journal.
func journaledServer(t *testing.T) (*core.DB, string, *httptest.Server) {
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
	srv := httptest.NewServer(server.New(clone, server.Options{
		Ingest: &server.IngestOptions{
			JournalDir:  jdir,
			AppendBatch: server.JournalAppendBatch(j),
		},
	}))
	t.Cleanup(srv.Close)
	return clone, jdir, srv
}

func postReview(t *testing.T, url string, req server.ReviewRequest) server.ReviewResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/reviews", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack server.ReviewResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /reviews: status %d (%v)", resp.StatusCode, err)
	}
	return ack
}

func TestJournalStatusAndRecords(t *testing.T) {
	db, _, srv := journaledServer(t)
	entity := db.EntityIDs()[0]
	for i := 0; i < 3; i++ {
		ack := postReview(t, srv.URL, server.ReviewRequest{
			ID: fmt.Sprintf("jrn-%d", i), EntityID: entity, Reviewer: "op", Day: i,
			Text: "The room was spotless and the staff was friendly.",
		})
		if ack.Seq != uint64(i+1) {
			t.Fatalf("write %d acked seq %d", i, ack.Seq)
		}
	}

	var st server.JournalStatusResponse
	getJSON(t, srv.URL+"/journal/status", http.StatusOK, &st)
	if !st.Journal || st.LastSeq != 3 || st.Records != 3 || st.LastAppliedSeq != 3 {
		t.Fatalf("status = %+v, want 3 records applied", st)
	}
	if st.PrefixHash == "" || st.HashSeq != 3 || st.Segments < 1 {
		t.Fatalf("status = %+v, want full prefix hash", st)
	}

	// ?at=2 hashes the 2-record prefix — different hash, hash_seq 2, but
	// the same journal totals.
	var at2 server.JournalStatusResponse
	getJSON(t, srv.URL+"/journal/status?at=2", http.StatusOK, &at2)
	if at2.HashSeq != 2 || at2.PrefixHash == st.PrefixHash || at2.LastSeq != 3 {
		t.Fatalf("status?at=2 = %+v", at2)
	}

	// /healthz exposes the same position.
	var h server.HealthResponse
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Journal == nil || h.Journal.LastAppliedSeq != 3 || h.Journal.Segments < 1 {
		t.Fatalf("healthz journal = %+v", h.Journal)
	}

	// Records from seq 2: exactly records 2 and 3 in order.
	var recs server.JournalRecordsResponse
	getJSON(t, srv.URL+"/journal/records?from=2", http.StatusOK, &recs)
	if len(recs.Records) != 2 || recs.More || recs.LastSeq != 3 {
		t.Fatalf("records from 2 = %+v", recs)
	}
	for i, r := range recs.Records {
		if r.Seq != uint64(i+2) || r.ID != fmt.Sprintf("jrn-%d", i+1) || r.EntityID != entity {
			t.Fatalf("record %d = %+v", i, r)
		}
	}

	// Paging: limit=1 reports more work and the journal's real end.
	getJSON(t, srv.URL+"/journal/records?from=1&limit=1", http.StatusOK, &recs)
	if len(recs.Records) != 1 || !recs.More || recs.LastSeq != 3 {
		t.Fatalf("paged records = %+v", recs)
	}

	// Parameter validation.
	getJSON(t, srv.URL+"/journal/records?from=0", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/journal/records?limit=-2", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/journal/status?at=x", http.StatusBadRequest, nil)
}

func TestJournalEndpointsWithoutJournal(t *testing.T) {
	_, _, srv := testServer(t) // read-only fixture server, no journal
	getJSON(t, srv.URL+"/journal/status", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/journal/records", http.StatusNotFound, nil)
	var h server.HealthResponse
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Journal != nil {
		t.Fatalf("unjournaled healthz reports journal %+v", h.Journal)
	}
}
