package server

// Journal introspection surface: the node-local half of the fleet
// control plane (internal/fleet). Every shard of a routed fleet journals
// every replicated write in one fleet-wide order, so "last applied
// sequence + prefix hash" identifies exactly how far this node got and
// whether it is a pure prefix of a healthier peer, and /journal/records
// streams the tail a repair pass backfills through the ordinary
// replica-write path (POST /reviews). Both endpoints run under the
// reader half of the server's lock, so they observe a consistent journal
// — appends hold the writer half.

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/journal"
)

// JournalAppendBatch adapts a journal to IngestOptions.AppendBatch: each
// commit batch lands as one journal.Journal.AppendBatch — in order,
// atomically, under one fsync — so every ack it backs is durable.
func JournalAppendBatch(j *journal.Journal) func([]core.ReviewData) (uint64, error) {
	return func(rvs []core.ReviewData) (uint64, error) {
		batch := make([]journal.Review, len(rvs))
		for i, rv := range rvs {
			batch[i] = journalReview(rv)
		}
		return j.AppendBatch(batch)
	}
}

// journalReview converts an engine review delta to the journal's own
// record format.
func journalReview(rv core.ReviewData) journal.Review {
	return journal.Review{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}
}

// JournalStatusResponse is the GET /journal/status payload.
type JournalStatusResponse struct {
	// Journal is true when this node journals its writes.
	Journal bool `json:"journal"`
	// LastAppliedSeq is the sequence of the last review applied to the
	// serving database.
	LastAppliedSeq uint64 `json:"last_applied_seq"`
	// LastSeq, Records and Segments describe the on-disk journal; LastSeq
	// can exceed LastAppliedSeq only in the narrow window where an append
	// succeeded and the apply failed.
	LastSeq  uint64 `json:"last_seq"`
	Records  int    `json:"records"`
	Segments int    `json:"segments"`
	// PrefixHash is the SHA-256 chain over records 1..HashSeq. Without an
	// ?at= bound, HashSeq == LastSeq and the hash covers the whole
	// journal; with ?at=K it covers min(K, LastSeq) — how a repair pass
	// asks a longer journal "what did your first K records look like".
	PrefixHash string `json:"prefix_hash"`
	HashSeq    uint64 `json:"hash_seq"`
}

// JournalRecordJSON is one journal record on the wire.
type JournalRecordJSON struct {
	Seq      uint64 `json:"seq"`
	ID       string `json:"id"`
	EntityID string `json:"entity"`
	Reviewer string `json:"reviewer,omitempty"`
	Day      int    `json:"day"`
	Text     string `json:"text"`
}

// JournalRecordsResponse is the GET /journal/records payload: up to
// `limit` records starting at ?from, in sequence order.
type JournalRecordsResponse struct {
	Records []JournalRecordJSON `json:"records"`
	// LastSeq is the journal's final sequence; More is true when records
	// past this page remain.
	LastSeq uint64 `json:"last_seq"`
	More    bool   `json:"more,omitempty"`
}

// journalDir returns the configured journal directory, or "" when the
// node has no journal introspection surface.
func (s *Server) journalDir() string {
	if s.opts.Ingest == nil {
		return ""
	}
	return s.opts.Ingest.JournalDir
}

// prefixHashes returns the journal's in-memory prefix-hash chain,
// building it from one disk scan on first use. nil when the node has no
// journal, the initial scan failed, or the chain was dropped after a
// desync — every caller falls back to on-disk scans in that case.
// Safe under the read lock: the sync.Once serializes construction and
// the chain carries its own mutex.
func (s *Server) prefixHashes() *journal.PrefixHashes {
	s.phInit.Do(func() {
		dir := s.journalDir()
		if dir == "" {
			return
		}
		if ph, err := journal.NewPrefixHashes(dir); err == nil {
			s.ph.Store(ph)
		}
	})
	return s.ph.Load()
}

// journalHealth builds the /healthz journal-position report. Callers hold
// at least the reader lock.
func (s *Server) journalHealth() *JournalHealth {
	dir := s.journalDir()
	if dir == "" {
		return nil
	}
	segments := 0
	if _, n, err := journal.TailInfo(dir); err == nil {
		segments = n
	}
	return &JournalHealth{LastAppliedSeq: s.appliedSeq, Segments: segments}
}

func (s *Server) handleJournalStatus(w http.ResponseWriter, r *http.Request) {
	dir := s.journalDir()
	if dir == "" {
		WriteError(w, http.StatusNotFound, "this node has no journal")
		return
	}
	var at uint64
	if as := r.URL.Query().Get("at"); as != "" {
		v, err := strconv.ParseUint(as, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad at: %v", err)
			return
		}
		at = v
	}
	// Fast path: answer every hash probe from the in-memory chain —
	// O(1) per probe instead of a segment rescan, which is what keeps
	// the fleet repair loop's heal-before-write cheap. Segment count
	// still comes from the bounded final-segment probe.
	if ph := s.prefixHashes(); ph != nil {
		hash, last := ph.Last()
		segments := 0
		if _, n, err := journal.TailInfo(dir); err == nil {
			segments = n
		}
		resp := JournalStatusResponse{
			Journal:        true,
			LastAppliedSeq: s.appliedSeq,
			LastSeq:        last,
			Records:        int(last),
			Segments:       segments,
			PrefixHash:     hash,
			HashSeq:        last,
		}
		if at > 0 && at < last {
			resp.PrefixHash, resp.HashSeq = ph.At(at)
		}
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	full, err := journal.StatDir(dir)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "journal stat: %v", err)
		return
	}
	resp := JournalStatusResponse{
		Journal:        true,
		LastAppliedSeq: s.appliedSeq,
		LastSeq:        full.LastSeq,
		Records:        full.Records,
		Segments:       full.Segments,
		PrefixHash:     full.PrefixHash,
		HashSeq:        full.LastSeq,
	}
	if at > 0 && at < full.LastSeq {
		hash, hashSeq, err := journal.PrefixHashAt(dir, at)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "journal hash: %v", err)
			return
		}
		resp.PrefixHash, resp.HashSeq = hash, hashSeq
	}
	WriteJSON(w, http.StatusOK, resp)
}

// DefaultJournalRecordsLimit sizes one /journal/records page when the
// request does not ask for a limit; MaxJournalRecordsLimit bounds what a
// request may ask for — the page is materialized in memory under the
// read lock, so the client must not be able to demand the whole journal
// in one response.
const (
	DefaultJournalRecordsLimit = 512
	MaxJournalRecordsLimit     = 4096
)

func (s *Server) handleJournalRecords(w http.ResponseWriter, r *http.Request) {
	dir := s.journalDir()
	if dir == "" {
		WriteError(w, http.StatusNotFound, "this node has no journal")
		return
	}
	from := uint64(1)
	if fs := r.URL.Query().Get("from"); fs != "" {
		v, err := strconv.ParseUint(fs, 10, 64)
		if err != nil || v == 0 {
			WriteError(w, http.StatusBadRequest, "bad from: must be a sequence number >= 1")
			return
		}
		from = v
	}
	limit := DefaultJournalRecordsLimit
	if ls := r.URL.Query().Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 {
			WriteError(w, http.StatusBadRequest, "bad limit")
			return
		}
		if v > MaxJournalRecordsLimit {
			v = MaxJournalRecordsLimit // clamp; pagers just take more pages
		}
		limit = v
	}
	resp := JournalRecordsResponse{Records: []JournalRecordJSON{}}
	stats, err := journal.ReplayFrom(dir, from, func(seq uint64, rv journal.Review) error {
		if len(resp.Records) >= limit {
			resp.More = true
			return errPageFull
		}
		resp.Records = append(resp.Records, JournalRecordJSON{
			Seq: seq, ID: rv.ID, EntityID: rv.EntityID,
			Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
		return nil
	})
	if err != nil && !errors.Is(err, errPageFull) {
		WriteError(w, http.StatusInternalServerError, "journal read: %v", err)
		return
	}
	resp.LastSeq = stats.LastSeq
	if resp.More || len(resp.Records) == 0 {
		// The page stopped early (or delivered nothing), so the scan never
		// reached the journal's end; report the real end — from the cheap
		// final-segment probe, not a full rescan, so paged backfills stay
		// linear in the journal — so pagers know how far they still have
		// to go.
		if last, _, err := journal.TailInfo(dir); err == nil {
			resp.LastSeq = last
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// errPageFull stops a records scan once the page limit is reached.
var errPageFull = errors.New("server: journal records page full")
