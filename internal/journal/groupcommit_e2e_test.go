package journal_test

// End-to-end tests of the group-commit write pipeline: N concurrent
// writers share one fsync per batch, yet the journal records one
// serialized order whose replay — and whose re-journaled bytes — are
// indistinguishable from sequential ingestion; the bounded commit queue
// sheds load with 503 + Retry-After; duplicates within one batch get the
// same 409 a replayed duplicate would; and a SIGKILL mid-batch loses
// nothing that was acknowledged (ack ⇒ fsynced).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/server"
)

// batchIngest returns IngestOptions whose AppendBatch feeds j — the
// group-commit pipeline's canonical wiring (one fsync per batch).
func batchIngest(j *journal.Journal) *server.IngestOptions {
	return &server.IngestOptions{AppendBatch: server.JournalAppendBatch(j)}
}

// postReview posts one review and decodes the ack (or the error body).
func postReview(t *testing.T, url string, req server.ReviewRequest) (int, server.ReviewResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/reviews", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack server.ReviewResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("decode ack: %v", err)
		}
	}
	return resp.StatusCode, ack, resp.Header
}

// journalBytes concatenates every segment file's bytes in order (the
// zero-padded names sort correctly).
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var all []byte
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

// TestGroupCommitDeterminism is the pipeline's core contract: 16
// concurrent writers, batch boundaries falling wherever scheduling puts
// them, and yet (a) every ack is durable, (b) the journal's bytes are
// exactly what sequential appends of the recovered order would write,
// and (c) snapshot + replay fingerprints byte-identically to the live,
// concurrently mutated database over the full 948-entry query set.
func TestGroupCommitDeterminism(t *testing.T) {
	d, _, snap := e2eFixture(t)
	db := loadBase(t, snap)
	jdir := filepath.Join(t.TempDir(), "group.journal")
	j, err := journal.Open(jdir, journal.Options{SyncEvery: 1000}) // batches fsync regardless
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(db, server.Options{Ingest: batchIngest(j)}))
	defer srv.Close()

	entities := db.EntityIDs()
	texts := []string{
		"The room was very clean and the staff was friendly.",
		"Dirty bathroom and rude service, terrible stay.",
		"Comfortable bed, excellent breakfast, great location.",
		"The pool area was noisy but the view was amazing.",
	}
	const writers, perWriter = 16, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				req := server.ReviewRequest{
					ID:       fmt.Sprintf("gc-%d-%d", w, i),
					EntityID: entities[(w*perWriter+i)%len(entities)],
					Reviewer: fmt.Sprintf("writer%d", w),
					Day:      4100 + i,
					Text:     texts[(w+i)%len(texts)],
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+"/reviews", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var ack server.ReviewResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs <- fmt.Errorf("write %s: status %d (%v)", req.ID, resp.StatusCode, decErr)
					return
				}
				if !ack.Owned || ack.Seq == 0 || !ack.Durable {
					errs <- fmt.Errorf("write %s: ack %+v, want owned durable nonzero seq", req.ID, ack)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// (b) Re-journal the recovered order with plain sequential appends;
	// the bytes must match what the batched commits wrote.
	var order []journal.Review
	if _, err := journal.Replay(jdir, func(seq uint64, rv journal.Review) error {
		order = append(order, rv)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != writers*perWriter {
		t.Fatalf("journal holds %d records, want %d", len(order), writers*perWriter)
	}
	seqDir := filepath.Join(t.TempDir(), "seq.journal")
	js, err := journal.Open(seqDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range order {
		if _, err := js.Append(rv); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journalBytes(t, jdir), journalBytes(t, seqDir)) {
		t.Fatal("group-committed journal bytes differ from sequential appends of the same order")
	}

	// (c) Replay-vs-live fingerprint identity over the full query set.
	liveFP, n := harness.QueryFingerprint(d, db)
	if n != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", n)
	}
	replayed := loadBase(t, snap)
	st, err := journal.ApplyAll(replayed, jdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != writers*perWriter {
		t.Fatalf("replay applied %d, want %d", st.Applied, writers*perWriter)
	}
	replayFP, _ := harness.QueryFingerprint(d, replayed)
	if replayFP != liveFP {
		t.Fatal("snapshot+journal replay diverges from the group-committed live database")
	}
}

// gatedIngest wraps batchIngest so the FIRST AppendBatch call signals
// entered and blocks until gate closes — a deterministic way to hold a
// leader mid-commit while the test stages writes behind it.
func gatedIngest(j *journal.Journal, entered chan<- struct{}, gate <-chan struct{}) *server.IngestOptions {
	inner := batchIngest(j)
	var once sync.Once
	return &server.IngestOptions{
		MaxQueueDepth: 1,
		AppendBatch: func(rvs []core.ReviewData) (uint64, error) {
			blocked := false
			once.Do(func() { blocked = true })
			if blocked {
				close(entered)
				<-gate
			}
			return inner.AppendBatch(rvs)
		},
	}
}

// metricValue scrapes one un-labeled series from /metrics.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestGroupCommitBackpressureAndBatchDuplicates holds a leader mid-fsync
// and drives the two queue-edge contracts behind it: a write arriving at
// the full queue is refused with 503 + Retry-After (never silently
// dropped, never unbounded), and two writes with the same ID staged into
// one batch resolve exactly like a write-then-duplicate: one 200, one
// 409.
func TestGroupCommitBackpressureAndBatchDuplicates(t *testing.T) {
	_, _, snap := e2eFixture(t)
	db := loadBase(t, snap)
	jdir := filepath.Join(t.TempDir(), "gated.journal")
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	entered := make(chan struct{})
	gate := make(chan struct{})
	srv := httptest.NewServer(server.New(db, server.Options{
		Ingest: gatedIngest(j, entered, gate),
	}))
	defer srv.Close()
	entities := db.EntityIDs()
	mkReq := func(id string, day int) server.ReviewRequest {
		return server.ReviewRequest{
			ID: id, EntityID: entities[0], Reviewer: "gate", Day: day,
			Text: "The room was very clean and the staff was friendly.",
		}
	}

	// Leader: commits alone, then blocks inside AppendBatch.
	type result struct {
		status int
		ack    server.ReviewResponse
	}
	leaderDone := make(chan result)
	go func() {
		status, ack, _ := postReview(t, srv.URL, mkReq("gate-leader", 1))
		leaderDone <- result{status, ack}
	}()
	<-entered // the leader has drained the queue and is inside the fsync

	// Stage a duplicate pair behind it; the queue (depth 1) admits only
	// the first.
	stagedDone := make(chan result)
	go func() {
		status, ack, _ := postReview(t, srv.URL, mkReq("gate-dup", 2))
		stagedDone <- result{status, ack}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, srv.URL, server.MetricCommitQueueDepth) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("staged write never appeared on the commit queue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Queue full: the next write must be refused, not queued.
	status, _, hdr := postReview(t, srv.URL, mkReq("gate-overflow", 3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("write at full queue: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if v := metricValue(t, srv.URL, server.MetricCommitBackpressureTotal); v < 1 {
		t.Fatalf("backpressure counter = %v after a refused write", v)
	}

	// Release the leader; the staged write commits in the next batch.
	close(gate)
	if r := <-leaderDone; r.status != http.StatusOK || !r.ack.Durable {
		t.Fatalf("leader: status %d ack %+v, want durable 200", r.status, r.ack)
	}
	if r := <-stagedDone; r.status != http.StatusOK || !r.ack.Durable {
		t.Fatalf("staged write: status %d ack %+v, want durable 200", r.status, r.ack)
	}

	// Batch-internal duplicate: the id already committed above answers
	// 409 whether it is validated against applied state or within its own
	// batch.
	if status, _, _ := postReview(t, srv.URL, mkReq("gate-dup", 4)); status != http.StatusConflict {
		t.Fatalf("duplicate write: status %d, want 409", status)
	}
}

// TestGroupCommitVolatileAck pins the ack semantics without a journal:
// the pipeline still serializes and applies, but Seq stays 0 and Durable
// false — a client can always distinguish a durable ack from a volatile
// one.
func TestGroupCommitVolatileAck(t *testing.T) {
	_, _, snap := e2eFixture(t)
	db := loadBase(t, snap)
	srv := httptest.NewServer(server.New(db, server.Options{
		Ingest: &server.IngestOptions{},
	}))
	defer srv.Close()
	status, ack, _ := postReview(t, srv.URL, server.ReviewRequest{
		ID: "volatile-1", EntityID: db.EntityIDs()[0], Reviewer: "v", Day: 1,
		Text: "The room was very clean.",
	})
	if status != http.StatusOK {
		t.Fatalf("volatile write: status %d", status)
	}
	if ack.Seq != 0 || ack.Durable {
		t.Fatalf("volatile ack %+v, want seq 0 and durable false", ack)
	}
}

// TestGroupCommitSIGKILLMidBatch crash-kills a real group-committing
// server (re-executing this test binary) while 8 concurrent writers
// stream reviews, then asserts the durability contract: every
// acknowledged write survives — acks imply fsync even when the fsync was
// shared with a whole batch — and the surviving journal replays cleanly
// into the base snapshot.
func TestGroupCommitSIGKILLMidBatch(t *testing.T) {
	if dir := os.Getenv("GROUPCOMMIT_CRASH_DIR"); dir != "" {
		groupCommitCrashChild(dir, os.Getenv("GROUPCOMMIT_CRASH_SNAP"))
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash drill skipped in -short")
	}
	_, _, snap := e2eFixture(t)
	dir := filepath.Join(t.TempDir(), "crash.journal")
	cmd := exec.Command(os.Args[0], "-test.run", "TestGroupCommitSIGKILLMidBatch")
	cmd.Env = append(os.Environ(),
		"GROUPCOMMIT_CRASH_DIR="+dir, "GROUPCOMMIT_CRASH_SNAP="+snap)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var maxAcked uint64
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
			if seq, err := strconv.ParseUint(s, 10, 64); err == nil && seq > maxAcked {
				maxAcked = seq
			}
		}
		if maxAcked >= 48 || time.Now().After(deadline) {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	_ = cmd.Wait()
	if maxAcked < 48 {
		t.Fatalf("worker only acknowledged %d writes", maxAcked)
	}

	// Every acknowledged sequence must survive. Acks are contiguous from
	// 1 (the journal assigns them), so recovering through maxAcked covers
	// them all; a torn unacknowledged tail beyond it is fine.
	var lastSeq uint64
	stats, err := journal.Replay(dir, func(seq uint64, rv journal.Review) error {
		lastSeq = seq
		return nil
	})
	if err != nil {
		t.Fatalf("replay after SIGKILL: %v", err)
	}
	if lastSeq < maxAcked {
		t.Fatalf("recovered through seq %d, but seq %d was acknowledged durable", lastSeq, maxAcked)
	}
	if stats.TailErr != nil {
		t.Logf("torn unacknowledged tail dropped: %d bytes (%v)", stats.DroppedBytes, stats.TailErr)
	}
	// The surviving journal replays cleanly into the base.
	db := loadBase(t, snap)
	st, err := journal.ApplyAll(db, dir)
	if err != nil {
		t.Fatalf("apply after SIGKILL: %v", err)
	}
	if uint64(st.Applied) != lastSeq {
		t.Fatalf("applied %d deltas, journal holds %d", st.Applied, lastSeq)
	}
}

// groupCommitCrashChild is the worker half of the SIGKILL drill: a
// group-committing server fed by 8 concurrent writers, printing every
// durable ack's sequence until killed.
func groupCommitCrashChild(dir, snap string) {
	db, _, _, err := journal.LoadWithJournal(snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child load:", err)
		os.Exit(1)
	}
	j, err := journal.Open(dir, journal.Options{SyncEvery: 1000, SegmentMaxBytes: 8 << 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child journal:", err)
		os.Exit(1)
	}
	srv := httptest.NewServer(server.New(db, server.Options{Ingest: batchIngest(j)}))
	entities := db.EntityIDs()
	var mu sync.Mutex
	w := bufio.NewWriter(os.Stdout)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; ; i++ {
				req := server.ReviewRequest{
					ID:       fmt.Sprintf("crash-%d-%d", g, i),
					EntityID: entities[(g+i)%len(entities)],
					Reviewer: fmt.Sprintf("w%d", g),
					Day:      4000 + i,
					Text:     "The room was very clean and the staff was friendly.",
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+"/reviews", "application/json", bytes.NewReader(body))
				if err != nil {
					fmt.Fprintln(os.Stderr, "crash child post:", err)
					os.Exit(1)
				}
				var ack server.ReviewResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil || !ack.Durable {
					fmt.Fprintf(os.Stderr, "crash child ack: status %d durable %v (%v)\n",
						resp.StatusCode, ack.Durable, decErr)
					os.Exit(1)
				}
				mu.Lock()
				fmt.Fprintf(w, "acked %d\n", ack.Seq)
				w.Flush()
				mu.Unlock()
			}
		}(g)
	}
	select {} // killed by the parent
}
