package harness

// Load-harness tests: the mixed-traffic runner against a real journaled
// fleet, and the byte-identity contract with /topk fragment memoization
// enabled — the full 948-entry harness fingerprint must be unchanged
// whether fragments come from the memo or from fresh Threshold-Algorithm
// runs.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestFingerprintUnchangedWithTopKMemo runs the full 948-entry harness
// fingerprint against a memoizing fleet twice (the second pass answers
// /topk from memo fragments) and against a memo-disabled control fleet,
// and requires all three byte-identical.
func TestFingerprintUnchangedWithTopKMemo(t *testing.T) {
	ctx := context.Background()
	memoFl, err := BuildLoadFleet(t.TempDir(), LoadFleetOptions{Shards: 3, Seed: 7})
	if err != nil {
		t.Fatalf("memo fleet: %v", err)
	}
	controlFl, err := BuildLoadFleet(t.TempDir(), LoadFleetOptions{Shards: 3, Seed: 7, DisableTopKMemo: true})
	if err != nil {
		t.Fatalf("control fleet: %v", err)
	}

	cold, n := QueryFingerprint(memoFl.Dataset, memoFl.Router.Engine(ctx))
	if n != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", n)
	}
	warm, _ := QueryFingerprint(memoFl.Dataset, memoFl.Router.Engine(ctx))
	if warm != cold {
		t.Errorf("memoized fingerprint differs from cold fingerprint:\n  cold %s\n  warm %s", cold, warm)
	}
	control, cn := QueryFingerprint(controlFl.Dataset, controlFl.Router.Engine(ctx))
	if cn != n {
		t.Errorf("control fingerprint covers %d entries, memo fleet covered %d", cn, n)
	}
	if control != cold {
		t.Errorf("memo-enabled fingerprint differs from memo-disabled control:\n  memo    %s\n  control %s", cold, control)
	}

	// The warm pass must actually have been served from the memo —
	// otherwise this test proves nothing.
	hits := memoFl.Registry.Counter(server.MetricTopKMemoHits, "").Value()
	if hits == 0 {
		t.Error("memo fleet reports zero topk memo hits after a repeated fingerprint pass")
	}
	if got := controlFl.Registry.Counter(server.MetricTopKMemoHits, "").Value(); got != 0 {
		t.Errorf("memo-disabled fleet reports %d memo hits, want 0", got)
	}
}

// TestRunLoadMixJournaledFleet drives a short mixed run — all four op
// kinds — against an in-process journaled fleet and requires clean
// serving with measured latencies.
func TestRunLoadMixJournaledFleet(t *testing.T) {
	fl, err := BuildLoadFleet(t.TempDir(), LoadFleetOptions{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	res := RunLoadMix(context.Background(), HandlerLoadTarget(fl.Handler), fl.Dataset, LoadOptions{
		Mix:         DefaultLoadMix(),
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		Seed:        3,
	})
	if res.Err != "" {
		t.Fatalf("run: %s", res.Err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no operations completed")
	}
	if res.TotalErrors != 0 {
		t.Fatalf("%d request errors: %+v", res.TotalErrors, res.PerOp)
	}
	for _, op := range []string{"query", "topk", "interpret", "reviews"} {
		st, ok := res.PerOp[op]
		if !ok || st.Ops == 0 {
			t.Errorf("op %s: no traffic driven", op)
			continue
		}
		if st.P99Micros <= 0 || st.P50Micros <= 0 {
			t.Errorf("op %s: zero percentiles over %d ops: %+v", op, st.Ops, st)
		}
		if st.P50Micros > st.P99Micros {
			t.Errorf("op %s: p50 %.0f > p99 %.0f", op, st.P50Micros, st.P99Micros)
		}
	}
	// The ingested reviews must have reached the shard journals.
	var journaled bool
	for _, set := range fl.JournalDirs {
		for _, dir := range set {
			if dir != "" {
				journaled = true
			}
		}
	}
	if !journaled {
		t.Error("no shard journal directories were wired")
	}
	// And the shared registry saw the traffic: requests, fsyncs, stages.
	text := fl.Registry.Text()
	for _, want := range []string{
		server.MetricRequestsTotal,
		server.MetricFsyncSeconds,
		server.MetricStageSeconds,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry text missing %s after load run", want)
		}
	}
}

// TestBuildLoadFleetFailsOnNodeJournalError squats a plain file where
// shard 0's journal directory goes: the build must fail, not assemble a
// fleet whose node serves without a journal or an ingest path.
func TestBuildLoadFleetFailsOnNodeJournalError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0.journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fl, err := BuildLoadFleet(dir, LoadFleetOptions{Shards: 2, Seed: 3})
	if err == nil {
		t.Fatalf("fleet built with a squatted journal directory; JournalDirs=%v", fl.JournalDirs)
	}
	if !strings.Contains(err.Error(), "shard 0 replica 0 journal") {
		t.Errorf("error %q does not name the failed node", err)
	}
}

// TestRunLoadMixRejectsEmptyMix guards the runner's input validation.
func TestRunLoadMixRejectsEmptyMix(t *testing.T) {
	res := RunLoadMix(context.Background(), nil, nil, LoadOptions{})
	if res.Err == "" {
		t.Fatal("empty mix accepted")
	}
}

// TestPercentile pins the nearest-rank percentile arithmetic.
func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want float64
	}{
		// Nearest-rank: ceil(q*n)-th smallest — p95 of 10 samples is the
		// 10th value, not an interpolation.
		{0.50, 50}, {0.90, 90}, {0.95, 100}, {0.99, 100}, {1.0, 100},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(q=%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}
