package harness

// Scenario-table tests: the table against its callers (the Makefile
// smoke targets), and the load and trace gates on synthetic inputs. The
// full table runs end to end in the CI smoke jobs, not here.

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestScenarioTable requires every `-scenario <name>` in the Makefile to
// name a table entry, every entry to be reached by some Makefile target,
// unique names, and at least one gate per entry.
func TestScenarioTable(t *testing.T) {
	raw, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	for _, m := range regexp.MustCompile(`-scenario\s+(\S+)`).FindAllStringSubmatch(string(raw), -1) {
		called[m[1]] = true
		if _, err := LookupScenario(m[1]); err != nil {
			t.Errorf("Makefile runs %v", err)
		}
	}
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if seen[sc.Name] {
			t.Errorf("scenario %q listed twice", sc.Name)
		}
		seen[sc.Name] = true
		if !called[sc.Name] {
			t.Errorf("scenario %q is reached by no Makefile target", sc.Name)
		}
		if len(sc.Gates) == 0 {
			t.Errorf("scenario %q has no gates", sc.Name)
		}
		for _, g := range sc.Gates {
			if g.Name == "" || g.Check == nil {
				t.Errorf("scenario %q has an unnamed or empty gate", sc.Name)
			}
		}
	}
}

func TestCheckLoad(t *testing.T) {
	measured := LoadOpStats{Ops: 10, P50Micros: 100, P99Micros: 900}
	allOps := func() map[string]LoadOpStats {
		return map[string]LoadOpStats{"query": measured, "topk": measured, "interpret": measured, "reviews": measured}
	}
	cases := []struct {
		name    string
		res     LoadResult
		mix     LoadMix
		wantErr string
	}{
		{"clean run", LoadResult{TotalOps: 40, PerOp: allOps()}, DefaultLoadMix(), ""},
		{"run error", LoadResult{Err: "load: empty request vocabulary"}, DefaultLoadMix(), "vocabulary"},
		{"request errors", LoadResult{TotalOps: 40, TotalErrors: 1, PerOp: allOps()}, DefaultLoadMix(), "1 of 40 requests failed"},
		{
			"weighted kind never ran",
			LoadResult{TotalOps: 30, PerOp: map[string]LoadOpStats{"query": measured, "topk": measured, "interpret": measured}},
			DefaultLoadMix(), "op reviews has weight 1 but completed no operations",
		},
		{
			"unweighted kind may be absent",
			LoadResult{TotalOps: 20, PerOp: map[string]LoadOpStats{"query": measured, "topk": measured}},
			LoadMix{Query: 1, TopK: 1}, "",
		},
		{
			"unmeasured p99",
			LoadResult{TotalOps: 40, PerOp: func() map[string]LoadOpStats {
				m := allOps()
				m["topk"] = LoadOpStats{Ops: 10}
				return m
			}()},
			DefaultLoadMix(), "op topk: zero p99",
		},
		{"non-durable ack", LoadResult{TotalOps: 40, NonDurableAcks: 2, PerOp: allOps()}, DefaultLoadMix(), "2 write acks lacked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkLoad(c.res, c.mix)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("got %v, want an error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestCheckHedgeTrace(t *testing.T) {
	attrs := func(kv ...string) []trace.Attr {
		var out []trace.Attr
		for i := 0; i < len(kv); i += 2 {
			out = append(out, trace.Attr{Key: kv[i], Value: kv[i+1]})
		}
		return out
	}
	wonLeg := trace.SpanJSON{Name: "router.leg", Attrs: attrs("shard", "0", "replica", "1", "hedge_fired", "true", "hedge_won", "true")}
	serverSpan := trace.SpanJSON{Name: "server.topk"}
	cases := []struct {
		name   string
		traces []trace.TraceJSON
		ok     bool
	}{
		{"empty store", nil, false},
		{"hedge-won leg joined to server spans", []trace.TraceJSON{{TraceID: "a", Spans: []trace.SpanJSON{{Name: "router.topk"}, wonLeg, serverSpan}}}, true},
		{"won leg without server spans", []trace.TraceJSON{{TraceID: "a", Spans: []trace.SpanJSON{wonLeg}}}, false},
		{"server spans without a hedge win", []trace.TraceJSON{{TraceID: "a", Spans: []trace.SpanJSON{
			{Name: "router.leg", Attrs: attrs("shard", "0", "replica", "0")}, serverSpan,
		}}}, false},
		{"win lacks replica attribution", []trace.TraceJSON{{TraceID: "a", Spans: []trace.SpanJSON{
			{Name: "router.leg", Attrs: attrs("shard", "0", "hedge_won", "true")}, serverSpan,
		}}}, false},
		{"win and server spans in different traces", []trace.TraceJSON{
			{TraceID: "a", Spans: []trace.SpanJSON{wonLeg}},
			{TraceID: "b", Spans: []trace.SpanJSON{serverSpan}},
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := checkHedgeTrace(c.traces); (err == nil) != c.ok {
				t.Fatalf("checkHedgeTrace = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// TestWriteHeavyFleetReplaysIdentically runs the `write` scenario (the
// in-process half of `make write-smoke`) for 1.5s: a write-heavy mix
// drives a journaled routed fleet at high concurrency, then every
// journaled write replays into the pre-fleet monolith in its owner's
// commit order, and the fleet must answer the full query set
// byte-identically (the scenario's fingerprint gate fails the run
// otherwise). This is the contract ReplayOwnedWrites documents —
// single-node journal order is NOT enough, because concurrent writers
// interleave differently at different nodes and summary centroids are
// float-order-sensitive.
func TestWriteHeavyFleetReplaysIdentically(t *testing.T) {
	ctx := context.Background()
	sc, err := LookupScenario("write")
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 1500 * time.Millisecond
	r, err := RunScenario(ctx, sc, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Load
	if res.Err != "" {
		t.Fatalf("load run: %s", res.Err)
	}
	if res.TotalErrors != 0 {
		t.Fatalf("%d request errors under write-heavy load", res.TotalErrors)
	}
	if res.PerOp["reviews"].Ops == 0 {
		t.Fatal("no writes flowed; the gate proved nothing")
	}
	if r.Replayed < res.PerOp["reviews"].Ops {
		t.Fatalf("replayed %d writes, but %d were acked", r.Replayed, res.PerOp["reviews"].Ops)
	}
	if r.Entries != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", r.Entries)
	}
}
