package main

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/server"
	"repro/internal/textproc"
)

func smallVocab(t *testing.T) Vocab {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.SmallConfig()
	gen.Seed = spec.CorpusSeed
	v := vocabOf(corpus.GenerateHotels(gen))
	v.Texts = writeTexts(spec)
	return v
}

// The request stream is a pure function of (workload, seed): the same
// arguments give the same requests, a longer stream extends a shorter
// one, and another seed or phase gives another stream.
func TestGenerateIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	v := smallVocab(t)
	for _, w := range spec.Workloads {
		a := generate(w, v, 7, streamOpen, 600)
		if b := generate(w, v, 7, streamOpen, 600); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", w.Name)
		}
		if b := generate(w, v, 7, streamOpen, 250); !reflect.DeepEqual(a[:250], b) {
			t.Errorf("%s: a 250-request stream is not a prefix of the 600-request one", w.Name)
		}
		if b := generate(w, v, 8, streamOpen, 600); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
		if b := generate(w, v, 7, streamClosed, 600); reflect.DeepEqual(a, b) {
			t.Errorf("%s: the open and closed phases share a stream", w.Name)
		}
		var ops [numOps]int
		for _, r := range a {
			ops[r.Op]++
		}
		for op, weight := range [numOps]int{w.Mix.Query, w.Mix.TopK, w.Mix.Interpret, w.Mix.Reviews} {
			if (weight > 0) != (ops[op] > 0) {
				t.Errorf("%s: mix weight %d for %s but %d requests", w.Name, weight, opNames[op], ops[op])
			}
		}
	}
}

// Writes from different phases of one run never collide on a review id,
// and no review text is written twice in a run.
func TestGeneratedReviewIDsAreUniqueAcrossPhases(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.workload("write_mix")
	if err != nil {
		t.Fatal(err)
	}
	v := smallVocab(t)
	ids, texts := map[string]bool{}, map[string]bool{}
	for _, stream := range []int{streamWarmup, streamOpen, streamClosed, streamTraced} {
		for _, r := range generate(w, v, 3, stream, 2000) {
			if r.Op != opReview {
				continue
			}
			var rv server.ReviewRequest
			if err := json.Unmarshal(r.Body, &rv); err != nil {
				t.Fatal(err)
			}
			if ids[rv.ID] || texts[rv.Text] {
				t.Fatalf("review %s or its text repeats across phases", rv.ID)
			}
			ids[rv.ID], texts[rv.Text] = true, true
		}
	}
}

// Written reviews are realistic text the fleet has not seen, so the
// write path's prepare meets new phrases as well as memoized ones.
// core's domain-match memo keys on (attribute, phrase) and is never
// invalidated; a phrase in an attribute's domain short-circuits before
// it. The test replays the memo's keying over the write texts of a
// warm-up and an 18 s open-loop phase (a --seconds 24 run) and
// requires a share of the open phase's lookups to miss. The measured
// ratios are recorded in workloads.json.
func TestWriteTextsReachTheDomainMatchScan(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.workload("write_mix")
	if err != nil {
		t.Fatal(err)
	}
	_, db, err := buildMonolith(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	v := smallVocab(t)
	seen := map[string]bool{}
	var exts, exact, lookups, hits int
	for _, phase := range []struct {
		stream  int
		seconds float64
	}{{streamWarmup, warmupSeconds}, {streamOpen, 24 * openLoopShare}} {
		exts, exact, lookups, hits = 0, 0, 0, 0
		for _, r := range generate(w, v, 1, phase.stream, int(w.OfferedRate*phase.seconds)) {
			if r.Op != opReview {
				continue
			}
			var rv server.ReviewRequest
			if err := json.Unmarshal(r.Body, &rv); err != nil {
				t.Fatal(err)
			}
			for _, sent := range textproc.Sentences(rv.Text) {
				for _, op := range db.Extractor.Extract(textproc.Tokenize(sent)) {
					if op.Phrase == "" {
						continue
					}
					full := op.Phrase
					if op.Aspect != "" {
						full = op.Aspect + " " + op.Phrase
					}
					exts++
					if inDomain(db, full) {
						exact++
						continue
					}
					lookups++
					if seen[full] {
						hits++
					}
					seen[full] = true
				}
			}
		}
	}
	hitRatio := float64(hits) / float64(max(lookups, 1))
	t.Logf("open phase: %d extractions, %.3f of them in a domain; %d memo lookups, hit ratio %.3f", exts, float64(exact)/float64(max(exts, 1)), lookups, hitRatio)
	if lookups == 0 || hitRatio > 0.95 {
		t.Errorf("the domain-match memo answers %.3f of %d lookups: write texts no longer exercise prepare's cold path", hitRatio, lookups)
	}
}

func inDomain(db *core.DB, phrase string) bool {
	for _, a := range db.Attrs {
		if _, ok := a.MarkerOf(phrase); ok {
			return true
		}
	}
	return false
}

// Against a target that stalls, every request queued behind the stall is
// charged from its due time, and the generator's lateness shows in the
// loadgen figures instead of passing as system latency.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	var calls atomic.Int64
	send := func(i int) (int, bool) {
		if calls.Add(1) <= 2 { // both senders stall on their first request
			time.Sleep(stall)
		}
		return opQuery, true
	}
	samples, _, err := openLoop(1000, 400, 2, send)
	if err != nil {
		t.Fatal(err)
	}
	// Request 40 was due at 40ms, while both senders were stalled.
	s := samples[40]
	late := time.Duration(s.Sent - s.Due)
	lat := time.Duration(s.Done - s.Due)
	if late < stall-45*time.Millisecond {
		t.Errorf("request 40 sent %v after its due time; the stall should have delayed it about %v", late, stall-40*time.Millisecond)
	}
	if lat < late {
		t.Errorf("latency %v is shorter than lateness %v: latency must count from the due time", lat, late)
	}
	fr := summarize(samples)
	if d := distOf(fr.late); d.Tail < float64(stall/4)/1e6 {
		t.Errorf("loadgen lateness tail p%g = %.3f ms; the %v stall does not show", d.TailP*100, d.Tail, stall)
	}
	if d := distOf(fr.all); d.Tail < float64(stall/4)/1e6 {
		t.Errorf("latency tail p%g = %.3f ms; requests queued behind the stall were not charged for it", d.TailP*100, d.Tail)
	}
	// Requests due well after the stall drained are on time again.
	last := samples[len(samples)-1]
	if time.Duration(last.Sent-last.Due) > 20*time.Millisecond {
		t.Errorf("the last request ran %v late; the backlog never drained", time.Duration(last.Sent-last.Due))
	}
}

// The percentile helper reports the highest percentile with at least
// ten samples beyond it, and the sample count.
func TestDistReportsHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{
		{n: 15, tailP: 0},
		{n: 21, tailP: 0.5},
		{n: 100, tailP: 0.9},
		{n: 999, tailP: 0.9},
		{n: 1000, tailP: 0.99},
		{n: 10000, tailP: 0.999},
		{n: 100000, tailP: 0.9999},
	} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(c.n - i) // unsorted on purpose
		}
		d := distOf(v)
		if d.N != c.n || d.TailP != c.tailP {
			t.Errorf("n=%d: got N=%d tail p%g, want tail p%g", c.n, d.N, d.TailP*100, c.tailP*100)
		}
		if d.TailP > 0 {
			if beyond := c.n - int(d.Tail); beyond < 10 {
				t.Errorf("n=%d: p%g=%v has %d samples beyond it", c.n, d.TailP*100, d.Tail, beyond)
			}
		}
	}
}

// A span's self time is its duration minus the union of its children,
// overlapping children counted once.
func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// A write acknowledged without durable:true fails the run.
func TestJudgeFlagsNonDurableWriteAcks(t *testing.T) {
	w := Request{Op: opReview}
	if o := judge(w, []byte(`{"review_id":"r","durable":true,"replicated":7}`)); !o.OK || o.NotDurable {
		t.Errorf("durable ack judged %+v", o)
	}
	if o := judge(w, []byte(`{"review_id":"r","durable":false}`)); o.OK || !o.NotDurable {
		t.Errorf("non-durable ack judged %+v", o)
	}
	if o := judge(w, []byte(`{"review_id":"r","durable":true,"partial":true}`)); o.OK {
		t.Errorf("partially replicated ack judged %+v", o)
	}
	if o := judge(Request{Op: opQuery}, []byte(`{"rows":[],"partial":true}`)); o.OK {
		t.Errorf("partial read judged %+v", o)
	}
}
