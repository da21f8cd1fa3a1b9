package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/router"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent links a span to the span that caused it. Times are
// nanoseconds from the recorder's epoch.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // request spans: the op kind
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replayed marks engine spans timed by replaying the leg on a fresh
	// copy of its shard after the run, not measured in flight.
	Replayed bool `json:"replayed,omitempty"`

	// Leg detail, kept for the engine replay and the per-layer counts.
	Method string   `json:"method,omitempty"`
	Target string   `json:"target,omitempty"`
	Body   []byte   `json:"-"`
	Status int      `json:"status,omitempty"`
	Bytes  int      `json:"bytes,omitempty"`
	Failed bool     `json:"failed,omitempty"`
	Owner  bool     `json:"owner,omitempty"`
	Review []string `json:"reviews,omitempty"` // journal.append: the batch's review ids
}

func (s *Span) dur() int64 { return s.End - s.Start }

// Span names.
const (
	spanRequest = "request"        // due -> answer read; the front-door latency
	spanLate    = "loadgen.late"   // due -> sent
	spanClient  = "client.http"    // sent -> answer read
	spanHandler = "router.handler" // the router's http.Handler
	spanLeg     = "server.leg"     // one node's Backend.Do
	spanAppend  = "journal.append" // one AppendBatch call on a node
	spanFsync   = "journal.fsync"  // one fsync, from the journal's observer
	spanQuery   = "core.query"
	spanTopK    = "core.topk"
	spanInterp  = "core.interpret"
	spanPrepare = "core.prepare"
	spanApply   = "core.apply"
)

type reqKey struct{}

// Recorder collects spans in memory while on. The fleet's wrappers
// check on first, so a traced fleet runs its untraced phases with one
// atomic load per seam.
type Recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span

	// appending holds, per node, the id of the journal.append span in
	// progress, so an fsync can name its parent.
	appendMu  sync.Mutex
	appending map[int]int64
}

func newRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), appending: map[int]int64{}}
}

func (r *Recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *Recorder) add(s Span) int64 {
	if s.ID == 0 {
		s.ID = r.nextID.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

func reqOf(ctx context.Context) int64 {
	if id, ok := ctx.Value(reqKey{}).(int64); ok {
		return id
	}
	return -1
}

// wrapHandler times the router's handler and puts the request id the
// client sent into the context; the router hands that context to every
// leg.
func (r *Recorder) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id, err := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		if err != nil {
			id = -1
		}
		start := r.now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), reqKey{}, id)))
		r.add(Span{Name: spanHandler, Req: id, Node: -1, Start: start, End: r.now()})
	})
}

// tracedBackend times one node's Backend.Do.
type tracedBackend struct {
	inner router.Backend
	node  int
	rec   *Recorder
}

func (b *tracedBackend) Name() string { return b.inner.Name() }

func (b *tracedBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	if !b.rec.on.Load() {
		return b.inner.Do(ctx, method, target, body)
	}
	start := b.rec.now()
	status, resp, err := b.inner.Do(ctx, method, target, body)
	b.rec.add(Span{
		Name: spanLeg, Req: reqOf(ctx), Node: b.node, Start: start, End: b.rec.now(),
		Method: method, Target: target, Body: body, Status: status, Bytes: len(resp),
		Failed: err != nil || status >= 500,
	})
	return status, resp, err
}

// wrapAppendBatch times one node's journal appends.
func (r *Recorder) wrapAppendBatch(node int, inner func([]core.ReviewData) (uint64, error)) func([]core.ReviewData) (uint64, error) {
	return func(rvs []core.ReviewData) (uint64, error) {
		if !r.on.Load() {
			return inner(rvs)
		}
		id := r.nextID.Add(1)
		ids := make([]string, len(rvs))
		for i, rv := range rvs {
			ids[i] = rv.ID
		}
		r.appendMu.Lock()
		r.appending[node] = id
		r.appendMu.Unlock()
		start := r.now()
		seq, err := inner(rvs)
		end := r.now()
		r.appendMu.Lock()
		delete(r.appending, node)
		r.appendMu.Unlock()
		r.add(Span{ID: id, Name: spanAppend, Req: -1, Node: node, Start: start, End: end, Review: ids, Failed: err != nil})
		return seq, err
	}
}

// fsync records one fsync of node's journal; the observer runs inside
// the append it belongs to.
func (r *Recorder) fsync(node int, d time.Duration) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	r.appendMu.Lock()
	parent := r.appending[node]
	r.appendMu.Unlock()
	r.add(Span{Name: spanFsync, Parent: parent, Req: -1, Node: node, Start: end - d.Nanoseconds(), End: end})
}

// addRequests records the client-side spans of a traced phase: the
// request root from due to answer, split into generator lateness and
// the HTTP exchange. Request ids are the samples' indexes.
func (r *Recorder) addRequests(phaseStart int64, samples []Sample) {
	for i, s := range samples {
		root := r.add(Span{Name: spanRequest, Op: opNames[s.Op], Req: int64(i), Node: -1, Start: phaseStart + s.Due, End: phaseStart + s.Done, Failed: !s.OK})
		r.add(Span{Name: spanLate, Parent: root, Req: int64(i), Node: -1, Start: phaseStart + s.Due, End: phaseStart + s.Sent})
		r.add(Span{Name: spanClient, Parent: root, Req: int64(i), Node: -1, Start: phaseStart + s.Sent, End: phaseStart + s.Done})
	}
}

// link fills in parents the wrappers could not know: a handler's parent
// is its request's client span, a leg's its request's handler, and an
// append's the leg that carried the first review of its batch on that
// node.
func (r *Recorder) link() {
	r.mu.Lock()
	defer r.mu.Unlock()
	client := map[int64]int64{}
	handler := map[int64]int64{}
	for _, s := range r.spans {
		switch s.Name {
		case spanClient:
			client[s.Req] = s.ID
		case spanHandler:
			handler[s.Req] = s.ID
		}
	}
	type nodeReview struct {
		node int
		id   string
	}
	legOf := map[nodeReview]int{}
	for i := range r.spans {
		s := &r.spans[i]
		switch s.Name {
		case spanHandler:
			s.Parent = client[s.Req]
		case spanLeg:
			s.Parent = handler[s.Req]
			if s.Method == http.MethodPost && s.Target == "/reviews" {
				var rv struct {
					ID      string `json:"id"`
					Replica bool   `json:"replica"`
				}
				if json.Unmarshal(s.Body, &rv) == nil {
					s.Owner = !rv.Replica
					legOf[nodeReview{s.Node, rv.ID}] = i
				}
			}
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != spanAppend || len(s.Review) == 0 {
			continue
		}
		if li, ok := legOf[nodeReview{s.Node, s.Review[0]}]; ok {
			s.Parent, s.Req = r.spans[li].ID, r.spans[li].Req
		}
	}
}

// write saves every span as one JSON object per line.
func (r *Recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it its
// children cover, by span id.
func selfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]*Span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is how much of [start, end) the union of kids' intervals
// covers.
func covered(start, end int64, kids []*Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}
