package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// EngineStats are the engine's numbers from the replay.
type EngineStats struct {
	Query, TopK, Interpret, Prepare, Apply []float64 // µs per call
	TopKAccesses, TopKRows                 int
	TopKLegs, TopKMemoHits                 int
}

// replayEngine times the engine's share of every recorded read and
// write leg. Each shard's copy is loaded from its snapshot and brought
// to the state the traced phase started from: every write its first
// node journaled below startSeqs (by node) is applied to it, so the
// copy holds the same reviews as the live nodes did, and its
// domain-match memo the phrases those reviews brought. The shard's legs are then replayed in
// start order through core.DB's public calls: the query, topk or
// interpret calls the shard server makes, and PrepareReview +
// ApplyPrepared for a write (once per shard, so the copy's state follows
// the run's). A topk leg the node's memo would have answered costs no
// engine time; the replay keeps a memo per node with the server's size
// and its drop-everything-on-write rule. The engine spans it adds start
// where their leg starts: they mark how much of the leg the engine took,
// not when.
func replayEngine(f *Fleet, rec *Recorder, startSeqs []uint64) (*EngineStats, error) {
	rec.mu.Lock()
	byShard := map[int][]*Span{}
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.Name == spanLeg && !s.Failed {
			shard := s.Node / f.Replicas
			byShard[shard] = append(byShard[shard], s)
		}
	}
	rec.mu.Unlock()

	st := &EngineStats{}
	var engine []Span
	for shard := range f.Manifest.Shard {
		legs := byShard[shard]
		if len(legs) == 0 {
			continue
		}
		sort.Slice(legs, func(i, j int) bool { return legs[i].Start < legs[j].Start })
		db, _, err := snapshot.LoadVerifiedShard(f.ManifestPath, f.Manifest, shard)
		if err != nil {
			return nil, fmt.Errorf("replay: load shard %d: %w", shard, err)
		}
		first := startSeqs[shard*f.Replicas]
		_, err = journal.Replay(f.JournalDirs[shard][0], func(seq uint64, rv journal.Review) error {
			if seq >= first {
				return nil
			}
			return db.ApplyReview(core.ReviewData{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text})
		})
		if err != nil {
			return nil, fmt.Errorf("replay: shard %d to the traced phase's start: %w", shard, err)
		}
		memo := map[int]*lru.Cache[string, struct{}]{}
		type writeCost struct{ prep, apply int64 }
		writes := map[string]writeCost{}
		for _, leg := range legs {
			if memo[leg.Node] == nil {
				memo[leg.Node] = lru.New[string, struct{}](server.DefaultTopKMemoEntries)
			}
			at := func(name string, offset, d int64) {
				engine = append(engine, Span{
					Name: name, Parent: leg.ID, Req: leg.Req, Node: leg.Node,
					Start: leg.Start + offset, End: leg.Start + offset + d, Replayed: true,
				})
			}
			path, rawQuery, _ := strings.Cut(leg.Target, "?")
			switch {
			case path == "/query":
				var q server.QueryRequest
				if err := json.Unmarshal(leg.Body, &q); err != nil {
					return nil, fmt.Errorf("replay: query body: %w", err)
				}
				opts := core.DefaultQueryOptions()
				if q.K > 0 {
					opts.TopK = q.K
				}
				t0 := time.Now()
				if _, err := db.QueryWithOptions(q.SQL, opts); err != nil {
					return nil, fmt.Errorf("replay: query: %w", err)
				}
				d := time.Since(t0).Nanoseconds()
				st.Query = append(st.Query, float64(d)/1e3)
				at(spanQuery, 0, d)
			case path == "/topk":
				v, err := url.ParseQuery(rawQuery)
				if err != nil {
					return nil, fmt.Errorf("replay: topk target: %w", err)
				}
				preds := v["predicate"]
				k, _ := strconv.Atoi(v.Get("k"))
				st.TopKLegs++
				key := strconv.Itoa(k) + "\x1f" + strings.Join(preds, "\x1f")
				if _, hit := memo[leg.Node].Get(key); hit {
					st.TopKMemoHits++
					continue
				}
				t0 := time.Now()
				rows, stats, err := db.TopKThreshold(preds, k)
				if err != nil {
					return nil, fmt.Errorf("replay: topk: %w", err)
				}
				d := time.Since(t0).Nanoseconds()
				memo[leg.Node].Put(key, struct{}{})
				st.TopK = append(st.TopK, float64(d)/1e3)
				st.TopKAccesses += stats.SortedAccesses
				st.TopKRows += len(rows)
				at(spanTopK, 0, d)
			case path == "/interpret":
				v, err := url.ParseQuery(rawQuery)
				if err != nil {
					return nil, fmt.Errorf("replay: interpret target: %w", err)
				}
				p := v.Get("predicate")
				t0 := time.Now()
				db.Interpret(p)
				db.InterpretW2VOnly(p)
				db.InterpretCooccurOnly(p)
				d := time.Since(t0).Nanoseconds()
				st.Interpret = append(st.Interpret, float64(d)/1e3)
				at(spanInterp, 0, d)
			case path == "/reviews" && leg.Method == http.MethodPost:
				var rq server.ReviewRequest
				if err := json.Unmarshal(leg.Body, &rq); err != nil {
					return nil, fmt.Errorf("replay: review body: %w", err)
				}
				c, done := writes[rq.ID]
				if !done {
					t0 := time.Now()
					p, err := db.PrepareReview(core.ReviewData{ID: rq.ID, EntityID: rq.EntityID, Reviewer: rq.Reviewer, Day: rq.Day, Text: rq.Text})
					if err != nil {
						return nil, fmt.Errorf("replay: prepare %s: %w", rq.ID, err)
					}
					t1 := time.Now()
					if err := db.ApplyPrepared(p); err != nil {
						return nil, fmt.Errorf("replay: apply %s: %w", rq.ID, err)
					}
					c = writeCost{t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()}
					writes[rq.ID] = c
				}
				// Every node prepares and applies the write itself.
				st.Prepare = append(st.Prepare, float64(c.prep)/1e3)
				st.Apply = append(st.Apply, float64(c.apply)/1e3)
				memo[leg.Node].Clear()
				at(spanPrepare, 0, c.prep)
				at(spanApply, leg.dur()-c.apply, c.apply)
			}
		}
	}
	for _, s := range engine {
		rec.add(s)
	}
	return st, nil
}
