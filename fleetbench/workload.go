package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/corpus"
	"repro/internal/server"
)

//go:embed workloads.json
var specJSON []byte

// Spec is workloads.json: the benchmark's workload definitions.
type Spec struct {
	CorpusSeed    int64      `json:"corpus_seed"`
	WriteTextSeed int64      `json:"write_text_seed"`
	Workloads     []Workload `json:"workloads"`
}

// Workload is one traffic mix against one fleet shape.
type Workload struct {
	Name         string  `json:"name"`
	Corpus       string  `json:"corpus"` // "small" or "default"
	Shards       int     `json:"shards"`
	Replicas     int     `json:"replicas"`
	Mix          Mix     `json:"mix"`
	ConjunctsMin int     `json:"conjuncts_min"`
	ConjunctsMax int     `json:"conjuncts_max"`
	ZipfS        float64 `json:"zipf_s"` // 0 draws predicates uniformly
	OfferedRate  float64 `json:"offered_rate"`
	SetupRepeats int     `json:"setup_repeats"` // set-ups behind setup_s
}

// Mix weights the four operation kinds.
type Mix struct {
	Query     int `json:"query"`
	TopK      int `json:"topk"`
	Interpret int `json:"interpret"`
	Reviews   int `json:"reviews"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, w := range s.Workloads {
		if w.SetupRepeats < 1 {
			return nil, fmt.Errorf("workloads.json: %s: setup_repeats must be at least 1", w.Name)
		}
	}
	if s.WriteTextSeed == s.CorpusSeed {
		return nil, fmt.Errorf("workloads.json: write_text_seed must differ from corpus_seed, or written reviews repeat the fleet's own")
	}
	return &s, nil
}

func (s *Spec) workload(name string) (Workload, error) {
	var names []string
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Op kinds. A request's kind decides which latency series it lands in.
const (
	opQuery = iota
	opTopK
	opInterpret
	opReview
	numOps
)

var opNames = [numOps]string{"query", "topk", "interpret", "reviews"}

// Request is one generated front-door request.
type Request struct {
	Op     int
	Method string
	Target string
	Body   []byte // POST body for reviews, nil otherwise
}

// Vocab is what the generator draws from: the fixed corpus's in-schema
// predicates (in corpus order, so Zipf rank r is always the same
// predicate) and its entity ids, and for writes a pool of review texts.
type Vocab struct {
	Predicates []string
	Entities   []string
	Texts      []string
}

func vocabOf(d *corpus.Dataset) Vocab {
	var v Vocab
	for _, p := range d.Predicates {
		if p.Kind != corpus.KindOutOfSchema {
			v.Predicates = append(v.Predicates, p.Text)
		}
	}
	for _, e := range d.Entities {
		v.Entities = append(v.Entities, e.ID)
	}
	return v
}

// writeTexts is the pool written reviews take their text from: the
// reviews of a default-size hotel corpus generated from another seed
// than the fleet's, so the fleet has never seen them. About 12,000
// distinct texts, more than any run writes, so the phrases a write
// extracts are new to a node as often as realistic text makes them,
// and prepare's domain matching is measured cold as well as memoized.
func writeTexts(spec *Spec) []string {
	gen := corpus.DefaultConfig()
	gen.Seed = spec.WriteTextSeed
	d := corpus.GenerateHotels(gen)
	texts := make([]string, len(d.Reviews))
	for i, r := range d.Reviews {
		texts[i] = r.Text
	}
	return texts
}

// Streams keep the phases of one run apart: each draws its own
// sequence from the same seed, and writes in different streams never
// share a review id.
const (
	streamWarmup = 1
	streamOpen   = 2
	streamClosed = 3
	streamTraced = 4
	numStreams   = 4
)

// generate returns the first n requests of a stream. It is a pure
// function of (workload, vocabulary, seed, stream, n), and a longer
// stream extends a shorter one. Writes take their texts in an order the
// seed shuffles, the streams interleaved, so no text is written twice in
// a run until the pool runs out.
func generate(w Workload, v Vocab, seed int64, stream, n int) []Request {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)))
	var textOrder []int
	if w.Mix.Reviews > 0 {
		if len(v.Texts) == 0 {
			panic("generate: a workload with writes needs the write text pool")
		}
		textOrder = rand.New(rand.NewSource(seed * 1000003)).Perm(len(v.Texts))
	}
	writes := 0
	var zipf *rand.Zipf
	if w.ZipfS > 1 {
		zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(len(v.Predicates)-1))
	}
	pred := func() string {
		if zipf != nil {
			return v.Predicates[zipf.Uint64()]
		}
		return v.Predicates[rng.Intn(len(v.Predicates))]
	}
	conj := func() []string {
		k := w.ConjunctsMin + rng.Intn(w.ConjunctsMax-w.ConjunctsMin+1)
		ps := make([]string, k)
		for i := range ps {
			ps[i] = pred()
		}
		return ps
	}
	var table []int
	for op, weight := range [numOps]int{w.Mix.Query, w.Mix.TopK, w.Mix.Interpret, w.Mix.Reviews} {
		for i := 0; i < weight; i++ {
			table = append(table, op)
		}
	}
	out := make([]Request, n)
	for i := range out {
		op := table[rng.Intn(len(table))]
		r := Request{Op: op, Method: http.MethodGet}
		switch op {
		case opQuery:
			ps := conj()
			quoted := make([]string, len(ps))
			for j, p := range ps {
				quoted[j] = `"` + p + `"`
			}
			sql := "SELECT * FROM Entities WHERE " + strings.Join(quoted, " AND ")
			r.Target = "/query?k=10&sql=" + url.QueryEscape(sql)
		case opTopK:
			q := url.Values{"predicate": conj(), "k": {"10"}}
			r.Target = "/topk?" + q.Encode()
		case opInterpret:
			r.Target = "/interpret?predicate=" + url.QueryEscape(pred())
		case opReview:
			text := v.Texts[textOrder[(writes*numStreams+stream-1)%len(textOrder)]]
			writes++
			body, err := json.Marshal(server.ReviewRequest{
				ID:       fmt.Sprintf("fb-%s-%d-%d-%d", w.Name, seed, stream, i),
				EntityID: v.Entities[rng.Intn(len(v.Entities))],
				Reviewer: fmt.Sprintf("fleetbench-%d", rng.Intn(50)),
				Day:      5000 + i,
				Text:     text,
			})
			if err != nil {
				panic(err) // a struct of strings and ints always encodes
			}
			r.Method, r.Target, r.Body = http.MethodPost, "/reviews", body
		}
		out[i] = r
	}
	return out
}
