// Command opinedbload drives configurable mixed read/write traffic at
// a running OpineDB fleet and reports per-operation SLO percentiles:
//
//	opinedbload -addr http://127.0.0.1:8080
//
// The request vocabulary (predicates and entity ids) is regenerated from
// -seed, so the target should be a fleet built from the same small
// corpus and seed (as `opinedbd`'s defaults do). The mix is weights, not
// percentages: `-mix query=4,topk=3,interpret=2,reviews=1`.
//
// The self-contained in-process drills (journaled fleet on a loopback
// listener, fault injection, byte-identity and tracing gates) live in
// the scenario table: `opinedbb -scenario load|write|trace`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/trace"
)

// fatal logs an error through the structured logger and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "", "base URL of a running fleet front door (e.g. http://127.0.0.1:8080)")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive traffic")
	concurrency := flag.Int("concurrency", 8, "number of concurrent workers")
	mixSpec := flag.String("mix", "query=4,topk=3,interpret=2,reviews=1", "operation weights")
	seed := flag.Int64("seed", 1, "seed for corpus vocabulary and request sequence")
	k := flag.Int("k", 10, "result size for query/topk operations")
	slowMS := flag.Float64("slow-ms", 0, "after the run, print the fleet's retained traces (from its /debug/traces) slower than this many milliseconds")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of the SLO table")
	flag.Parse()

	if *addr == "" {
		fatal("opinedbload: -addr is required (in-process drills: opinedbb -scenario load|write|trace)")
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		fatal("opinedbload: bad -mix", "err", err)
	}
	genCfg := corpus.SmallConfig()
	genCfg.Seed = *seed
	res := harness.RunLoadMix(context.Background(), harness.HTTPLoadTarget(*addr, nil), corpus.GenerateHotels(genCfg), harness.LoadOptions{
		Mix:         mix,
		Concurrency: *concurrency,
		Duration:    *duration,
		Seed:        *seed,
		K:           *k,
	})
	if *jsonOut {
		data, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(data))
	} else {
		fmt.Print(harness.FormatLoad(res))
	}
	if res.Err != "" {
		os.Exit(1)
	}
	if *slowMS > 0 {
		if err := printSlowTraces(*addr, *slowMS); err != nil {
			fatal("opinedbload: slow traces", "err", err)
		}
	}
}

// printSlowTraces renders every retained trace slower than minMS, the
// "chase one slow request" workflow: run the load, then read exactly the
// traces tail sampling kept for you from the fleet's /debug/traces.
func printSlowTraces(addr string, minMS float64) error {
	resp, err := http.Get(strings.TrimRight(addr, "/") + fmt.Sprintf("/debug/traces?min_ms=%g", minMS))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/traces answered %d (is the fleet running with tracing enabled?)", resp.StatusCode)
	}
	var body struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	slog.Info("retained slow traces", "count", len(body.Traces), "min_ms", minMS)
	for _, t := range body.Traces {
		data, _ := json.MarshalIndent(t, "", "  ")
		fmt.Println(string(data))
	}
	return nil
}

// parseMix reads "query=4,topk=3,interpret=2,reviews=1"; omitted ops
// get weight 0.
func parseMix(spec string) (harness.LoadMix, error) {
	var m harness.LoadMix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "query":
			m.Query = w
		case "topk":
			m.TopK = w
		case "interpret":
			m.Interpret = w
		case "reviews":
			m.Reviews = w
		default:
			return m, fmt.Errorf("unknown op %q (want query|topk|interpret|reviews)", name)
		}
	}
	if m.Query+m.TopK+m.Interpret+m.Reviews == 0 {
		return m, fmt.Errorf("mix %q has no operations", spec)
	}
	return m, nil
}
