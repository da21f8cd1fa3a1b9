// Command benchall regenerates every table and figure of the paper's
// evaluation (§5 and the appendices) in one run, printing paper-formatted
// output. Flags trade fidelity for speed; the defaults complete in a few
// minutes on a laptop.
//
// Usage:
//
//	benchall [-quick] [-seed N] [-skip table5,table6,...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "reduced corpus and trial counts (~10x faster)")
	seed := flag.Int64("seed", 1, "master random seed")
	skip := flag.String("skip", "", "comma-separated experiments to skip (table3..table8,figure7,figure8,appendixB,appendixC,concurrency,persistence,sharding,rebalance,load,replication,replicaops)")
	baseline := flag.String("baseline", "", "compare the load experiment's SLOs against this committed baseline JSON (BENCH_baseline.json) and WARN on regressions — advisory only, never fails the run (shared CI machines are too noisy for a hard latency gate)")
	flag.Parse()

	skipped := map[string]bool{}
	for _, s := range strings.Split(*skip, ",") {
		if s = strings.TrimSpace(strings.ToLower(s)); s != "" {
			skipped[s] = true
		}
	}
	run := func(name string) bool { return !skipped[strings.ToLower(name)] }

	genCfg := corpus.DefaultConfig()
	t5 := harness.DefaultTable5Config()
	t7 := harness.DefaultTable7Config()
	table6Trials := 3
	taggedN, labelsN := 900, 1000
	if *quick {
		genCfg = corpus.SmallConfig()
		genCfg.HotelsLondon, genCfg.HotelsAmsterdam = 60, 25
		genCfg.ReviewsPerHotel = 20
		genCfg.Restaurants = 80
		genCfg.ReviewsPerRestaurant = 10
		t5.QueriesPerSet, t5.Trials = 10, 2
		t7.QueriesPerSet = 30
		table6Trials = 2
		taggedN, labelsN = 500, 600
	}
	genCfg.Seed = *seed

	start := time.Now()
	fmt.Println("== OpineDB experiment suite ==")
	fmt.Printf("corpus: %d hotels, %d restaurants (seed %d, quick=%v)\n\n",
		genCfg.HotelsLondon+genCfg.HotelsAmsterdam, genCfg.Restaurants, *seed, *quick)

	if run("table3") {
		fmt.Println(harness.FormatTable3(harness.RunTable3(*seed)))
	}

	fmt.Println("generating corpora...")
	hotels := corpus.GenerateHotels(genCfg)
	restaurants := corpus.GenerateRestaurants(genCfg)
	fmt.Printf("  hotels: %d entities, %d reviews; restaurants: %d entities, %d reviews (%.1fs)\n\n",
		len(hotels.Entities), len(hotels.Reviews),
		len(restaurants.Entities), len(restaurants.Reviews), time.Since(start).Seconds())

	if run("table4") {
		fmt.Println(harness.FormatTable4(harness.RunTable4(hotels, restaurants)))
	}

	needDB := run("table5") || run("table7") || run("table8") || run("figure7") || run("figure8") || run("appendixb") || run("concurrency")
	var hotelDB, restDB *core.DB
	if needDB {
		fmt.Println("building subjective databases (extraction + markers + summaries)...")
		buildStart := time.Now()
		cfg := core.DefaultConfig()
		cfg.Seed = *seed
		cfg.UseSubstitutionIndex = run("appendixb")
		var err error
		hotelDB, err = harness.BuildDB(hotels, cfg, taggedN, labelsN)
		if err != nil {
			fatal("hotel build", "err", err)
		}
		restDB, err = harness.BuildDB(restaurants, cfg, taggedN, labelsN)
		if err != nil {
			fatal("restaurant build", "err", err)
		}
		fmt.Printf("  built in %.1fs (hotel: %d extractions, restaurant: %d)\n\n",
			time.Since(buildStart).Seconds(), len(hotelDB.Extractions), len(restDB.Extractions))
	}

	if run("table5") {
		fmt.Println("running Table 5 (quality vs baselines)...")
		t5.Seed = *seed + 100
		fmt.Println(harness.FormatTable5(harness.RunTable5(hotels, restaurants, hotelDB, restDB, t5)))
	}
	if run("table6") {
		fmt.Println("running Table 6 (extractor F1)...")
		fmt.Println(harness.FormatTable6(harness.RunTable6(table6Trials, *seed+200)))
	}
	if run("table7") {
		fmt.Println("running Table 7 (marker speedup)...")
		t7.Seed = *seed + 300
		fmt.Println(harness.FormatTable7(harness.RunTable7(hotels, restaurants, hotelDB, restDB, t7)))
	}
	if run("table8") {
		fmt.Println("running Table 8 (interpreter accuracy)...")
		fmt.Println(harness.FormatTable8(harness.RunTable8(hotels, restaurants, hotelDB, restDB, *seed+400)))
	}
	if run("figure7") {
		fmt.Println(harness.FormatFigure7(harness.RunFigure7(hotelDB)))
	}
	if run("figure8") {
		fmt.Println(harness.FormatFigure8(harness.RunFigure8(hotels, hotelDB)))
	}
	if run("appendixb") {
		fmt.Println(harness.FormatAppendixB(harness.RunAppendixB(hotels, hotelDB)))
	}
	if run("appendixc") {
		fmt.Println(harness.FormatAppendixC(harness.RunAppendixC(*seed + 500)))
	}
	if run("concurrency") {
		fmt.Println("running concurrency (parallel serving + parallel build)...")
		fmt.Println(harness.FormatConcurrency(harness.RunConcurrency(hotels, hotelDB, *seed+600)))
	}
	if run("persistence") {
		fmt.Println("running persistence (snapshot cold start vs rebuild)...")
		fmt.Println(harness.FormatPersistence(harness.RunPersistence(*seed + 700)))
	}
	if run("sharding") {
		fmt.Println("running sharding (scatter-gather router vs monolith)...")
		fmt.Println(harness.FormatSharding(harness.RunSharding(context.Background(), *seed+800)))
	}
	if run("rebalance") {
		fmt.Println("running rebalance (online N→M re-partitioning vs full rebuild)...")
		fmt.Println(harness.FormatRebalance(harness.RunRebalance(context.Background(), *seed+900)))
	}
	if run("load") {
		fmt.Println("running load (mixed-traffic SLOs + prefix-hash chain A/B)...")
		loadRes := harness.RunLoad(context.Background(), *seed+1000)
		fmt.Println(harness.FormatLoadBench(loadRes))
		if data, err := json.MarshalIndent(loadRes, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_load.json", data, 0o644); err != nil {
				slog.Error("write result", "path", "BENCH_load.json", "err", err)
			} else {
				fmt.Println("wrote BENCH_load.json")
			}
		}
		if *baseline != "" {
			compareBaseline(*baseline, loadRes)
		}
	}
	if run("replication") {
		fmt.Println("running replication (replica-set read scaling + hedged-scatter tail A/B)...")
		replRes := harness.RunReplication(context.Background(), *seed+1100)
		fmt.Println(harness.FormatReplication(replRes))
		if data, err := json.MarshalIndent(replRes, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_replication.json", data, 0o644); err != nil {
				slog.Error("write result", "path", "BENCH_replication.json", "err", err)
			} else {
				fmt.Println("wrote BENCH_replication.json")
			}
		}
	}

	if run("replicaops") {
		fmt.Println("running replicaops (live replica join vs rebuild + hot-range scaling 1→3)...")
		opsRes := harness.RunReplicaOps(context.Background(), *seed+1300)
		fmt.Println(harness.FormatReplicaOps(opsRes))
		if data, err := json.MarshalIndent(opsRes, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_replicaops.json", data, 0o644); err != nil {
				slog.Error("write result", "path", "BENCH_replicaops.json", "err", err)
			} else {
				fmt.Println("wrote BENCH_replicaops.json")
			}
		}
	}

	fmt.Printf("total time: %.1fs\n", time.Since(start).Seconds())
	os.Exit(0)
}

// fatal logs an error through the structured logger and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// compareBaseline reads a committed load baseline and reports, warn-only,
// where the current run regressed: per-op p95 latency more than 1.5x the
// baseline, or overall throughput below 2/3 of it. Advisory output for
// `make slo-check` — machine noise (shared CI runners, thermal state)
// makes a hard latency gate flakier than it is protective, so a human
// reads the warnings next to the diff that caused them.
func compareBaseline(path string, cur harness.LoadBenchResult) {
	data, err := os.ReadFile(path)
	if err != nil {
		slog.Error("slo-check: read baseline", "path", path, "err", err)
		return
	}
	var base harness.LoadBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		slog.Error("slo-check: parse baseline", "path", path, "err", err)
		return
	}
	fmt.Printf("slo-check: comparing against %s\n", path)
	warned := false
	for op, bst := range base.Mixed.PerOp {
		cst, ok := cur.Mixed.PerOp[op]
		if !ok || bst.P95Micros <= 0 || cst.Ops == 0 {
			continue
		}
		if cst.P95Micros > bst.P95Micros*1.5 {
			fmt.Printf("slo-check: WARN %s p95 %.0fµs vs baseline %.0fµs (%.1fx)\n",
				op, cst.P95Micros, bst.P95Micros, cst.P95Micros/bst.P95Micros)
			warned = true
		}
	}
	if base.Mixed.OpsPerSecond > 0 && cur.Mixed.OpsPerSecond < base.Mixed.OpsPerSecond*2/3 {
		fmt.Printf("slo-check: WARN throughput %.0f ops/s vs baseline %.0f ops/s\n",
			cur.Mixed.OpsPerSecond, base.Mixed.OpsPerSecond)
		warned = true
	}
	if !warned {
		fmt.Println("slo-check: OK — no SLO regressions against the baseline")
	}
}
