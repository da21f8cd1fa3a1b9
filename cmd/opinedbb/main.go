// Command opinedbb is the OpineDB builder: the offline half of the
// build-once / serve-many split. It generates (or will later ingest) a
// corpus, runs the full §4 construction pipeline with the parallel build
// workers, and writes the result as a versioned snapshot artifact that
// any number of opinedbd servers can load in milliseconds.
//
// With -shards N it additionally partitions the entity space into N
// contiguous ranges and writes one snapshot per shard plus a checksummed
// manifest; opinedbd then serves a single shard (-shard-manifest
// -shard-index) or routes over the fleet (-router).
//
// With -scenario NAME it instead runs one entry of the end-to-end
// scenario table (internal/harness/scenario.go) — snapshot, shard,
// journal, rebalance, replica, load, write or trace — and exits non-zero
// unless every gate passes; each `make <name>-smoke` target runs one.
//
// Examples:
//
//	opinedbb -domain hotel -o hotel.snap
//	opinedbb -scenario snapshot                    # build → save → load → query smoke test
//	opinedbd -snapshot hotel.snap                  # serve it
//	opinedbb -domain hotel -shards 4 -o hotel.snap # hotel-shard0..3.snap + hotel.manifest.json
//	opinedbd -shard-manifest hotel.manifest.json -shard-index 2
//	opinedbd -router hotel.manifest.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// fatal logs an error through the structured logger and exits.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "opinedb.snap", "snapshot output path; with -shards > 1 the base name for <base>-shardK.snap and <base>.manifest.json")
	domain := flag.String("domain", "hotel", "corpus domain: hotel or restaurant")
	seed := flag.Int64("seed", 1, "corpus and build seed")
	small := flag.Bool("small", false, "build a small corpus (faster)")
	workers := flag.Int("workers", 0, "build worker pool size (0 = GOMAXPROCS)")
	tagged := flag.Int("tagged", 800, "gold sentences for extractor training")
	labels := flag.Int("labels", 800, "membership-function training labels")
	subindex := flag.Bool("subindex", true, "build the Appendix B substitution index into the snapshot")
	shards := flag.Int("shards", 1, "partition the entity space into N per-shard snapshots plus a manifest (1 = monolithic)")
	replicas := flag.String("replicas", "", `with -shards > 1: record the replica-set shape in the manifest — "3" for a uniform R, or "0=3,1=1" per-range pairs (unlisted ranges default to 1) so a hot range runs R=3 while cold ranges stay single-replica (opinedbd -router serves each range accordingly)`)
	compact := flag.String("compact", "", "fold a review journal back into a fresh snapshot instead of building: pass a snapshot path (compacted in place, or to -o when -o is set) or a shard manifest (*.json: every shard journal is folded and the manifest digests refreshed)")
	rebalance := flag.Int("rebalance", 0, "rebalance the stopped fleet described by -manifest to N shards without a rebuild: merge the loaded shards (snapshots + journals), re-partition, and commit a fresh snapshot set + manifest crash-safely")
	manifestFlag := flag.String("manifest", "", "shard manifest path for -rebalance")
	scenario := flag.String("scenario", "", "run one end-to-end scenario instead of building (snapshot, shard, journal, rebalance, replica, load, write or trace: see internal/harness/scenario.go) and exit non-zero unless every gate passes; -seed applies")
	debugAddr := flag.String("debug-addr", "", "serve the debug surface (net/http/pprof under /debug/pprof/, traces under /debug/traces) on this address for the duration of the run; empty disables")
	flag.Parse()

	if os.Getenv(harness.JournalCrashEnv) != "" {
		// Re-executed by the journal scenario as its ingestion worker,
		// which runs until the parent SIGKILLs it.
		if err := harness.RunJournalCrashWorker(os.Stdout); err != nil {
			fatal("journal crash worker failed", "err", err)
		}
		return
	}
	if *debugAddr != "" {
		go func() {
			slog.Info("debug surface listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, trace.DebugMux(trace.New(trace.Options{}))); err != nil {
				slog.Error("debug surface failed", "addr", *debugAddr, "err", err)
			}
		}()
	}
	if *scenario != "" {
		runScenario(*scenario, *seed)
		return
	}
	if *compact != "" {
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "o" {
				outSet = true
			}
		})
		runCompact(*compact, *out, outSet)
		return
	}
	if *rebalance > 0 {
		runRebalance(*manifestFlag, *rebalance)
		return
	}

	slog.Info("generating corpus and building subjective database", "domain", *domain)
	start := time.Now()
	d, db, err := harness.BuildDomain(*domain, *small, *seed, *workers, *tagged, *labels, *subindex)
	if err != nil {
		fatal("build failed", "err", err)
	}
	slog.Info("built", "entities", len(d.Entities), "reviews", len(d.Reviews), "extractions", len(db.Extractions),
		"attributes", len(db.Attrs), "seconds", time.Since(start).Seconds())

	if *shards > 1 {
		writeSharded(db, *out, *shards, *replicas, *seed)
		return
	}

	start = time.Now()
	meta, err := snapshot.Save(*out, db)
	if err != nil {
		fatal("save failed", "path", *out, "err", err)
	}
	slog.Info("wrote snapshot", "path", *out, "mb", float64(meta.FileBytes)/(1<<20),
		"format", meta.FormatVersion, "seconds", time.Since(start).Seconds())
	for _, s := range meta.Sections {
		slog.Info("snapshot section", "name", s.Name, "bytes", s.Bytes)
	}
}

// runScenario runs one scenario-table entry in a scratch directory and
// exits non-zero unless every gate passed.
func runScenario(name string, seed int64) {
	sc, err := harness.LookupScenario(name)
	if err != nil {
		fatal("scenario", "err", err)
	}
	dir, err := os.MkdirTemp("", "opinedb-scenario-"+name+"-*")
	if err != nil {
		fatal("scenario", "err", err)
	}
	run, err := harness.RunScenario(context.Background(), sc, dir, seed)
	if run.Load.TotalOps > 0 {
		fmt.Print(harness.FormatLoad(run.Load))
	}
	_ = os.RemoveAll(dir) // best effort: scratch under the system temp dir
	if err != nil {
		fatal("scenario FAILED", "err", err)
	}
	fmt.Printf("%s-smoke OK: %d gates passed\n", name, len(sc.Gates))
}

// shardBase strips the output path's extension: hotel.snap → hotel.
func shardBase(out string) string { return strings.TrimSuffix(out, filepath.Ext(out)) }

// writeSharded partitions the built database and writes one snapshot
// per shard plus the checksummed manifest (recording the replica-set
// size when R > 1 — replicas serve the same artifacts, so only the
// manifest changes shape).
func writeSharded(db *core.DB, out string, shards int, replicaSpec string, seed int64) {
	base := shardBase(out)
	shardDBs, parts, err := db.Shards(shards)
	if err != nil {
		fatal("shard failed", "err", err)
	}
	perRange, uniform, err := snapshot.ParseReplicaSpec(replicaSpec, shards)
	if err != nil {
		fatal("shard: bad -replicas", "err", err)
	}
	if uniform == 1 {
		uniform = 0 // canonical single-replica manifest: field absent
	}
	manifest := &snapshot.Manifest{
		FormatVersion:    snapshot.FormatVersion,
		Name:             db.Name,
		BuildSeed:        seed,
		Shards:           shards,
		Replicas:         uniform,
		ReplicasPerRange: perRange,
		TotalEntities:    len(db.EntityIDs()),
		CreatedUnix:      time.Now().Unix(),
	}
	start := time.Now()
	for i, shardDB := range shardDBs {
		ids := parts[i]
		path := fmt.Sprintf("%s-shard%d.snap", base, i)
		meta, err := snapshot.SaveShard(path, shardDB, &snapshot.ShardMeta{
			Index:         i,
			Count:         shards,
			Entities:      len(ids),
			TotalEntities: len(db.EntityIDs()),
			FirstEntity:   ids[0],
			LastEntity:    ids[len(ids)-1],
		})
		if err != nil {
			fatal("shard save failed", "shard", i, "err", err)
		}
		// The digest was computed while the snapshot streamed out
		// (snapshot.SaveShard hashes through io.MultiWriter), so the
		// builder never re-reads the artifact it just wrote.
		manifest.Shard = append(manifest.Shard, snapshot.ManifestShard{
			Index:          i,
			Path:           filepath.Base(path),
			Entities:       len(ids),
			FirstEntity:    ids[0],
			LastEntity:     ids[len(ids)-1],
			SnapshotSHA256: meta.SHA256,
			SnapshotBytes:  meta.FileBytes,
		})
		slog.Info("wrote shard snapshot", "path", path, "mb", float64(meta.FileBytes)/(1<<20),
			"first", ids[0], "last", ids[len(ids)-1], "entities", len(ids))
	}
	manifestPath := base + ".manifest.json"
	if err := snapshot.WriteManifest(manifestPath, manifest); err != nil {
		fatal("manifest write failed", "err", err)
	}
	nodes := 0
	for i := 0; i < shards; i++ {
		nodes += manifest.ReplicaCount(i)
	}
	slog.Info("wrote manifest", "path", manifestPath, "shards", shards, "nodes", nodes,
		"entities", manifest.TotalEntities, "seconds", time.Since(start).Seconds())
}
