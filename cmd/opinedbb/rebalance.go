package main

// The -rebalance subcommand: online N→M shard rebalancing of a stopped
// fleet (internal/fleet). The shards' snapshots and journals are merged
// back into the monolith-equivalent database, re-partitioned, and
// committed as a fresh snapshot set + manifest — no corpus rebuild, and
// crash-safe (re-running after a crash converges).

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/fleet"
)

func runRebalance(manifestPath string, m int) {
	if manifestPath == "" {
		fatal("rebalance: -manifest is required (the fleet's shard manifest)")
	}
	start := time.Now()
	report, err := fleet.Rebalance(manifestPath, m, fleet.RebalanceOptions{})
	if err != nil {
		fatal("rebalance failed", "manifest", manifestPath, "err", err)
	}
	slog.Info("rebalanced", "manifest", manifestPath, "from", report.FromShards, "to", report.ToShards,
		"entities", report.Entities, "folded", report.ReplayedRecords, "seconds", time.Since(start).Seconds())
	for _, s := range report.Manifest.Shard {
		slog.Info("rebalanced shard", "shard", s.Index, "path", s.Path,
			"first", s.FirstEntity, "last", s.LastEntity, "entities", s.Entities)
	}
	fmt.Printf("rebalance OK: %d → %d shards in %.2fs\n",
		report.FromShards, report.ToShards, time.Since(start).Seconds())
}
