package main

// opinedbb -compact: fold a review journal back into a fresh snapshot.
// Compaction is the offline half of the incremental-enrichment loop —
// live ingestion appends deltas next to the snapshot; compaction rebases
// the artifact so the journal stays short and cold starts pay one load
// instead of a long replay.

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"repro/internal/journal"
)

// runCompact dispatches on the artifact kind: a shard manifest compacts
// the whole fleet in place (digest refresh included); a snapshot compacts
// to itself, or to -o when the operator set one.
func runCompact(target, out string, outSet bool) {
	start := time.Now()
	if strings.HasSuffix(target, ".json") {
		m, shards, err := journal.CompactManifest(target)
		if err != nil {
			fatal("compact failed", "target", target, "err", err)
		}
		if len(shards) == 0 {
			fmt.Printf("compact OK: %s has no journaled deltas; nothing to fold\n", target)
			return
		}
		for _, s := range shards {
			slog.Info("compacted shard", "shard", s.Index, "folded", s.Applied,
				"already_in_snapshot", s.Skipped, "digest", s.Digest[:12])
		}
		fmt.Printf("compact OK: %d of %d shards folded, manifest digests refreshed (%.2fs)\n",
			len(shards), m.Shards, time.Since(start).Seconds())
		return
	}
	dst := target
	if outSet {
		dst = out
	}
	meta, st, err := journal.Compact(target, dst)
	if err != nil {
		fatal("compact failed", "target", target, "err", err)
	}
	if st.TailErr != nil {
		slog.Warn("journal tail damage skipped", "bytes", st.DroppedBytes, "err", st.TailErr)
	}
	fmt.Printf("compact OK: folded %d reviews (%d already in the snapshot) into %s: %.2f MB, digest %s (%.2fs)\n",
		st.Applied, st.Skipped, dst, float64(meta.FileBytes)/(1<<20), meta.SHA256[:12], time.Since(start).Seconds())
}
