package harness

// The benchall "load" experiment: one short mixed-traffic run against a
// journaled in-process fleet for SLO percentiles, plus a targeted A/B of
// the incremental journal prefix-hash chain that spares fleet.Repair its
// per-probe segment rescans.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/journal"
)

// PrefixHashBench compares repair-style prefix-hash probes served from
// the in-memory chain vs the on-disk segment rescan it replaced.
type PrefixHashBench struct {
	JournalRecords int     `json:"journal_records"`
	Probes         int     `json:"probes"`
	ChainMicros    float64 `json:"chain_micros_per_probe"`
	RescanMicros   float64 `json:"rescan_micros_per_probe"`
	Speedup        float64 `json:"speedup"`
	// HashesMatch confirms the chain and the rescan agree at every
	// probed sequence.
	HashesMatch bool `json:"hashes_match"`
}

// LoadBenchResult is the full "load" experiment.
type LoadBenchResult struct {
	Mixed      LoadResult      `json:"mixed"`
	PrefixHash PrefixHashBench `json:"prefix_hash"`
	Err        string          `json:"error,omitempty"`
}

// RunLoad builds a journaled 4-shard fleet, drives it with the default
// mixed workload, then measures the prefix-hash chain in isolation.
func RunLoad(ctx context.Context, seed int64) LoadBenchResult {
	var res LoadBenchResult
	dir, err := os.MkdirTemp("", "opinedb-load-*")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer os.RemoveAll(dir)

	fl, err := BuildLoadFleet(dir+"/fleet", LoadFleetOptions{Shards: 4, Seed: seed})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Mixed = RunLoadMix(ctx, HandlerLoadTarget(fl.Handler), fl.Dataset, LoadOptions{
		Mix:         DefaultLoadMix(),
		Concurrency: 8,
		Duration:    2 * time.Second,
		Seed:        seed,
	})

	ph, err := benchPrefixHash(dir, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.PrefixHash = ph
	return res
}

// benchPrefixHash writes a synthetic journal, then answers the same
// repair-style probes from the in-memory chain and from per-probe
// on-disk rescans.
func benchPrefixHash(dir string, seed int64) (PrefixHashBench, error) {
	var b PrefixHashBench
	jdir := dir + "/probe.journal"
	j, err := journal.Open(jdir, journal.Options{SyncEvery: 64})
	if err != nil {
		return b, err
	}
	const records = 2000
	for i := 0; i < records; i++ {
		_, err := j.Append(journal.Review{
			ID:       fmt.Sprintf("bench-%d-%d", seed, i),
			EntityID: fmt.Sprintf("h%03d", i%100),
			Reviewer: "bench",
			Day:      9000 + i,
			Text:     reviewPhrases[i%len(reviewPhrases)],
		})
		if err != nil {
			return b, err
		}
	}
	if err := j.Close(); err != nil {
		return b, err
	}
	b.JournalRecords = records

	ph, err := journal.NewPrefixHashes(jdir)
	if err != nil {
		return b, err
	}
	// Repair probes ask for the hash at the peer's sequence — spread the
	// probes across the journal the way a mixed-progress fleet would.
	const probes = 200
	seqs := make([]uint64, probes)
	for i := range seqs {
		seqs[i] = uint64(1 + (i*997)%records)
	}
	b.Probes = probes

	b.HashesMatch = true
	t0 := time.Now()
	chainHashes := make([]string, probes)
	for i, s := range seqs {
		chainHashes[i], _ = ph.At(s)
	}
	chainDur := time.Since(t0)

	t0 = time.Now()
	for i, s := range seqs {
		h, _, err := journal.PrefixHashAt(jdir, s)
		if err != nil {
			return b, err
		}
		if h != chainHashes[i] {
			b.HashesMatch = false
		}
	}
	rescanDur := time.Since(t0)

	b.ChainMicros = float64(chainDur.Microseconds()) / float64(probes)
	b.RescanMicros = float64(rescanDur.Microseconds()) / float64(probes)
	if b.ChainMicros > 0 {
		b.Speedup = b.RescanMicros / b.ChainMicros
	}
	return b, nil
}

// FormatLoadBench renders the load experiment for benchall's stdout.
func FormatLoadBench(r LoadBenchResult) string {
	var b strings.Builder
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	b.WriteString("  mixed traffic (4 journaled shards, default mix):\n")
	b.WriteString(FormatLoad(r.Mixed))
	fmt.Fprintf(&b, "  prefix-hash probes: %d probes over a %d-record journal\n",
		r.PrefixHash.Probes, r.PrefixHash.JournalRecords)
	fmt.Fprintf(&b, "    chain %7.2f µs/probe   rescan %7.2f µs/probe   speedup %.1fx   hashes match: %v\n",
		r.PrefixHash.ChainMicros, r.PrefixHash.RescanMicros, r.PrefixHash.Speedup, r.PrefixHash.HashesMatch)
	return b.String()
}
