package harness

// The benchall "replication" experiment: what the replicated read fleet
// buys. Two arms:
//
//   - Throughput scaling: the same mixed read workload against fleets
//     whose every backend is paced to a fixed serial service time (a
//     sleeping mutex, so an in-process replica does not steal CPU from
//     its set-mates the way real compute would), at R=1/2/3. Read QPS
//     should scale ~linearly in R — the power-of-two-choices balancer
//     spreading scatter legs across the set is the whole mechanism.
//
//   - Hedging A/B: an R=2 fleet with one replica degraded by a fixed
//     per-request delay, driven with hedged scatter legs on vs off.
//     With hedging off, roughly half of the degraded shard's legs eat
//     the full delay; with it on, the adaptive (~p95) hedge fires a
//     second leg at the healthy replica and the tail collapses. The
//     A/B closes with the full query fingerprint against the monolith:
//     hedging under degradation must not change a byte.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/router"
)

// pacedBackend serializes requests per backend behind a fixed service
// floor. The floor is slept, not computed, so R co-resident replicas
// genuinely serve in parallel — the capacity model the throughput arm
// needs.
type pacedBackend struct {
	inner   router.Backend
	service time.Duration
	mu      sync.Mutex
}

func (b *pacedBackend) Name() string { return b.inner.Name() }

func (b *pacedBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := time.NewTimer(b.service)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	return b.inner.Do(ctx, method, target, body)
}

// ReplicaThroughput is one fleet size's read throughput.
type ReplicaThroughput struct {
	Replicas     int     `json:"replicas"`
	Nodes        int     `json:"nodes"`
	OpsPerSecond float64 `json:"ops_per_second"`
	TopKP99      float64 `json:"topk_p99_micros"`
	Errors       int     `json:"errors"`
}

// HedgeArm is one side of the slow-replica A/B.
type HedgeArm struct {
	Hedging      bool    `json:"hedging"`
	OpsPerSecond float64 `json:"ops_per_second"`
	TopKP50      float64 `json:"topk_p50_micros"`
	TopKP99      float64 `json:"topk_p99_micros"`
	QueryP99     float64 `json:"query_p99_micros"`
	HedgesFired  uint64  `json:"hedges_fired"`
	HedgeWins    uint64  `json:"hedge_wins"`
	Errors       int     `json:"errors"`
}

// ReplicationResult is the full "replication" experiment.
type ReplicationResult struct {
	// ServiceMillis is the paced per-request service floor of the
	// throughput arm's backends.
	ServiceMillis float64             `json:"service_millis"`
	Throughput    []ReplicaThroughput `json:"throughput"`
	// SlowReplicaMillis is the injected delay on the degraded replica of
	// the hedging A/B.
	SlowReplicaMillis float64  `json:"slow_replica_millis"`
	HedgeOff          HedgeArm `json:"hedge_off"`
	HedgeOn           HedgeArm `json:"hedge_on"`
	// Identical reports whether the degraded R=2 fleet, queried with
	// hedging enabled, matched the monolith byte-for-byte over the full
	// harness query fingerprint.
	Identical      bool   `json:"identical"`
	QueriesChecked int    `json:"queries_checked"`
	Err            string `json:"error,omitempty"`
}

const (
	replBenchShards  = 3
	replBenchService = 5 * time.Millisecond
	replBenchSlow    = 20 * time.Millisecond
)

// RunReplication measures read-throughput scaling at R=1/2/3 and the
// hedged-scatter tail win under a degraded replica, then closes with
// the byte-identity check. ctx bounds every routed call.
func RunReplication(ctx context.Context, seed int64) ReplicationResult {
	res := ReplicationResult{
		ServiceMillis:     float64(replBenchService.Microseconds()) / 1000,
		SlowReplicaMillis: float64(replBenchSlow.Microseconds()) / 1000,
	}
	dir, err := os.MkdirTemp("", "opinedb-replication-*")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer os.RemoveAll(dir)

	// Arm 1: throughput scaling. Hedging off — under saturation a hedge
	// is extra load, and this arm measures balancing, not tail rescue.
	for r := 1; r <= 3; r++ {
		fl, err := BuildLoadFleet(fmt.Sprintf("%s/r%d", dir, r), LoadFleetOptions{
			Shards:         replBenchShards,
			Replicas:       r,
			Seed:           seed,
			DisableHedging: true,
			WrapBackend: func(shard, replica int, b router.Backend) router.Backend {
				return &pacedBackend{inner: b, service: replBenchService}
			},
		})
		if err != nil {
			res.Err = err.Error()
			return res
		}
		// A short discarded pass first: it warms the per-shard memo and lets
		// the freshly built fleet's allocation storm settle, so the measured
		// window sees steady-state pacing rather than cold-start stalls.
		RunLoadMix(ctx, HandlerLoadTarget(fl.Handler), fl.Dataset, LoadOptions{
			Mix:         LoadMix{TopK: 1},
			Concurrency: 8,
			Duration:    400 * time.Millisecond,
			Seed:        seed + 17,
			K:           5,
		})
		load := RunLoadMix(ctx, HandlerLoadTarget(fl.Handler), fl.Dataset, LoadOptions{
			Mix:         LoadMix{TopK: 1},
			Concurrency: 8,
			Duration:    1500 * time.Millisecond,
			Seed:        seed,
			K:           5,
		})
		if load.Err != "" {
			res.Err = load.Err
			return res
		}
		res.Throughput = append(res.Throughput, ReplicaThroughput{
			Replicas:     r,
			Nodes:        fl.Router.NumNodes(),
			OpsPerSecond: load.OpsPerSecond,
			TopKP99:      load.PerOp["topk"].P99Micros,
			Errors:       load.TotalErrors,
		})
	}

	// Arm 2: slow-replica A/B on identical R=2 fleets, read-only mix (a
	// write would serialize under the router's write mutex and smear
	// both arms equally but noisily).
	runArm := func(hedge bool) (HedgeArm, *LoadFleet, error) {
		arm := HedgeArm{Hedging: hedge}
		sub := "hedge-on"
		if !hedge {
			sub = "hedge-off"
		}
		fl, err := BuildLoadFleet(dir+"/"+sub, LoadFleetOptions{
			Shards:         replBenchShards,
			Replicas:       2,
			Seed:           seed,
			DisableHedging: !hedge,
			WrapBackend: func(shard, replica int, b router.Backend) router.Backend {
				if shard == 0 && replica == 1 { // the last replica of shard 0
					return &router.DelayBackend{Inner: b, Delay: replBenchSlow}
				}
				return b
			},
		})
		if err != nil {
			return arm, nil, err
		}
		load := RunLoadMix(ctx, HandlerLoadTarget(fl.Handler), fl.Dataset, LoadOptions{
			Mix:         LoadMix{Query: 1, TopK: 1},
			Concurrency: 4,
			Duration:    1500 * time.Millisecond,
			Seed:        seed,
			K:           5,
		})
		if load.Err != "" {
			return arm, nil, fmt.Errorf("%s", load.Err)
		}
		arm.OpsPerSecond = load.OpsPerSecond
		arm.TopKP50 = load.PerOp["topk"].P50Micros
		arm.TopKP99 = load.PerOp["topk"].P99Micros
		arm.QueryP99 = load.PerOp["query"].P99Micros
		arm.HedgesFired, arm.HedgeWins = fl.Router.HedgeStats()
		arm.Errors = load.TotalErrors
		return arm, fl, nil
	}
	off, _, err := runArm(false)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.HedgeOff = off
	on, fl, err := runArm(true)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.HedgeOn = on

	// Byte-identity: the hedge-on fleet — one replica still slow, hedging
	// still firing — must reproduce the monolith exactly. The arm's mix
	// was read-only, so the build-time monolith is the reference as-is.
	monoFP, n := QueryFingerprint(fl.Dataset, fl.DB)
	routedFP, _ := QueryFingerprint(fl.Dataset, fl.Router.Engine(ctx))
	res.Identical = monoFP == routedFP
	res.QueriesChecked = n
	return res
}

// FormatReplication renders the replication experiment for benchall's
// stdout.
func FormatReplication(r ReplicationResult) string {
	var b strings.Builder
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  read throughput vs replica count (%d shards, %.0fms paced service time, hedging off):\n",
		replBenchShards, r.ServiceMillis)
	var base float64
	for _, t := range r.Throughput {
		if t.Replicas == 1 {
			base = t.OpsPerSecond
		}
		scale := 1.0
		if base > 0 {
			scale = t.OpsPerSecond / base
		}
		fmt.Fprintf(&b, "    R=%d (%d nodes): %7.0f ops/s (%.2fx)   topk p99 %8.0f µs   errors %d\n",
			t.Replicas, t.Nodes, t.OpsPerSecond, scale, t.TopKP99, t.Errors)
	}
	fmt.Fprintf(&b, "  hedging A/B (R=2, one replica +%.0fms):\n", r.SlowReplicaMillis)
	for _, a := range []HedgeArm{r.HedgeOff, r.HedgeOn} {
		mode := "off"
		if a.Hedging {
			mode = "on "
		}
		fmt.Fprintf(&b, "    hedge %s: %6.0f ops/s   topk p50 %8.0f µs   p99 %8.0f µs   query p99 %8.0f µs   hedges %d (won %d)   errors %d\n",
			mode, a.OpsPerSecond, a.TopKP50, a.TopKP99, a.QueryP99, a.HedgesFired, a.HedgeWins, a.Errors)
	}
	if r.HedgeOn.TopKP99 > 0 {
		fmt.Fprintf(&b, "    p99 win: %.1fx (topk)\n", r.HedgeOff.TopKP99/r.HedgeOn.TopKP99)
	}
	fmt.Fprintf(&b, "  byte-identity under degradation+hedging: %v (%d query-set entries)\n",
		r.Identical, r.QueriesChecked)
	return b.String()
}
