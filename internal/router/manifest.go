package router

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// ManifestOptions configure FromManifest.
type ManifestOptions struct {
	// Options are the router options.
	Options
	// Replicas overrides the manifest's replica count when > 0: each
	// shard range is served by that many independently loaded in-process
	// backends (each replica loads its own verified copy of the shard
	// snapshot, so replicas share no mutable state — exactly like a
	// remote fleet). 0 follows the manifest.
	Replicas int
	// ReplicasPerRange overrides the replica count per shard range
	// (index-aligned with the manifest's shards; entries <= 0 mean 1).
	// Takes precedence over Replicas and the manifest. Hot ranges can
	// run R=3 while cold ranges stay at R=1.
	ReplicasPerRange []int
	// ShardServer, when non-nil, customizes each in-process shard's server
	// options (entity naming, /healthz snapshot report, journaling); path
	// is the shard's resolved snapshot file and replica the backend's
	// position in the range's replica set. nil serves each shard with
	// zero options.
	ShardServer func(shard, replica int, path string, db *core.DB, meta *snapshot.Meta) server.Options
	// WrapBackend, when non-nil, wraps each node's backend before the
	// router sees it — the fault-injection seam (DelayBackend, kill
	// switches) the load harness and the scenario table use.
	WrapBackend func(shard, replica int, b Backend) Backend
}

// FromManifest assembles a single-process sharded deployment from a shard
// manifest: every shard snapshot is digest-verified against the manifest,
// loaded (once per replica), checked for the shard identity it claims,
// and served through an in-process backend behind a router. This is the
// `opinedbd -router` (no -router-backends) path and the shard
// scenario's fleet check. Backend names are "shard<i>" for
// single-replica fleets (unchanged from the pre-replication router) and
// "shard<i>.r<j>" otherwise.
func FromManifest(manifestPath string, opts ManifestOptions) (*Router, *snapshot.Manifest, error) {
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if n := len(opts.ReplicasPerRange); n > 0 && n != m.Shards {
		return nil, nil, fmt.Errorf("router: ReplicasPerRange lists %d ranges for %d shards", n, m.Shards)
	}
	countFor := func(shard int) int {
		if shard < len(opts.ReplicasPerRange) {
			if n := opts.ReplicasPerRange[shard]; n > 0 {
				return n
			}
			return 1
		}
		if opts.Replicas > 0 {
			return opts.Replicas
		}
		return m.ReplicaCount(shard)
	}
	multi := false
	for i := 0; i < m.Shards; i++ {
		if countFor(i) > 1 {
			multi = true
		}
	}
	shards := make([]Shard, 0, m.Shards)
	for _, ms := range m.Shard {
		sh := Shard{FirstEntity: ms.FirstEntity, LastEntity: ms.LastEntity}
		replicas := countFor(ms.Index)
		for j := 0; j < replicas; j++ {
			db, meta, err := snapshot.LoadVerifiedShard(manifestPath, m, ms.Index)
			if err != nil {
				return nil, nil, err
			}
			var srvOpts server.Options
			if opts.ShardServer != nil {
				srvOpts = opts.ShardServer(ms.Index, j, snapshot.ShardPath(manifestPath, ms), db, meta)
			}
			name := fmt.Sprintf("shard%d", ms.Index)
			if multi {
				name = fmt.Sprintf("shard%d.r%d", ms.Index, j)
			}
			var b Backend = NewLocalBackend(name, db, srvOpts)
			if opts.WrapBackend != nil {
				b = opts.WrapBackend(ms.Index, j, b)
			}
			if j == 0 {
				sh.Backend = b
			} else {
				sh.Replicas = append(sh.Replicas, b)
			}
		}
		shards = append(shards, sh)
	}
	rt, err := New(shards, opts.Options)
	if err != nil {
		return nil, nil, err
	}
	return rt, m, nil
}
