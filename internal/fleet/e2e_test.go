package fleet_test

// End-to-end contracts of the fleet control plane, over real snapshots,
// journals and the HTTP shard API:
//
//   - Rebalance: an M-shard fleet derived from an N-shard fleet
//     (snapshots + unreplayed journals, N,M ∈ {1,2,4,8}) answers the
//     full harness query fingerprint byte-identically to the enriched
//     monolith — which is what a fresh M-shard build serves — including
//     after a simulated crash + retry at every failpoint of the commit
//     protocol.
//
//   - Repair: a replica that missed K replicated writes (fault-injecting
//     backend) converges after one anti-entropy pass to the exact
//     fingerprint of an always-healthy replica, both live and after a
//     restart from its healed journal.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const fleetDeltas = 10

var (
	fixOnce     sync.Once
	fixErr      error
	fixData     *corpus.Dataset
	fixDeltas   []core.ReviewData
	fixBaseSnap string // monolithic base snapshot (pre-delta)
	fixWantFP   string // fingerprint of the enriched monolith
	fixN        int    // fingerprint entries covered
)

// fixture builds the shared base: a small hotel corpus held short of its
// last reviews, a monolithic base snapshot, and the fingerprint of the
// monolith after applying the held-out deltas — the answer every healed
// or rebalanced fleet must reproduce byte for byte.
func fixture(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() { fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatalf("fleet fixture: %v", fixErr)
	}
}

func buildFixture() error {
	genCfg := corpus.SmallConfig()
	genCfg.Seed = 1
	fixData = corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.UseSubstitutionIndex = true
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	in := harness.BuildInputFromDataset(fixData, 400, 300, rng)
	split := len(in.Reviews) - fleetDeltas
	fixDeltas = append([]core.ReviewData(nil), in.Reviews[split:]...)
	in.Reviews = in.Reviews[:split]
	base, err := core.Build(in, cfg)
	if err != nil {
		return fmt.Errorf("base build: %w", err)
	}
	dir, err := os.MkdirTemp("", "fleet-base-*")
	if err != nil {
		return err
	}
	fixBaseSnap = filepath.Join(dir, "hotel-base.snap")
	if _, err := snapshot.Save(fixBaseSnap, base); err != nil {
		return err
	}
	// The reference: a clone of the base monolith that ingested every
	// delta in order.
	reference, _, err := snapshot.Load(fixBaseSnap)
	if err != nil {
		return err
	}
	for _, rv := range fixDeltas {
		if err := reference.ApplyReview(rv); err != nil {
			return err
		}
	}
	fixWantFP, fixN = harness.QueryFingerprint(fixData, reference)
	if fixN != 948 {
		return fmt.Errorf("fingerprint covers %d query-set entries, want 948", fixN)
	}
	return nil
}

// writeFleet partitions the base snapshot's database into n shards and
// writes snapshots + manifest into dir, returning the manifest path.
func writeFleet(t *testing.T, dir string, n int) string {
	t.Helper()
	base, _, err := snapshot.Load(fixBaseSnap)
	if err != nil {
		t.Fatal(err)
	}
	shardDBs, parts, err := base.Shards(n)
	if err != nil {
		t.Fatal(err)
	}
	m := &snapshot.Manifest{
		FormatVersion: snapshot.FormatVersion,
		Name:          base.Name,
		BuildSeed:     1,
		Shards:        n,
		TotalEntities: len(base.EntityIDs()),
		CreatedUnix:   1,
	}
	for i, sdb := range shardDBs {
		ids := parts[i]
		path := filepath.Join(dir, fmt.Sprintf("hotel-shard%d.snap", i))
		meta, err := snapshot.SaveShard(path, sdb, &snapshot.ShardMeta{
			Index: i, Count: n,
			Entities: len(ids), TotalEntities: len(base.EntityIDs()),
			FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
		})
		if err != nil {
			t.Fatalf("shard %d save: %v", i, err)
		}
		m.Shard = append(m.Shard, snapshot.ManifestShard{
			Index: i, Path: filepath.Base(path),
			Entities: len(ids), FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
			SnapshotSHA256: meta.SHA256, SnapshotBytes: meta.FileBytes,
		})
	}
	manifestPath := filepath.Join(dir, "hotel.manifest.json")
	if err := snapshot.WriteManifest(manifestPath, m); err != nil {
		t.Fatal(err)
	}
	return manifestPath
}

// liveShard is one serving node of an in-process fleet: a loaded shard
// database behind the real HTTP handler, journaled.
type liveShard struct {
	db      *core.DB
	journal *journal.Journal
	backend *router.LocalBackend
}

// serveFleet loads every shard of a manifest with a journal and returns
// the live nodes plus a router over them (auto-repair configured by the
// caller through opts).
func serveFleet(t *testing.T, manifestPath string, opts router.Options) (*snapshot.Manifest, []*liveShard, *router.Router) {
	t.Helper()
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*liveShard, m.Shards)
	shards := make([]router.Shard, m.Shards)
	for i := range m.Shard {
		db, _, err := snapshot.LoadVerifiedShard(manifestPath, m, i)
		if err != nil {
			t.Fatalf("shard %d load: %v", i, err)
		}
		jdir := journal.Dir(snapshot.ShardPath(manifestPath, m.Shard[i]))
		j, err := journal.Open(jdir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := journal.ApplyAll(db, jdir)
		if err != nil {
			t.Fatalf("shard %d replay: %v", i, err)
		}
		backend := router.NewLocalBackend(fmt.Sprintf("shard%d", i), db, server.Options{
			Ingest: &server.IngestOptions{
				AcceptUnowned:  true,
				JournalDir:     jdir,
				JournalLastSeq: st.LastSeq,
				AppendBatch:    server.JournalAppendBatch(j),
			},
		})
		nodes[i] = &liveShard{db: db, journal: j, backend: backend}
		shards[i] = router.Shard{
			Backend:     backend,
			FirstEntity: m.Shard[i].FirstEntity,
			LastEntity:  m.Shard[i].LastEntity,
		}
	}
	rt, err := router.New(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			_ = n.journal.Close()
		}
	})
	return m, nodes, rt
}

// ingestThrough routes the fixture deltas through the router's write
// path.
func ingestThrough(t *testing.T, rt *router.Router, deltas []core.ReviewData) {
	t.Helper()
	for _, rv := range deltas {
		_, err := rt.AddReview(context.Background(), server.ReviewRequest{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
		if err != nil {
			t.Fatalf("write %s: %v", rv.ID, err)
		}
	}
}

// enrichedFleet builds an N-shard fleet dir whose snapshots hold the
// base build and whose journals hold every delta — the rebalance input
// shape ("snapshots + unreplayed journals").
func enrichedFleet(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, n)
	_, nodes, rt := serveFleet(t, manifestPath, router.Options{})
	ingestThrough(t, rt, fixDeltas)
	for _, node := range nodes {
		if err := node.journal.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return manifestPath
}

// copyFleet clones a fleet directory (snapshots, journals, manifest) so
// destructive operations run on a throwaway copy.
func copyFleet(t *testing.T, manifestPath string) string {
	t.Helper()
	src := filepath.Dir(manifestPath)
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dst, filepath.Base(manifestPath))
}

// routedFingerprint loads a fleet from its manifest behind an in-process
// router and fingerprints it.
func routedFingerprint(t *testing.T, manifestPath string) string {
	t.Helper()
	rt, _, err := router.FromManifest(manifestPath, router.ManifestOptions{})
	if err != nil {
		t.Fatalf("load fleet %s: %v", manifestPath, err)
	}
	fp, n := harness.QueryFingerprint(fixData, rt.Engine(context.Background()))
	if n != fixN {
		t.Fatalf("fingerprint covers %d entries, want %d", n, fixN)
	}
	return fp
}

// TestRebalanceMatrix is the rebalance contract: every N→M over
// {1,2,4,8} serves the enriched monolith's exact fingerprint from the
// rebalanced snapshots, with journals folded away.
func TestRebalanceMatrix(t *testing.T) {
	fixture(t)
	sizes := []int{1, 2, 4, 8}
	if testing.Short() {
		sizes = []int{1, 4}
	}
	for _, n := range sizes {
		n := n
		src := enrichedFleet(t, n)
		for _, m := range sizes {
			if m == n {
				continue
			}
			t.Run(fmt.Sprintf("%dto%d", n, m), func(t *testing.T) {
				manifestPath := copyFleet(t, src)
				report, err := fleet.Rebalance(manifestPath, m, fleet.RebalanceOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if report.FromShards != n || report.ToShards != m || report.ReplayedRecords != fleetDeltas {
					t.Fatalf("report = %+v", report)
				}
				got, err := snapshot.LoadManifest(manifestPath)
				if err != nil {
					t.Fatal(err)
				}
				if got.Shards != m {
					t.Fatalf("manifest has %d shards, want %d", got.Shards, m)
				}
				// Old artifacts and journals are gone; the new fleet starts
				// with empty delta logs.
				for _, p := range report.RemovedPaths {
					if _, err := os.Stat(p); !os.IsNotExist(err) {
						t.Errorf("old artifact %s survived", p)
					}
				}
				for _, s := range got.Shard {
					if _, err := os.Stat(journal.Dir(snapshot.ShardPath(manifestPath, s))); !os.IsNotExist(err) {
						t.Errorf("new shard %d has a journal before any write", s.Index)
					}
				}
				if fp := routedFingerprint(t, manifestPath); fp != fixWantFP {
					t.Fatalf("%d→%d rebalanced fleet diverges from the enriched monolith", n, m)
				}
			})
		}
	}
}

// TestRebalanceCrashRetry drives the commit protocol into a simulated
// crash at every failpoint; the retried rebalance must converge to the
// same byte-identical fleet with nothing leaked.
func TestRebalanceCrashRetry(t *testing.T) {
	fixture(t)
	src := enrichedFleet(t, 4)
	for _, stage := range []string{"staged", "published", "committed"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			manifestPath := copyFleet(t, src)
			crash := fmt.Errorf("injected crash at %s", stage)
			_, err := fleet.Rebalance(manifestPath, 2, fleet.RebalanceOptions{
				Failpoint: func(s string) error {
					if s == stage {
						return crash
					}
					return nil
				},
			})
			if err == nil {
				t.Fatal("failpoint did not fire")
			}
			// Whatever the crash left behind, the fleet on disk must load:
			// either the old 4-shard generation or the committed 2-shard one.
			m, err := snapshot.LoadManifest(manifestPath)
			if err != nil {
				t.Fatalf("manifest unusable after crash at %s: %v", stage, err)
			}
			if _, _, err := router.FromManifest(manifestPath, router.ManifestOptions{}); err != nil {
				t.Fatalf("fleet unloadable after crash at %s (manifest %d shards): %v", stage, m.Shards, err)
			}
			// Retry converges.
			report, err := fleet.Rebalance(manifestPath, 2, fleet.RebalanceOptions{})
			if err != nil {
				t.Fatalf("retry after crash at %s: %v", stage, err)
			}
			if report.ToShards != 2 {
				t.Fatalf("retry report = %+v", report)
			}
			if fp := routedFingerprint(t, manifestPath); fp != fixWantFP {
				t.Fatalf("retried rebalance after crash at %s diverges", stage)
			}
			// Nothing of either generation leaked: the directory holds the
			// committed shards, the manifest, and nothing else.
			m2, err := snapshot.LoadManifest(manifestPath)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{filepath.Base(manifestPath): true}
			for _, s := range m2.Shard {
				want[s.Path] = true
			}
			entries, err := os.ReadDir(filepath.Dir(manifestPath))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !want[e.Name()] {
					t.Errorf("leaked artifact %s after crash at %s", e.Name(), stage)
				}
			}
		})
	}
}

// faultyBackend wraps a Backend, dropping POST /reviews while tripped —
// the fault injection of the repair contract.
type faultyBackend struct {
	router.Shard
	mu      sync.Mutex
	tripped bool
}

func (f *faultyBackend) Name() string { return f.Shard.Backend.Name() + "(faulty)" }

func (f *faultyBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	f.mu.Lock()
	tripped := f.tripped
	f.mu.Unlock()
	if tripped && method == http.MethodPost && target == "/reviews" {
		return 0, nil, fmt.Errorf("injected fault: %s is down for writes", f.Shard.Backend.Name())
	}
	return f.Shard.Backend.Do(ctx, method, target, body)
}

func (f *faultyBackend) setTripped(v bool) {
	f.mu.Lock()
	f.tripped = v
	f.mu.Unlock()
}

// TestRepairConvergesDownReplica is the repair contract: shard 2 misses
// the last K replicated writes (its backend drops them), one anti-entropy
// pass backfills it, and both its live state and its
// restart-from-journal state fingerprint exactly like an always-healthy
// replica's.
func TestRepairConvergesDownReplica(t *testing.T) {
	fixture(t)
	// The fixture's held-out deltas all land in the LAST shard's entity
	// range (reviews are grouped by entity), so shard 0 sees them purely
	// as replicated traffic — the down-replica drift scenario.
	const faultyIdx = 0
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 3)
	m, nodes, _ := serveFleet(t, manifestPath, router.Options{})

	// Rebuild the router with shard 2 behind a fault injector, healing
	// disabled — this test exercises the standalone anti-entropy pass.
	shards := make([]router.Shard, len(nodes))
	faulty := &faultyBackend{}
	for i, node := range nodes {
		shards[i] = router.Shard{
			Backend:     node.backend,
			FirstEntity: m.Shard[i].FirstEntity,
			LastEntity:  m.Shard[i].LastEntity,
		}
		if i == faultyIdx {
			faulty.Shard = shards[i]
			shards[i].Backend = faulty
		}
	}
	rt, err := router.New(shards, router.Options{DisableAutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}

	// A down replica misses replicated (non-owned) writes; a write whose
	// OWNER is down aborts fleet-wide and drifts nobody. Guard the
	// premise: the faulty shard owns none of the deltas it will miss.
	ordered := fixDeltas
	split := len(ordered) - 6
	missed := len(ordered) - split
	for _, rv := range ordered[split:] {
		if rv.EntityID >= m.Shard[faultyIdx].FirstEntity && rv.EntityID <= m.Shard[faultyIdx].LastEntity {
			t.Fatalf("delta %s is owned by the faulty shard; the scenario needs replicated traffic", rv.ID)
		}
	}

	ingestThrough(t, rt, ordered[:split])
	faulty.setTripped(true)
	for _, rv := range ordered[split:] {
		res, err := rt.AddReview(context.Background(), server.ReviewRequest{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
		if err != nil {
			t.Fatalf("write %s: %v", rv.ID, err)
		}
		if !res.Partial {
			t.Fatalf("write %s: faulty replica did not produce a partial report", rv.ID)
		}
	}
	faulty.setTripped(false)

	backends := make([]fleet.Backend, len(nodes))
	for i, node := range nodes {
		backends[i] = node.backend
	}
	report, err := fleet.Repair(context.Background(), backends, fleet.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.InSync {
		t.Fatal("repair found nothing to do on a lagging fleet")
	}
	var nr *fleet.NodeRepair
	for i := range report.Nodes {
		if report.Nodes[i].Index == faultyIdx {
			nr = &report.Nodes[i]
		}
	}
	if nr == nil || nr.Backfilled != missed || nr.FullSync || nr.Err != "" || nr.Failed != 0 {
		t.Fatalf("faulty node repair = %+v, want %d tail backfills", nr, missed)
	}
	if nr.Before != uint64(split) || nr.After != uint64(len(ordered)) {
		t.Fatalf("faulty node moved %d→%d, want %d→%d", nr.Before, nr.After, split, len(ordered))
	}

	// A second pass is a no-op: the fleet is in sync.
	again, err := fleet.Repair(context.Background(), backends, fleet.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.InSync {
		t.Fatalf("fleet still out of sync after repair: %+v", again.Nodes)
	}

	// The healthy twin: shard 2 reloaded from its snapshot with every
	// delta applied directly, in fleet order — what an always-healthy
	// replica holds.
	twin, _, err := snapshot.LoadVerifiedShard(manifestPath, m, faultyIdx)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range ordered {
		if err := twin.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	wantFP, _ := harness.QueryFingerprint(fixData, twin)

	// Live convergence: the repaired replica's in-memory state.
	if gotFP, _ := harness.QueryFingerprint(fixData, nodes[faultyIdx].db); gotFP != wantFP {
		t.Fatal("repaired replica's live state diverges from the always-healthy replica")
	}
	// Restart convergence: its journal now carries the missed suffix in
	// fleet order, so snapshot + replay reproduces the same state.
	restarted, _, err := snapshot.LoadVerifiedShard(manifestPath, m, faultyIdx)
	if err != nil {
		t.Fatal(err)
	}
	jdir := journal.Dir(snapshot.ShardPath(manifestPath, m.Shard[faultyIdx]))
	st, err := journal.ApplyAll(restarted, jdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != len(ordered) {
		t.Fatalf("restart replayed %d deltas, want %d", st.Applied, len(ordered))
	}
	if gotFP, _ := harness.QueryFingerprint(fixData, restarted); gotFP != wantFP {
		t.Fatal("repaired replica's restart state diverges from the always-healthy replica")
	}
}

// TestRepairFullSyncAfterMidStreamGap: a transient per-write fault
// carves a gap in the middle of a replica's journal; repair detects the
// broken prefix, falls back to a full sync, and converges the review
// set.
func TestRepairFullSyncAfterMidStreamGap(t *testing.T) {
	fixture(t)
	const faultyIdx = 0
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 3)
	m, nodes, _ := serveFleet(t, manifestPath, router.Options{})
	shards := make([]router.Shard, len(nodes))
	faulty := &faultyBackend{}
	for i, node := range nodes {
		shards[i] = router.Shard{Backend: node.backend, FirstEntity: m.Shard[i].FirstEntity, LastEntity: m.Shard[i].LastEntity}
		if i == faultyIdx {
			faulty.Shard = shards[i]
			shards[i].Backend = faulty
		}
	}
	rt, err := router.New(shards, router.Options{DisableAutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}

	// Drop exactly one mid-stream REPLICATED write on shard 1: the gap
	// must be a write shard 1 does not own (an owned write would abort
	// fleet-wide instead of drifting), and must not be the last write, so
	// later records bury the gap mid-journal.
	gapAt := -1
	for wi, rv := range fixDeltas[:len(fixDeltas)-1] {
		if wi > 0 && !(rv.EntityID >= m.Shard[faultyIdx].FirstEntity && rv.EntityID <= m.Shard[faultyIdx].LastEntity) {
			gapAt = wi
			break
		}
	}
	if gapAt < 0 {
		t.Fatal("fixture has no mid-stream replicated delta for the faulty shard")
	}
	for wi, rv := range fixDeltas {
		faulty.setTripped(wi == gapAt)
		if _, err := rt.AddReview(context.Background(), server.ReviewRequest{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		}); err != nil {
			t.Fatalf("write %s: %v", rv.ID, err)
		}
	}
	faulty.setTripped(false)

	backends := make([]fleet.Backend, len(nodes))
	for i, node := range nodes {
		backends[i] = node.backend
	}
	report, err := fleet.Repair(context.Background(), backends, fleet.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var nr *fleet.NodeRepair
	for i := range report.Nodes {
		if report.Nodes[i].Index == faultyIdx {
			nr = &report.Nodes[i]
		}
	}
	if nr == nil || !nr.FullSync || nr.Backfilled != 1 || nr.Err != "" {
		t.Fatalf("gap repair = %+v, want a full sync backfilling the one missed record", nr)
	}
	// Set convergence: the replica now holds every delta.
	for _, rv := range fixDeltas {
		if !nodes[faultyIdx].db.HasReview(rv.ID) {
			t.Fatalf("review %s still missing after full sync", rv.ID)
		}
	}
	// And its journal carries all records.
	jdir := journal.Dir(snapshot.ShardPath(manifestPath, m.Shard[faultyIdx]))
	jst, err := journal.StatDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if jst.Records != len(fixDeltas) {
		t.Fatalf("journal holds %d records after full sync, want %d", jst.Records, len(fixDeltas))
	}
}

// TestAutoRepairHealsPartialWrite is the router-integration contract: a
// reported `partial` write triggers healing automatically. A transient
// fault drops one replication; the next write's heal-before-write pass
// backfills the missed record FIRST, so the healed replica's journal
// keeps the fleet order and its state converges byte-identically — no
// operator action involved.
func TestAutoRepairHealsPartialWrite(t *testing.T) {
	fixture(t)
	const faultyIdx = 0
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 3)
	m, nodes, _ := serveFleet(t, manifestPath, router.Options{})
	shards := make([]router.Shard, len(nodes))
	faulty := &faultyBackend{}
	for i, node := range nodes {
		shards[i] = router.Shard{Backend: node.backend, FirstEntity: m.Shard[i].FirstEntity, LastEntity: m.Shard[i].LastEntity}
		if i == faultyIdx {
			faulty.Shard = shards[i]
			shards[i].Backend = faulty
		}
	}
	// Auto-repair stays at its default: enabled.
	rt, err := router.New(shards, router.Options{})
	if err != nil {
		t.Fatal(err)
	}

	write := func(rv core.ReviewData) *router.ReviewResult {
		t.Helper()
		res, err := rt.AddReview(context.Background(), server.ReviewRequest{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
		if err != nil {
			t.Fatalf("write %s: %v", rv.ID, err)
		}
		return res
	}

	ingestThrough(t, rt, fixDeltas[:4])
	// One dropped replication: the write is partial and the immediate
	// repair attempt fails too (the backend is still down for writes).
	faulty.setTripped(true)
	res := write(fixDeltas[4])
	if !res.Partial || len(res.Healed) != 0 {
		t.Fatalf("tripped write = %+v, want partial and unhealed", res)
	}
	if got := rt.DirtyShards(); len(got) != 1 || got[0] != faultyIdx {
		t.Fatalf("dirty shards = %v", got)
	}
	faulty.setTripped(false)

	// The next write heals BEFORE it fans out: the missed record lands
	// first, so the journal keeps the fleet order.
	res = write(fixDeltas[5])
	if res.Partial || len(res.Healed) != 1 || res.Healed[0] != faultyIdx {
		t.Fatalf("healing write = %+v, want healed=[%d]", res, faultyIdx)
	}
	if got := rt.DirtyShards(); len(got) != 0 {
		t.Fatalf("dirty shards after heal = %v", got)
	}
	ingestThrough(t, rt, fixDeltas[6:])

	// Every journal converged to the same record sequence.
	want, err := journal.StatDir(journal.Dir(snapshot.ShardPath(manifestPath, m.Shard[1])))
	if err != nil {
		t.Fatal(err)
	}
	got, err := journal.StatDir(journal.Dir(snapshot.ShardPath(manifestPath, m.Shard[faultyIdx])))
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != len(fixDeltas) || got.Records != want.Records || got.PrefixHash != want.PrefixHash {
		t.Fatalf("journals diverge after auto-heal: faulty %+v vs healthy %+v", got, want)
	}

	// Byte identity: the auto-healed replica matches an always-healthy
	// twin that applied every delta in fleet order.
	twin, _, err := snapshot.LoadVerifiedShard(manifestPath, m, faultyIdx)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range fixDeltas {
		if err := twin.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	wantFP, _ := harness.QueryFingerprint(fixData, twin)
	if gotFP, _ := harness.QueryFingerprint(fixData, nodes[faultyIdx].db); gotFP != wantFP {
		t.Fatal("auto-healed replica diverges from the always-healthy twin")
	}

	// The operator trigger agrees: POST /repair reports the fleet in sync.
	front := httptest.NewServer(router.NewHandler(rt))
	defer front.Close()
	resp, err := http.Post(front.URL+"/repair", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var report fleet.RepairReport
	decErr := json.NewDecoder(resp.Body).Decode(&report)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil {
		t.Fatalf("POST /repair: status %d (%v)", resp.StatusCode, decErr)
	}
	if !report.InSync {
		t.Fatalf("POST /repair reports out-of-sync fleet: %+v", report.Nodes)
	}
}

// TestRepairReportsUnreachableNode: a node that cannot even answer
// /journal/status is reported, not silently skipped.
func TestRepairReportsUnreachableNode(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 2)
	_, nodes, rt := serveFleet(t, manifestPath, router.Options{})
	ingestThrough(t, rt, fixDeltas[:3])

	dead := deadBackend{}
	report, err := fleet.Repair(context.Background(), []fleet.Backend{nodes[0].backend, dead}, fleet.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.InSync {
		t.Fatal("a fleet with a dead node is not in sync")
	}
	if report.Nodes[1].Err == "" {
		t.Fatalf("dead node not reported: %+v", report.Nodes[1])
	}
	if !report.Converged(0) || report.Converged(1) {
		t.Fatalf("convergence misreported: %+v", report.Nodes)
	}
}

type deadBackend struct{}

func (deadBackend) Name() string { return "dead" }
func (deadBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	return 0, nil, fmt.Errorf("connection refused")
}

// volatileBackend models a node serving with unjournaled ingestion: the
// journal surface answers 404.
type volatileBackend struct{}

func (volatileBackend) Name() string { return "volatile" }
func (volatileBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	return http.StatusNotFound, []byte(`{"error":"this node has no journal"}`), nil
}

// TestRepairVolatileFleet: a fleet with no journal surface has no
// anti-entropy substrate; Repair says so with a typed error instead of
// pretending to converge anything.
func TestRepairVolatileFleet(t *testing.T) {
	_, err := fleet.Repair(context.Background(), []fleet.Backend{volatileBackend{}, volatileBackend{}}, fleet.RepairOptions{})
	if !errors.Is(err, fleet.ErrNoJournalSurface) {
		t.Fatalf("err = %v, want ErrNoJournalSurface", err)
	}
}

// TestRebalanceRefusesDriftedFleet: journals that disagree fail the
// consistency gate with a message pointing at repair.
func TestRebalanceRefusesDriftedFleet(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 2)
	m, nodes, rt := serveFleet(t, manifestPath, router.Options{})
	ingestThrough(t, rt, fixDeltas[:4])
	// Carve shard 1's journal: drop its last record by truncating the
	// journal directory and rewriting one record fewer.
	_ = m
	for _, node := range nodes {
		_ = node.journal.Close()
	}
	jdir := journal.Dir(snapshot.ShardPath(manifestPath, m.Shard[1]))
	if err := os.RemoveAll(jdir); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range fixDeltas[:3] {
		if _, err := j.Append(journal.Review{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = fleet.Rebalance(manifestPath, 1, fleet.RebalanceOptions{})
	if err == nil {
		t.Fatal("rebalance accepted a drifted fleet")
	}
	var manifestAfter *snapshot.Manifest
	if manifestAfter, _ = snapshot.LoadManifest(manifestPath); manifestAfter == nil || manifestAfter.Shards != 2 {
		t.Fatal("failed rebalance mutated the manifest")
	}
}
