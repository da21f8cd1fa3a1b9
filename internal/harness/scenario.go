package harness

// The scenario table: every end-to-end drill of the serving contract —
// each deployment shape answers the 948-entry query set byte-identically
// to the monolith it was built from — as one data-driven entry run by
// one runner. An entry names the fleet shape, the faults injected into
// it, the traffic driven at it (a weighted mix over a timeline, or a
// drill-specific Drive), and the gates that must hold once that traffic
// has drained. `opinedbb -scenario <name>` runs an entry; each CI smoke
// job is one `make <name>-smoke` target calling it.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Scenario is one named end-to-end drill: build the deployment, drive
// its traffic (firing the timeline's faults), drain, then check every
// gate in order.
type Scenario struct {
	Name string
	// Shards and Replicas shape the fleet; Shards 0 is the monolith
	// snapshot alone.
	Shards, Replicas int
	// SlowReplica delays every request to shard 0's last replica — the
	// degraded node that hedged scatter legs answer.
	SlowReplica time.Duration
	// Mix, Concurrency and Duration drive a load phase against a
	// journaled in-process fleet (BuildLoadFleet); a zero Mix means none.
	Mix         LoadMix
	Concurrency int
	Duration    time.Duration
	// FrontDoor drives the load over real TCP through a loopback listener
	// instead of calling the router's handler in process.
	FrontDoor bool
	// Trace keeps every request's trace in the fleet's shared store.
	Trace bool
	// Timeline fires fault events at offsets into the load phase.
	Timeline []Event
	// Drive replaces the load phase for drills whose traffic is not a
	// mix: the journal crash worker and the routed rebalance writes.
	Drive func(ctx context.Context, r *ScenarioRun) error
	Gates []Gate
}

// Event is one fault fired At an offset into the load phase.
type Event struct {
	At   time.Duration
	Name string
	Do   func(ctx context.Context, r *ScenarioRun) error
}

// Gate is one named assertion over a drained run.
type Gate struct {
	Name  string
	Check func(ctx context.Context, r *ScenarioRun) error
}

// ScenarioRun is one execution's state: what setup built, what the
// traffic did, and what the gates read.
type ScenarioRun struct {
	Scenario Scenario
	Seed     int64
	Dir      string
	Dataset  *corpus.Dataset
	// DB is the monolith the deployment was built from — the
	// byte-identity reference every fingerprint gate compares against.
	DB *core.DB
	// Path is the monolith snapshot (Shards 0) or, without a load phase,
	// the fleet manifest.
	Path  string
	Fleet *LoadFleet
	Load  LoadResult
	// Acked counts the writes a Drive saw acknowledged: the crash
	// worker's highest acked sequence number, or the routed writes acked
	// whole and durable.
	Acked int
	// Replayed counts the journaled writes fingerprint gates replayed
	// into DB; Entries the query-set entries they compared.
	Replayed, Entries int
	Recovered         []journal.Review // what the crashed worker's journal replays
	Admit             *router.AdmitReport

	mu       sync.Mutex
	switches map[[2]int]*killSwitch
}

// The drill sizes the CI smoke jobs have always used.
const (
	crashAcks       = 40 // appends the journal worker acks before its SIGKILL
	crashEntities   = 50 // entities the crash worker writes to
	rebalanceWrites = 24 // routed writes before the fleet is rebalanced
)

var (
	loadGate  = Gate{"every op served, measured and durable", func(_ context.Context, r *ScenarioRun) error { return checkLoad(r.Load, r.Scenario.Mix) }}
	traceGate = Gate{"a hedge-won trace joined its server spans", func(_ context.Context, r *ScenarioRun) error { return checkHedgeTrace(r.Fleet.Trace.Snapshot()) }}
)

var scenarios = []Scenario{
	{Name: "snapshot", Gates: []Gate{{"loaded snapshot matches the build and serves a query", gateSnapshot}}},
	{Name: "shard", Shards: 4, Gates: []Gate{{"routed fleet matches the monolith", gateRoutedFleet}}},
	{
		Name:  "journal",
		Drive: crashJournalWorker,
		Gates: []Gate{
			{"acked appends recovered as a contiguous prefix", gateAckedPrefix},
			{"replay applies every record and matches direct apply", gateJournalReplay},
			{"compaction leaves an empty journal and the same answers", gateCompaction},
		},
	},
	{
		Name: "rebalance", Shards: 4, Drive: routeRebalanceWrites,
		Gates: []Gate{{"every routed write acked whole and durable", gateWritesAcked}, rebalanceGate(2), rebalanceGate(8)},
	},
	{
		Name: "replica", Shards: 3, Replicas: 2,
		Mix: DefaultLoadMix(), Concurrency: 4, Duration: 3 * time.Second,
		Timeline: []Event{
			{700 * time.Millisecond, "join a third replica to range 0", joinReplica(0)},
			{1900 * time.Millisecond, "kill shard 0 replica 1", killNode(0, 1)},
		},
		Gates: []Gate{loadGate, {"joiner admitted identical and hash-chained like an original", gateJoin}, fingerprintGate(false)},
	},
	{
		Name: "load", Shards: 4, FrontDoor: true,
		Mix: DefaultLoadMix(), Concurrency: 8, Duration: 5 * time.Second,
		Gates: []Gate{loadGate, fingerprintGate(true)},
	},
	{
		Name: "write", Shards: 4, FrontDoor: true,
		Mix: LoadMix{Query: 1, TopK: 1, Interpret: 1, Reviews: 6}, Concurrency: 16, Duration: 5 * time.Second,
		Gates: []Gate{loadGate, fingerprintGate(true)},
	},
	{
		Name: "trace", Shards: 4, Replicas: 2, SlowReplica: 25 * time.Millisecond, FrontDoor: true, Trace: true,
		Mix: DefaultLoadMix(), Concurrency: 8, Duration: 5 * time.Second,
		Gates: []Gate{loadGate, traceGate, fingerprintGate(true)},
	},
}

// LookupScenario returns a copy of the named table entry.
func LookupScenario(name string) (Scenario, error) {
	var names []string
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (want one of %s)", name, strings.Join(names, ", "))
}

// RunScenario executes sc under dir (which the caller owns and removes)
// with the given corpus and build seed. The returned run is non-nil
// even on failure, so callers can report how far it got.
func RunScenario(ctx context.Context, sc Scenario, dir string, seed int64) (*ScenarioRun, error) {
	r := &ScenarioRun{Scenario: sc, Seed: seed, Dir: dir, switches: map[[2]int]*killSwitch{}}
	start := time.Now()
	slog.Info("scenario: building", "scenario", sc.Name, "shards", sc.Shards, "replicas", sc.Replicas, "seed", seed)
	if err := r.setup(); err != nil {
		return r, fmt.Errorf("scenario %s: setup: %w", sc.Name, err)
	}
	if err := r.drive(ctx); err != nil {
		return r, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	for _, g := range sc.Gates {
		if err := g.Check(ctx, r); err != nil {
			return r, fmt.Errorf("scenario %s: gate %q: %w", sc.Name, g.Name, err)
		}
		slog.Info("scenario: gate passed", "scenario", sc.Name, "gate", g.Name)
	}
	slog.Info("scenario: passed", "scenario", sc.Name, "gates", len(sc.Gates), "seconds", time.Since(start).Seconds())
	return r, nil
}

// setup builds the deployment: a journaled in-process fleet for a load
// phase, otherwise the monolith written as a snapshot or a shard fleet.
func (r *ScenarioRun) setup() error {
	sc := r.Scenario
	if sc.Mix.total() > 0 {
		var tr *trace.Options
		if sc.Trace {
			// A hedge-won request is FAST — that is hedging working — so it
			// would rarely clear the slow-retention cutoff. Keep every trace
			// in a ring wide enough to hold the whole run's wins.
			tr = &trace.Options{SampleRate: 1, Capacity: 4096}
		}
		fl, err := BuildLoadFleet(r.Dir, LoadFleetOptions{Shards: sc.Shards, Replicas: sc.Replicas, Seed: r.Seed, Trace: tr, WrapBackend: r.wrapNode})
		if err != nil {
			return err
		}
		r.Fleet, r.Dataset, r.DB = fl, fl.Dataset, fl.DB
		return nil
	}
	d, db, err := BuildDomain("hotel", true, r.Seed, 0, 400, 300, true)
	if err != nil {
		return err
	}
	r.Dataset, r.DB = d, db
	if sc.Shards > 0 {
		r.Path, err = WriteFleet(db, r.Dir, "hotel", sc.Shards, r.Seed)
		return err
	}
	r.Path = filepath.Join(r.Dir, "hotel.snap")
	_, err = snapshot.Save(r.Path, db)
	return err
}

// drive runs the scenario's traffic: its Drive, or the load phase with
// the timeline's faults firing during it. The load phase returns only
// once every in-flight request has drained.
func (r *ScenarioRun) drive(ctx context.Context) error {
	sc := r.Scenario
	if sc.Drive != nil {
		return sc.Drive(ctx, r)
	}
	if sc.Mix.total() == 0 {
		return nil
	}
	target := HandlerLoadTarget(r.Fleet.Handler)
	var srv *http.Server
	if sc.FrontDoor {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv = &http.Server{Handler: r.Fleet.Handler}
		go srv.Serve(ln)
		defer srv.Close()
		target = HTTPLoadTarget("http://"+ln.Addr().String(), nil)
		slog.Info("scenario: front door listening", "scenario", sc.Name, "addr", ln.Addr().String())
	}

	var wg sync.WaitGroup
	eventErrs := make([]error, len(sc.Timeline))
	for i, ev := range sc.Timeline {
		wg.Add(1)
		time.AfterFunc(ev.At, func() {
			defer wg.Done()
			slog.Info("scenario: timeline event", "scenario", sc.Name, "at", ev.At, "event", ev.Name)
			if err := ev.Do(ctx, r); err != nil {
				eventErrs[i] = fmt.Errorf("timeline %q: %w", ev.Name, err)
			}
		})
	}
	r.Load = RunLoadMix(ctx, target, r.Dataset, LoadOptions{Mix: sc.Mix, Concurrency: sc.Concurrency, Duration: sc.Duration, Seed: r.Seed})
	var drainErr error
	if srv != nil {
		// Workers whose deadline expired mid-request abandoned the client
		// side, but the server handlers are still journaling and folding
		// those writes. The fingerprint gates compare journals against live
		// state, so every in-flight commit must land first.
		drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			drainErr = fmt.Errorf("drain: %w", err)
		}
	}
	wg.Wait()
	return errors.Join(append(eventErrs, drainErr)...)
}

// killSwitch fronts a live backend; dead, it fails every request like a
// connection refusal — the shape a crashed opinedbd presents to an HTTP
// backend.
type killSwitch struct {
	router.Backend
	dead atomic.Bool
}

func (k *killSwitch) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	if k.dead.Load() {
		return 0, nil, fmt.Errorf("%s: connection refused (killed by the scenario)", k.Name())
	}
	return k.Backend.Do(ctx, method, target, body)
}

// wrapNode injects the scenario's faults into every node, joiners
// included: the slow-replica delay, and a kill switch a timeline event
// can throw.
func (r *ScenarioRun) wrapNode(shard, replica int, b router.Backend) router.Backend {
	if d := r.Scenario.SlowReplica; d > 0 && shard == 0 && replica == max(r.Scenario.Replicas, 1)-1 {
		b = &router.DelayBackend{Inner: b, Delay: d}
	}
	k := &killSwitch{Backend: b}
	r.mu.Lock()
	r.switches[[2]int{shard, replica}] = k
	r.mu.Unlock()
	return k
}

// killNode is the timeline event that kills one node outright.
func killNode(shard, replica int) func(context.Context, *ScenarioRun) error {
	return func(_ context.Context, r *ScenarioRun) error {
		r.mu.Lock()
		k := r.switches[[2]int{shard, replica}]
		r.mu.Unlock()
		if k == nil {
			return fmt.Errorf("no node shard %d replica %d", shard, replica)
		}
		k.dead.Store(true)
		return nil
	}
}

// joinReplica is the timeline event that joins a fresh replica to a
// range mid-load: snapshot + journal catch-up, admitted under the write
// mutex with the byte-identity proof (writes queue behind the
// admission; they never fail).
func joinReplica(shard int) func(context.Context, *ScenarioRun) error {
	return func(ctx context.Context, r *ScenarioRun) error {
		joiner, err := r.Fleet.NewJoinerBackend(shard)
		if err != nil {
			return err
		}
		r.Admit, err = r.Fleet.Router.AdmitReplica(ctx, shard, joiner)
		return err
	}
}

// checkLoad enforces the load contract: the run proceeded, traffic
// flowed on every op kind the mix weights, nothing errored, every kind's
// latency was actually measured, and every write ack was durable.
func checkLoad(res LoadResult, mix LoadMix) error {
	if res.Err != "" {
		return errors.New(res.Err)
	}
	if res.TotalErrors != 0 {
		return fmt.Errorf("%d of %d requests failed", res.TotalErrors, res.TotalOps)
	}
	for _, w := range []struct {
		op     string
		weight int
	}{{"query", mix.Query}, {"topk", mix.TopK}, {"interpret", mix.Interpret}, {"reviews", mix.Reviews}} {
		if w.weight <= 0 {
			continue
		}
		st := res.PerOp[w.op]
		if st.Ops == 0 {
			return fmt.Errorf("op %s has weight %d but completed no operations", w.op, w.weight)
		}
		if st.P99Micros <= 0 {
			return fmt.Errorf("op %s: zero p99 over %d ops", w.op, st.Ops)
		}
	}
	if res.NonDurableAcks != 0 {
		return fmt.Errorf("%d write acks lacked \"durable\":true", res.NonDurableAcks)
	}
	return nil
}

// checkHedgeTrace enforces the end-to-end tracing contract: some
// retained trace shows a hedge that fired and won — its winning scatter
// leg attributed to a shard and replica — and that same trace carries
// server-side spans, proving the trace id propagated across the process
// boundary and the whole request assembled into one record.
func checkHedgeTrace(traces []trace.TraceJSON) error {
	for _, t := range traces {
		var hedgeWon, serverSide bool
		for _, s := range t.Spans {
			attr := map[string]string{}
			for _, a := range s.Attrs {
				attr[a.Key] = a.Value
			}
			hedgeWon = hedgeWon || s.Name == "router.leg" && attr["hedge_won"] == "true" && attr["shard"] != "" && attr["replica"] != ""
			serverSide = serverSide || strings.HasPrefix(s.Name, "server.")
		}
		if hedgeWon && serverSide {
			return nil
		}
	}
	return fmt.Errorf("no retained trace shows a hedge-won leg with server-side spans (%d traces inspected)", len(traces))
}

// fingerprintGate is the write-path byte-identity gate: every journaled
// write replays into the monolith each in its owner shard's commit order
// (LoadFleet.ReplayOwnedWrites), at least every acked write must
// replay, and the routed fleet must then answer the full query set
// byte-identically. With repair, one anti-entropy pass runs first: a
// replication a loaded replica refused at the very end of the run has no
// later write to heal it, which would leave that replica honestly stale
// for scheduling reasons, not correctness ones.
func fingerprintGate(repair bool) Gate {
	return Gate{fmt.Sprintf("owner-order replay matches the routed fleet (repair pass first: %v)", repair), func(ctx context.Context, r *ScenarioRun) error {
		fl := r.Fleet
		if repair {
			if _, err := fl.Router.RunRepair(ctx); err != nil {
				return fmt.Errorf("repair pass: %w", err)
			}
		}
		applied, err := fl.ReplayOwnedWrites()
		r.Replayed += applied
		if err != nil {
			return err
		}
		writes := r.Load.PerOp["reviews"]
		if acked := writes.Ops - writes.Errors; applied < acked {
			return fmt.Errorf("replayed %d writes, but %d were acked", applied, acked)
		}
		fleetFP, n := QueryFingerprint(fl.Dataset, fl.Router.Engine(ctx))
		monoFP, _ := QueryFingerprint(fl.Dataset, fl.DB)
		r.Entries = n
		if fleetFP != monoFP {
			return fmt.Errorf("routed fleet diverges from the replayed monolith over the %d-entry query set (%d journaled writes)", n, applied)
		}
		return nil
	}}
}

// gateJoin checks the mid-load join: admitted with the byte-identity
// proof, and the joiner kept pace afterwards — its journal's full hash
// chain matches an original replica's, record for record, through the
// end of the run.
func gateJoin(_ context.Context, r *ScenarioRun) error {
	a := r.Admit
	if a == nil || a.Final == nil || !a.Final.Identical {
		return fmt.Errorf("join admitted without the byte-identity proof: %+v", a)
	}
	dirs := r.Fleet.JournalDirs[a.Shard]
	origHash, origSeq, err := journalChain(dirs[0])
	if err != nil {
		return err
	}
	joinHash, joinSeq, err := journalChain(dirs[a.Replica])
	if err != nil {
		return err
	}
	if origSeq != joinSeq || origHash != joinHash {
		return fmt.Errorf("joiner journal (seq %d, %s) diverges from the original's (seq %d, %s)", joinSeq, joinHash, origSeq, origHash)
	}
	return nil
}

// journalChain reads a journal directory's full prefix-hash chain.
func journalChain(dir string) (string, uint64, error) {
	p, err := journal.NewPrefixHashes(dir)
	if err != nil {
		return "", 0, fmt.Errorf("hash chain for %s: %w", dir, err)
	}
	hash, seq := p.Last()
	return hash, seq, nil
}

// gateSnapshot reloads the written snapshot: it must answer the full
// query set byte-identically to the build and serve a live query.
func gateSnapshot(_ context.Context, r *ScenarioRun) error {
	loaded, _, err := snapshot.Load(r.Path)
	if err != nil {
		return err
	}
	builtFP, n := QueryFingerprint(r.Dataset, r.DB)
	if loadedFP, _ := QueryFingerprint(r.Dataset, loaded); loadedFP != builtFP {
		return fmt.Errorf("loaded snapshot diverges from the in-memory build over %d query-set entries", n)
	}
	res, err := loaded.Query(`SELECT * FROM Entities WHERE "has really clean rooms" LIMIT 3`)
	if err != nil {
		return fmt.Errorf("sample query: %w", err)
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("sample query returned no rows (%s)", res.Rewritten)
	}
	return nil
}

// gateRoutedFleet loads the fleet manifest behind a router and requires
// it to answer the full query set byte-identically to the monolith.
func gateRoutedFleet(ctx context.Context, r *ScenarioRun) error {
	rt, _, err := router.FromManifest(r.Path, router.ManifestOptions{})
	if err != nil {
		return err
	}
	want, n := QueryFingerprint(r.Dataset, r.DB)
	if got, _ := QueryFingerprint(r.Dataset, rt.Engine(ctx)); got != want {
		return fmt.Errorf("%d-shard fleet diverges from the monolith over %d query-set entries", rt.NumShards(), n)
	}
	return nil
}

// rebalanceGate re-partitions the stopped fleet to `to` shards — merging
// snapshots and journals, no rebuild — and requires the result to answer
// byte-identically to the enriched monolith.
func rebalanceGate(to int) Gate {
	return Gate{fmt.Sprintf("rebalanced to %d shards, the fleet matches the monolith", to), func(ctx context.Context, r *ScenarioRun) error {
		if _, err := fleet.Rebalance(r.Path, to, fleet.RebalanceOptions{}); err != nil {
			return err
		}
		return gateRoutedFleet(ctx, r)
	}}
}

// drillReview builds the drill writers' i-th deterministic review.
func drillReview(i int, entities []string) journal.Review {
	return journal.Review{
		ID:       fmt.Sprintf("smoke-%06d", i),
		EntityID: entities[i%len(entities)],
		Reviewer: fmt.Sprintf("smoker%02d", i%7),
		Day:      4000 + i,
		Text:     reviewPhrases[i%len(reviewPhrases)],
	}
}

// routeRebalanceWrites serves the written fleet in process with a
// journal next to each shard snapshot (where fleet.Rebalance folds them
// from), routes the drill writes through the fleet-ordered write path,
// applies the same writes in the same order to the monolith, and closes
// the journals so the fleet is stopped for rebalancing.
func routeRebalanceWrites(ctx context.Context, r *ScenarioRun) (err error) {
	var journals []*journal.Journal
	defer func() {
		for _, j := range journals {
			if cerr := j.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	var openErr error
	rt, _, err := router.FromManifest(r.Path, router.ManifestOptions{
		ShardServer: func(_, _ int, path string, _ *core.DB, _ *snapshot.Meta) server.Options {
			j, err := journal.Open(journal.Dir(path), journal.Options{})
			if err != nil {
				openErr = errors.Join(openErr, err)
				return server.Options{}
			}
			journals = append(journals, j)
			return server.Options{Ingest: &server.IngestOptions{AcceptUnowned: true, JournalDir: journal.Dir(path), AppendBatch: server.JournalAppendBatch(j)}}
		},
	})
	if err = errors.Join(err, openErr); err != nil {
		return err
	}
	entities := r.DB.EntityIDs()
	for i := 0; i < rebalanceWrites; i++ {
		rv := drillReview(i, entities)
		res, err := rt.AddReview(ctx, server.ReviewRequest{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text})
		if err != nil {
			return fmt.Errorf("write %s: %w", rv.ID, err)
		}
		if res.Partial || !res.Durable {
			slog.Warn("scenario: write not acked whole and durable", "id", rv.ID, "partial", res.Partial, "durable", res.Durable, "shard_errors", res.ShardErrors)
		} else {
			r.Acked++
		}
		if err := r.DB.ApplyReview(core.ReviewData{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}); err != nil {
			return fmt.Errorf("reference apply %s: %w", rv.ID, err)
		}
	}
	return nil
}

// gateWritesAcked requires every routed drill write acked whole and
// durable.
func gateWritesAcked(_ context.Context, r *ScenarioRun) error {
	if r.Acked != rebalanceWrites {
		return fmt.Errorf("%d of %d routed writes acked whole and durable", r.Acked, rebalanceWrites)
	}
	return nil
}

// JournalCrashEnv carries the journal directory to the journal
// scenario's re-executed ingestion worker; a binary that runs the
// scenario must call RunJournalCrashWorker when it is set.
const JournalCrashEnv = "OPINEDBB_JOURNAL_SMOKE_DIR"

// journalCrashEntitiesEnv carries the space-separated entity ids the
// worker writes to.
const journalCrashEntitiesEnv = "OPINEDBB_JOURNAL_SMOKE_ENTITIES"

// RunJournalCrashWorker is the journal scenario's ingestion worker:
// append drill reviews forever (small segments, batched fsync — the
// adversarial configuration) and report each acknowledged sequence
// number on w until the parent kills it. It returns only on failure.
func RunJournalCrashWorker(w io.Writer) error {
	entities := strings.Fields(os.Getenv(journalCrashEntitiesEnv))
	if len(entities) == 0 {
		return fmt.Errorf("%s names no entities", journalCrashEntitiesEnv)
	}
	j, err := journal.Open(os.Getenv(JournalCrashEnv), journal.Options{SyncEvery: 4, SegmentMaxBytes: 8 << 10})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for i := 0; ; i++ {
		seq, err := j.Append(drillReview(i, entities))
		if err != nil {
			return fmt.Errorf("append: %w", err)
		}
		fmt.Fprintf(bw, "acked %d\n", seq)
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// crashJournalWorker re-executes this binary as the ingestion worker,
// SIGKILLs it cold once it has acknowledged crashAcks appends — the real
// crash, not a simulation — and reads back what the journal recovers.
func crashJournalWorker(ctx context.Context, r *ScenarioRun) error {
	dir := journal.Dir(r.Path)
	entities := r.DB.EntityIDs()
	if len(entities) > crashEntities {
		entities = entities[:crashEntities]
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), JournalCrashEnv+"="+dir, journalCrashEntitiesEnv+"="+strings.Join(entities, " "))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start worker: %w", err)
	}
	lastAcked := 0
	sc := bufio.NewScanner(stdout)
	for lastAcked < crashAcks && sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
			if seq, err := strconv.Atoi(s); err == nil && seq > lastAcked {
				lastAcked = seq
			}
		}
	}
	killErr := cmd.Process.Kill()      // SIGKILL, mid-write
	_, _ = io.Copy(io.Discard, stdout) // the dead worker's pipe drains to EOF
	_ = cmd.Wait()                     // the kill is the expected exit
	if lastAcked < crashAcks {
		return fmt.Errorf("worker died after only %d acknowledged appends", lastAcked)
	}
	if killErr != nil {
		return fmt.Errorf("kill worker: %w", killErr)
	}
	r.Acked = lastAcked
	slog.Info("scenario: SIGKILLed the ingestion worker", "acked_seq", lastAcked)

	stats, err := journal.Replay(dir, func(_ uint64, rv journal.Review) error {
		r.Recovered = append(r.Recovered, rv)
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay after crash: %w", err)
	}
	if stats.TailErr != nil {
		slog.Info("scenario: torn tail dropped cleanly", "bytes", stats.DroppedBytes, "err", stats.TailErr)
	}
	return nil
}

// gateAckedPrefix: an append is acknowledged only after its bytes
// reached the OS, and a process SIGKILL cannot unwrite them — only the
// record the worker was mid-append on may be torn. So every acked
// append survives, as a contiguous prefix of the drill sequence.
func gateAckedPrefix(_ context.Context, r *ScenarioRun) error {
	if len(r.Recovered) < r.Acked {
		return fmt.Errorf("recovered %d records, but %d were acknowledged", len(r.Recovered), r.Acked)
	}
	for i, rv := range r.Recovered {
		if want := drillReview(i, []string{""}).ID; rv.ID != want {
			return fmt.Errorf("recovered record %d is %s, want %s (not a contiguous prefix)", i, rv.ID, want)
		}
	}
	return nil
}

// gateJournalReplay: snapshot + journal must replay every recovered
// record and answer byte-identically to a fresh load that applies the
// same reviews directly (replay-vs-rebuild).
func gateJournalReplay(_ context.Context, r *ScenarioRun) error {
	replayed, _, st, err := journal.LoadWithJournal(r.Path)
	if err != nil {
		return err
	}
	if st.Applied != len(r.Recovered) {
		return fmt.Errorf("replay applied %d of %d recovered reviews", st.Applied, len(r.Recovered))
	}
	reference, _, err := snapshot.Load(r.Path)
	if err != nil {
		return err
	}
	for _, rv := range r.Recovered {
		if err := reference.ApplyReview(core.ReviewData{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}); err != nil {
			return fmt.Errorf("reference apply: %w", err)
		}
	}
	replayFP, n := QueryFingerprint(r.Dataset, replayed)
	if referenceFP, _ := QueryFingerprint(r.Dataset, reference); replayFP != referenceFP {
		return fmt.Errorf("snapshot+journal replay diverges from direct application over %d query-set entries", n)
	}
	return nil
}

// gateCompaction: folding the journal into a fresh snapshot leaves an
// empty journal and preserves the replayed answers.
func gateCompaction(_ context.Context, r *ScenarioRun) error {
	replayed, _, _, err := journal.LoadWithJournal(r.Path)
	if err != nil {
		return err
	}
	replayFP, n := QueryFingerprint(r.Dataset, replayed)
	compacted := r.Path + ".compacted"
	if _, _, err := journal.Compact(r.Path, compacted); err != nil {
		return err
	}
	folded, _, st, err := journal.LoadWithJournal(compacted)
	if err != nil {
		return err
	}
	if st.Records != 0 {
		return fmt.Errorf("compacted artifact should start with an empty journal, replayed %d", st.Records)
	}
	if foldedFP, _ := QueryFingerprint(r.Dataset, folded); foldedFP != replayFP {
		return fmt.Errorf("compacted snapshot diverges from the replayed state over %d query-set entries", n)
	}
	return nil
}
