package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/server"
)

// counters are the program's own counts, read before and after the
// traced phase.
type counters struct {
	hedgeFired, hedgeWins    uint64
	interpHits, interpMisses uint64
	memoHits, memoMisses     uint64
	journalBytes             int64
}

func (d *driver) counters() counters {
	var c counters
	c.hedgeFired, c.hedgeWins = d.fleet.Router.HedgeStats()
	c.interpHits, c.interpMisses = d.fleet.Router.InterpretCacheStats()
	c.memoHits = d.fleet.Registry.Counter(server.MetricTopKMemoHits, "").Value()
	c.memoMisses = d.fleet.Registry.Counter(server.MetricTopKMemoMisses, "").Value()
	c.journalBytes = d.fleet.journalBytes()
	return c
}

// runtimeStats are cumulative Go runtime counters.
type runtimeStats struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	rs := runtimeStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		rs.pauses = s[3].Value.Float64Histogram()
	}
	return rs
}

// pauseQuantile is the p-quantile, in ms, of the GC pauses between two
// reads of the pause histogram (the upper edge of its bucket).
func pauseQuantile(a, b *metrics.Float64Histogram, p float64) (float64, int) {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0, 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	want := uint64(math.Ceil(p * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge * 1e3, int(total)
		}
	}
	return 0, int(total)
}

// runTraced is the per-layer run: one set-up, an untraced open-loop
// phase (the baseline for the tracing overhead, and the runtime and
// front-door numbers), a traced one of the same length right after it
// whose spans give every layer's numbers, then the closed loop.
func (b *bench) runTraced() (*result, error) {
	rec := newRecorder()
	f, err := buildFleet(filepath.Join(b.workDir, "fleet"), b.spec, b.w, rec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	f.dropReference(b.w.Mix.Reviews > 0)
	d, err := b.serveFleet(f)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	// Three eighths of the run untraced, three eighths traced, a quarter
	// closed loop.
	openSecs := b.seconds * 3 / 8
	reqs := d.openStream(streamOpen, openSecs)
	rt0 := readRuntime()
	untraced, _, err := d.open(reqs, false)
	rt1 := readRuntime()
	if err != nil {
		return nil, err
	}
	reqs = d.openStream(streamTraced, openSecs)
	c0 := d.counters()
	// Every write of the earlier phases has been acknowledged, so each
	// journal's next sequence number marks the state the traced phase
	// starts from.
	startSeqs := f.nextSeqs()
	rec.on.Store(true)
	traced, start, err := d.open(reqs, true)
	rec.on.Store(false)
	c1 := d.counters()
	if err != nil {
		return nil, err
	}
	closedDur := time.Duration(b.seconds / 4 * float64(time.Second))
	closed, elapsed, okClosed := d.closedPhase(closedDur)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	rec.addRequests(start.Sub(rec.epoch).Nanoseconds(), traced)
	rec.link()
	eng, err := replayEngine(f, rec, startSeqs)
	if err != nil {
		return nil, err
	}
	traceDir := filepath.Join(".bench_build", "traces")
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.Name, b.seed))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(tracePath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	applied, err := d.gate()
	if err != nil {
		return nil, err
	}

	res := &result{}
	fu, ft := summarize(untraced), summarize(traced)
	res.attempted = len(untraced) + len(closed) + len(traced)
	res.failed = fu.failed + len(closed) - okClosed + ft.failed
	res.lines = append(res.lines,
		fmt.Sprintf("workload %s seed %d (traced run): %d shards x R=%d, open loop %.0f req/s for %.1fs untraced then %.1fs traced, closed loop %d connections for %.1fs",
			b.w.Name, b.seed, b.w.Shards, b.w.Replicas, b.w.OfferedRate, openSecs, openSecs, b.conns, closedDur.Seconds()),
		fmt.Sprintf("correctness: fingerprint identical (%d writes replayed), every write ack durable", applied),
		fmt.Sprintf("spans: %s", tracePath))
	l := &layerCalc{res: res, spans: rec.spans, self: selfTimes(rec.spans)}
	l.index()

	// loadgen: validity of the schedule, not system latency.
	lt := distOf(ft.late)
	res.add("loadgen.late_p50_ms", "ms", lt.P50, lt.N, true, "")
	res.add("loadgen.late_p99_ms", "ms", quantile(lt.Values, 0.99), lt.N, true, "")
	res.addLatency("transport.p50_ms", l.selfOf(spanClient, allOps), 0.5, true, "client-observed minus handler")

	// router
	res.addLatency("router.self_read_p50_ms", l.selfOf(spanHandler, readOps), 0.5, true, "handler minus the time its legs cover")
	legs, bytes := l.legsOfReads()
	res.add("router.reply_bytes_per_read", "bytes", float64(bytes)/float64(max(ft.count(readOps), 1)), ft.count(readOps), true, "shard reply bytes the router decodes")
	res.add("router.legs_per_read", "count", float64(legs)/float64(max(ft.count(readOps), 1)), ft.count(readOps), true, "")
	res.add("router.hedge_win_ratio", "ratio", ratio(c1.hedgeWins-c0.hedgeWins, c1.hedgeFired-c0.hedgeFired), int(c1.hedgeFired-c0.hedgeFired), true, "hedges won / fired")
	res.add("router.interpret_hit_ratio", "ratio", ratio(c1.interpHits-c0.interpHits, c1.interpHits-c0.interpHits+c1.interpMisses-c0.interpMisses),
		int(c1.interpHits-c0.interpHits+c1.interpMisses-c0.interpMisses), true, "")
	res.addLatency("router.self_write_p50_ms", l.selfOf(spanHandler, writeOps), 0.5, true, "includes the writeMu wait")

	// server
	readLegs, ownerLegs, replicaLegs, legSelf, failedLegs, allLegs := l.legClasses()
	res.addLatency("server.read_leg_p50_ms", readLegs, 0.5, true, "")
	res.addLatency("server.read_leg_p99_ms", readLegs, 0.99, true, "")
	res.addLatency("server.owner_leg_p50_ms", ownerLegs, 0.5, true, "")
	res.addLatency("server.replica_leg_p50_ms", replicaLegs, 0.5, true, "")
	res.add("server.self_us_per_read_leg", "us", mean(legSelf)*1e3, len(legSelf), true, "read leg minus its replayed engine time")
	res.add("server.topk_memo_hit_ratio", "ratio", ratio(c1.memoHits-c0.memoHits, c1.memoHits-c0.memoHits+c1.memoMisses-c0.memoMisses),
		int(c1.memoHits-c0.memoHits+c1.memoMisses-c0.memoMisses), true, "")
	res.add("server.leg_fail_frac", "ratio", ratio(uint64(failedLegs), uint64(allLegs)), allLegs, true, "")

	// core (replayed)
	res.add("core.query_us", "us", mean(eng.Query), len(eng.Query), true, "replayed")
	res.add("core.topk_us", "us", mean(eng.TopK), len(eng.TopK), true, fmt.Sprintf("replayed; %d of %d legs answered by the memo", eng.TopKMemoHits, eng.TopKLegs))
	res.add("core.interpret_us", "us", mean(eng.Interpret), len(eng.Interpret), true, "replayed")
	res.add("core.topk_accesses_per_row", "count", ratio(uint64(eng.TopKAccesses), uint64(eng.TopKRows)), eng.TopKRows, true, "sorted accesses per returned row")
	res.add("core.prepare_us", "us", mean(eng.Prepare), len(eng.Prepare), true, "replayed")
	res.add("core.apply_us", "us", mean(eng.Apply), len(eng.Apply), true, "replayed")

	// journal and commit
	records, batches, appends, fsyncs := l.journal()
	acked := 0
	var userBytes int64
	for i, s := range traced {
		if s.Op == opReview && s.OK {
			acked++
			userBytes += int64(len(reqs[i].Body))
		}
	}
	res.add("journal.records_per_batch", "count", ratio(uint64(records), uint64(batches)), batches, true, "all nodes")
	res.add("journal.fsyncs_per_write", "count", ratio(uint64(len(fsyncs)), uint64(acked)), acked, true, "all nodes, per acked routed write")
	res.addLatency("journal.fsync_p50_ms", fsyncs, 0.5, true, "")
	res.addLatency("journal.fsync_p99_ms", fsyncs, 0.99, true, "")
	res.addLatency("journal.append_p50_ms", appends, 0.5, true, "AppendBatch, fsync included")
	res.add("journal.bytes_per_user_byte", "ratio", ratio(uint64(max(c1.journalBytes-c0.journalBytes, 0)), uint64(userBytes)), acked, true, "journal growth on all nodes / POST body bytes")
	ownerSelf := l.ownerSelf()
	res.add("commit.wait_us_per_write", "us", mean(ownerSelf)*1e3, len(ownerSelf), true, "owner leg minus prepare, append and apply")

	// runtime, over the untraced phase
	ops := float64(max(len(untraced), 1))
	res.add("runtime.alloc_bytes_per_op", "bytes", float64(rt1.allocBytes-rt0.allocBytes)/ops, len(untraced), true, "untraced phase")
	res.add("runtime.gc_cpu_frac", "ratio", (rt1.gcCPU-rt0.gcCPU)/math.Max(rt1.totalCPU-rt0.totalCPU, 1e-9), len(untraced), true, "untraced phase")
	pause, npause := pauseQuantile(rt0.pauses, rt1.pauses, 0.99)
	res.add("runtime.gc_pause_p99_ms", "ms", pause, npause, true, "untraced phase, histogram bucket edge")

	res.add("setup.build_s", "s", f.BuildTime.Seconds(), 1, true, "corpus and monolith build")
	res.add("setup.fleet_s", "s", f.FleetTime.Seconds(), 1, true, "shard snapshots, verified loads, router")

	// trace
	pu, pt := distOf(fu.reads).P50, distOf(ft.reads).P50
	res.add("trace.overhead_frac", "ratio", (pt-pu)/pu, ft.count(readOps), true, fmt.Sprintf("traced read p50 %.4f ms vs untraced %.4f ms", pt, pu))
	explained, breakdown := l.explain()
	res.add("trace.explained_frac", "ratio", explained, l.bandSize, true, "")
	res.lines = append(res.lines, breakdown...)

	// Front-door numbers that are not end-to-end metrics, from the
	// untraced phases: too noisy on a shared host to gate a change, or
	// present only in the workloads that have the op.
	res.addWindowed("frontdoor.read_p50_ms", untraced, readOps, 0.5, true)
	res.addWindowed("frontdoor.op_p50_ms", untraced, allOps, 0.5, true)
	peak, windows := windowedRate(closed, elapsed)
	res.add("frontdoor.peak_ops_s", "1/s", peak, okClosed, true, fmt.Sprintf("closed loop, median of %d one-second windows", windows))
	res.addWindowed("frontdoor.read_p99_ms", untraced, readOps, 0.99, true)
	res.addWindowed("frontdoor.query_p50_ms", untraced, only(opQuery), 0.5, true)
	res.addWindowed("frontdoor.topk_p50_ms", untraced, only(opTopK), 0.5, true)
	res.addWindowed("frontdoor.interpret_p50_ms", untraced, only(opInterpret), 0.5, true)
	res.addWindowed("frontdoor.write_p50_ms", untraced, writeOps, 0.5, true)
	res.addWindowed("frontdoor.write_p99_ms", untraced, writeOps, 0.99, true)
	res.add("frontdoor.failed_frac", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted, true, "")
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (fr frontDoor) count(ops opSet) int {
	n := 0
	for op := 0; op < numOps; op++ {
		if ops(op) {
			n += len(fr.byOp[op])
		}
	}
	return n
}

func opOf(name string) int {
	for i, n := range opNames {
		if n == name {
			return i
		}
	}
	return -1
}

// layerCalc derives per-layer numbers from the traced phase's spans.
type layerCalc struct {
	res      *result
	spans    []Span
	self     map[int64]int64
	byID     map[int64]*Span
	kids     map[int64][]*Span
	reqOp    map[int64]int // request id -> op
	bandSize int
}

func (l *layerCalc) index() {
	l.byID = make(map[int64]*Span, len(l.spans))
	l.kids = map[int64][]*Span{}
	l.reqOp = map[int64]int{}
	for i := range l.spans {
		s := &l.spans[i]
		l.byID[s.ID] = s
		if s.Parent != 0 {
			l.kids[s.Parent] = append(l.kids[s.Parent], s)
		}
		if s.Name == spanRequest {
			l.reqOp[s.Req] = opOf(s.Op)
		}
	}
}

// selfOf is the self time, in ms, of every span named name that belongs
// to a request of the given ops.
func (l *layerCalc) selfOf(name string, ops opSet) []float64 {
	var out []float64
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name != name {
			continue
		}
		if op, ok := l.reqOp[s.Req]; !ok || !ops(op) {
			continue
		}
		out = append(out, float64(l.self[s.ID])/1e6)
	}
	return out
}

func isReadLeg(s *Span) bool { return s.Target != "/reviews" }

// legsOfReads counts the legs of read requests and the reply bytes
// they carried back to the router.
func (l *layerCalc) legsOfReads() (legs, bytes int) {
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name == spanLeg && isReadLeg(s) {
			if op, ok := l.reqOp[s.Req]; ok && readOps(op) {
				legs++
				bytes += s.Bytes
			}
		}
	}
	return legs, bytes
}

// legClasses splits leg durations (ms) by kind and collects read legs'
// self times (ms).
func (l *layerCalc) legClasses() (read, owner, replica, readSelf []float64, failed, all int) {
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name != spanLeg || s.Req < 0 {
			continue
		}
		all++
		if s.Failed {
			failed++
			continue
		}
		ms := float64(s.dur()) / 1e6
		switch {
		case isReadLeg(s):
			read = append(read, ms)
			readSelf = append(readSelf, float64(l.self[s.ID])/1e6)
		case s.Owner:
			owner = append(owner, ms)
		default:
			replica = append(replica, ms)
		}
	}
	return
}

// journal returns the records and batches appended, the append times
// and the fsync times (ms).
func (l *layerCalc) journal() (records, batches int, appends, fsyncs []float64) {
	for i := range l.spans {
		s := &l.spans[i]
		switch s.Name {
		case spanAppend:
			records += len(s.Review)
			batches++
			appends = append(appends, float64(s.dur())/1e6)
		case spanFsync:
			fsyncs = append(fsyncs, float64(s.dur())/1e6)
		}
	}
	return
}

// ownerSelf is each owner leg's self time (ms): what is left of the
// owner hop after its prepare, journal append and apply — the wait in
// the commit queue and the server's own handling.
func (l *layerCalc) ownerSelf() []float64 {
	var out []float64
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name == spanLeg && s.Owner && !s.Failed {
			out = append(out, float64(l.self[s.ID])/1e6)
		}
	}
	return out
}

// layerNames orders the breakdown.
var layerNames = []string{"loadgen", "transport", "router", "server", "core", "journal"}

// explain breaks the requests at the front door's median into the named
// layers' self times. It takes the requests whose latency lies between
// the 45th and 55th percentile, follows each one's blocking path — the
// generator's lateness, the HTTP exchange, the router's handler, and the
// legs the answer waited for (the slowest read leg; for a write the
// owner leg and the slowest replica leg) — and averages each layer's
// self time over them. explained is the layers' sum over the band's
// mean latency; the rest is time on no named span of the blocking path.
func (l *layerCalc) explain() (float64, []string) {
	type reqSpans struct {
		root, late, client, handler *Span
		legs                        []*Span
	}
	reqs := map[int64]*reqSpans{}
	get := func(id int64) *reqSpans {
		if reqs[id] == nil {
			reqs[id] = &reqSpans{}
		}
		return reqs[id]
	}
	for i := range l.spans {
		s := &l.spans[i]
		if s.Req < 0 {
			continue
		}
		switch s.Name {
		case spanRequest:
			get(s.Req).root = s
		case spanLate:
			get(s.Req).late = s
		case spanClient:
			get(s.Req).client = s
		case spanHandler:
			get(s.Req).handler = s
		case spanLeg:
			if !s.Failed {
				get(s.Req).legs = append(get(s.Req).legs, s)
			}
		}
	}
	var complete []*reqSpans
	for _, r := range reqs {
		if r.root != nil && r.late != nil && r.client != nil && r.handler != nil && !r.root.Failed {
			complete = append(complete, r)
		}
	}
	if len(complete) == 0 {
		return 0, nil
	}
	sort.Slice(complete, func(i, j int) bool { return complete[i].root.dur() < complete[j].root.dur() })
	lo, hi := int(0.45*float64(len(complete))), int(math.Ceil(0.55*float64(len(complete))))
	band := complete[lo:max(hi, lo+1)]
	l.bandSize = len(band)

	sum := map[string]float64{}
	var total, fanout float64
	for _, r := range band {
		total += float64(r.root.dur())
		sum["loadgen"] += float64(r.late.dur())
		sum["transport"] += float64(l.self[r.client.ID])
		sum["router"] += float64(l.self[r.handler.ID])
		crit := criticalLegs(r.legs)
		var critDur int64
		for _, leg := range crit {
			critDur += leg.dur()
			sum["server"] += float64(l.self[leg.ID])
			var appends []*Span
			for _, k := range l.kids[leg.ID] {
				if k.Name == spanAppend {
					appends = append(appends, k)
				}
			}
			// The replayed engine spans are placed, not measured, so where
			// one overlaps the append the append keeps the time.
			journal := covered(leg.Start, leg.End, appends)
			sum["journal"] += float64(journal)
			sum["core"] += float64(covered(leg.Start, leg.End, l.kids[leg.ID]) - journal)
		}
		fanout += float64(max(covered(r.handler.Start, r.handler.End, r.legs)-critDur, 0))
	}
	n := float64(len(band))
	named := 0.0
	row := func(name string, v float64) string {
		return fmt.Sprintf("  %-10s %9.4f ms  %5.1f%%", name, v/n/1e6, 100*v/total)
	}
	lines := []string{fmt.Sprintf("front door at the median (%d requests between p45 and p55, mean %.4f ms), by layer self time:", len(band), total/n/1e6)}
	for _, name := range layerNames {
		named += sum[name]
		lines = append(lines, row(name, sum[name]))
	}
	lines = append(lines, row("(fan-out)", fanout), row("(other)", total-named-fanout))
	explained := named / total
	if explained < 0.9 {
		lines = append(lines, fmt.Sprintf("  gap: %.1f%% of the median request is leg fan-out: the request's other legs queue for the process's %d CPUs before or while its slowest leg runs, so the legs it waits on cover more time than its slowest leg alone; (other) is time on no span",
			100*(total-named)/total, runtime.GOMAXPROCS(0)))
	}
	return explained, lines
}

// criticalLegs are the legs a request's answer waited for: the last to
// finish, plus for a write the owner leg that ran before the fan-out.
func criticalLegs(legs []*Span) []*Span {
	var out []*Span
	var last *Span
	for _, s := range legs {
		if s.Owner {
			out = append(out, s)
			continue
		}
		if last == nil || s.End > last.End {
			last = s
		}
	}
	if last != nil {
		out = append(out, last)
	}
	return out
}
