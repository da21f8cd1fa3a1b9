// Command fleetbench is the repository's benchmark. It builds an
// in-process journaled routed fleet, serves it on a loopback listener,
// and drives one workload at it over real HTTP from this process, with
// at most one sender goroutine and connection per CPU.
//
//	fleetbench --workload read_hot --seed 1 --seconds 24 --trace 0
//
// --trace 0 measures the end-to-end metrics — set-up time (the median of
// several set-ups, each in a fresh process), CPU per op and live heap —
// over an open-loop phase at the workload's fixed offered rate, and
// prints the front door's latencies (each request timed from when it was
// due) and the peak of a closed-loop phase. --trace 1 is a separate run
// for the per-layer metrics: an untraced open-loop phase, a traced one
// whose spans are kept in memory and written to .bench_build/traces/,
// then a closed-loop phase, with engine time from replaying the recorded
// shard legs on copies of the shards brought to the traced phase's
// starting state.
//
// Every run ends with a correctness gate and exits non-zero without a
// result if the fleet's answers differ from the monolith's or a write
// was acknowledged without durable:true. The last line of standard
// output is the result as one JSON object. Workloads are defined in
// workloads.json. Run it from the repository root; run.sh builds it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	procStart := time.Now()
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name from workloads.json")
	seed := fs.Int64("seed", 1, "request-stream seed")
	seconds := fs.Int("seconds", 24, "measured seconds per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	setupOnly := fs.Bool("setup-only", false, "build the fleet, print \"ready\" and exit (one timed set-up of a --trace 0 run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	var w Workload
	if err == nil {
		w, err = spec.workload(*name)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "fleetbench: run from the repository root")
		return 2
	}
	b := &bench{
		spec: spec, w: w, seed: *seed, seconds: float64(*seconds),
		conns:   runtime.GOMAXPROCS(0),
		workDir: filepath.Join(".bench_build", fmt.Sprintf("fleetbench-%d", os.Getpid())),
	}
	defer os.RemoveAll(b.workDir)
	if *setupOnly {
		f, err := buildFleet(filepath.Join(b.workDir, "fleet"), spec, w, nil)
		if err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		f.Close()
		return 0
	}
	var res *result
	if *traced == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runMeasured(procStart)
	}
	if err == nil {
		err = res.check()
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// The shape of a measured run.
const (
	// warmupSeconds of traffic at the offered rate fill the memos
	// before anything is timed.
	warmupSeconds = 1
	// openLoopShare of --seconds is the open-loop phase; the rest is the
	// closed loop.
	openLoopShare = 0.75
)

type bench struct {
	spec    *Spec
	w       Workload
	seed    int64
	seconds float64
	conns   int
	workDir string
}

// Metric is one reported number. JSON metrics go into the final line;
// the others are printed for the reader only.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // samples behind the value
	JSON  bool
	Note  string
}

type result struct {
	metrics           []Metric
	attempted, failed int
	lines             []string // printed before the metrics
}

func (r *result) add(name, unit string, v float64, n int, inJSON bool, note string) {
	r.metrics = append(r.metrics, Metric{Name: name, Unit: unit, Value: v, N: n, JSON: inJSON, Note: note})
}

// check refuses a result a failed run would produce: a latency charged
// with a failure is infinite, and no metric may be.
func (r *result) check() error {
	for _, m := range r.metrics {
		if m.JSON && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			return fmt.Errorf("metric %s is %v: too many requests failed (%d of %d)", m.Name, m.Value, r.failed, r.attempted)
		}
	}
	return nil
}

func (r *result) print(out io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	final := map[string]any{}
	for _, m := range r.metrics {
		note := ""
		if m.Note != "" {
			note = "  " + m.Note
		}
		if m.N == 0 {
			note += "  (not exercised by this workload)"
		}
		fmt.Fprintf(out, "%-32s %14.4f %-6s n=%-7d%s\n", m.Name, m.Value, m.Unit, m.N, note)
		if m.JSON {
			final[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": final,
	})
	fmt.Fprintln(out, string(line))
}

// driver owns a served fleet and the client that loads it.
type driver struct {
	*bench
	fleet      *Fleet
	srv        *http.Server
	client     *Client
	vocab      Vocab
	notDurable atomic.Int64
}

func (b *bench) serveFleet(f *Fleet) (*driver, error) {
	srv, base, err := serve(f.Handler)
	if err != nil {
		return nil, err
	}
	return &driver{bench: b, fleet: f, srv: srv, client: newClient(base, b.conns), vocab: vocabOf(f.Data)}, nil
}

// stop drains the listener: handlers still journaling a write finish
// before the gate reads the journals.
func (d *driver) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.client.hc.CloseIdleConnections()
	return err
}

// sender sends reqs[i]; traced requests carry their index as request id.
func (d *driver) sender(reqs []Request, traced bool) SendFunc {
	return func(i int) (int, bool) {
		id := int64(-1)
		if traced {
			id = int64(i)
		}
		o := d.client.do(reqs[i], id)
		if o.NotDurable {
			d.notDurable.Add(1)
		}
		return reqs[i].Op, o.OK
	}
}

// stream generates the first n requests of a stream. The write text
// pool is made for the call and let go after it, so it is not part of
// the live heap the run measures.
func (d *driver) stream(stream, n int) []Request {
	v := d.vocab
	if d.w.Mix.Reviews > 0 {
		v.Texts = writeTexts(d.spec)
	}
	return generate(d.w, v, d.seed, stream, n)
}

// openStream generates the requests of an open-loop phase of secs.
func (d *driver) openStream(stream int, secs float64) []Request {
	return d.stream(stream, int(math.Ceil(d.w.OfferedRate*secs)))
}

// open runs one open-loop phase over reqs.
func (d *driver) open(reqs []Request, traced bool) ([]Sample, time.Time, error) {
	return openLoop(d.w.OfferedRate, len(reqs), d.conns, d.sender(reqs, traced))
}

// closedPhase runs the closed loop for dur and counts its successes.
func (d *driver) closedPhase(dur time.Duration) (samples []Sample, elapsed time.Duration, ok int) {
	// A stream long enough for ten times the offered rate, which is about
	// a quarter of the peak.
	reqs := d.stream(streamClosed, int(math.Ceil(10*d.w.OfferedRate*dur.Seconds()))+100)
	samples, elapsed = closedLoop(dur, d.conns, len(reqs), d.sender(reqs, false))
	for _, s := range samples {
		if s.OK {
			ok++
		}
	}
	return samples, elapsed, ok
}

func (d *driver) gate() (int, error) {
	if n := d.notDurable.Load(); n > 0 {
		return 0, fmt.Errorf("%d write acks lacked durable:true", n)
	}
	return checkAnswers(context.Background(), d.spec, d.w, d.fleet)
}

// warmUp sends warmupSeconds of traffic at the offered rate.
func (d *driver) warmUp() error {
	_, _, err := d.open(d.openStream(streamWarmup, warmupSeconds), false)
	return err
}

// childSetups times n set-ups, each in a fresh process of this program,
// from starting the process to its fleet being ready to serve.
func (b *bench) childSetups(n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		s, err := b.childSetup()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (b *bench) childSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", b.w.Name)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process did not report ready (%q, %v)", line, readErr)
	}
	return elapsed.Seconds(), nil
}

// runMeasured is the untraced run behind the end-to-end metrics.
func (b *bench) runMeasured(procStart time.Time) (*result, error) {
	// This process's own set-up is timed from its start; the others each
	// from starting a fresh process, so every one starts from an empty
	// heap and cold memos. Half of those run before the load and half
	// after it, so an episode of interference from outside the process
	// that lasts a few seconds moves few of them.
	f, err := buildFleet(filepath.Join(b.workDir, "fleet"), b.spec, b.w, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	setups := []float64{time.Since(procStart).Seconds()}
	f.dropReference(b.w.Mix.Reviews > 0)
	before := (b.w.SetupRepeats - 1) / 2
	more, err := b.childSetups(before)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	d, err := b.serveFleet(f)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(); err != nil {
		return nil, err
	}
	openSecs := b.seconds * openLoopShare
	reqs := d.openStream(streamOpen, openSecs)
	cpu0 := cpuTime()
	open, _, err := d.open(reqs, false)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	// The live heap is read here, where every run has served the same
	// requests; after the closed loop it would grow with the peak.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	closedDur := time.Duration((b.seconds - openSecs) * float64(time.Second))
	closed, elapsed, okClosed := d.closedPhase(closedDur)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	applied, err := d.gate()
	if err != nil {
		return nil, err
	}
	if more, err = b.childSetups(b.w.SetupRepeats - 1 - before); err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	res := &result{}
	fr := summarize(open)
	res.attempted = len(open) + len(closed)
	res.failed = fr.failed + len(closed) - okClosed
	res.lines = append(res.lines,
		fmt.Sprintf("workload %s seed %d: %d shards x R=%d, open loop %.0f req/s for %.1fs from %d senders, closed loop %d connections for %.1fs",
			b.w.Name, b.seed, b.w.Shards, b.w.Replicas, b.w.OfferedRate, openSecs, b.conns, b.conns, closedDur.Seconds()),
		fmt.Sprintf("correctness: fingerprint identical (%d writes replayed), every write ack durable", applied))
	sort.Float64s(setups)
	res.add("setup_s", "s", median(setups), len(setups), true, fmt.Sprintf("median of %d set-ups, each from process start to fleet ready; fastest %.4f, slowest %.4f", len(setups), setups[0], setups[len(setups)-1]))
	res.add("cpu_us_per_op", "us", cpu.Seconds()*1e6/float64(max(fr.ok, 1)), fr.ok, true, "process user+sys CPU over the open-loop phase per completed op")
	res.add("heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20), 1, true, "live heap after a forced GC at the end of the open-loop phase, the monolith and the corpus's reviews already let go")
	// The front door's latencies and peak are printed for the reader
	// only. On a shared host they move by up to a quarter from run to
	// run, too much to gate a change, so the traced run reports them as
	// per-layer figures (frontdoor.*).
	res.addWindowed("read_p50_ms", open, readOps, 0.5, false)
	res.addWindowed("op_p50_ms", open, allOps, 0.5, false)
	peak, windows := windowedRate(closed, elapsed)
	res.add("peak_ops_s", "1/s", peak, okClosed, false, fmt.Sprintf("closed loop, median of %d one-second windows", windows))
	res.addWindowed("read_p99_ms", open, readOps, 0.99, false)
	for op, name := range [numOps]string{"query", "topk", "interpret", "write"} {
		if len(fr.byOp[op]) > 0 {
			res.addWindowed(name+"_p50_ms", open, only(op), 0.5, false)
		}
	}
	if len(fr.byOp[opReview]) > 0 {
		res.addWindowed("write_p99_ms", open, writeOps, 0.99, false)
	}
	res.add("failed_frac", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted, false, "")
	res.addLatency("loadgen.late_p50_ms", fr.late, 0.5, false, "")
	return res, nil
}

// opSet selects requests by op kind.
type opSet func(op int) bool

func allOps(int) bool      { return true }
func readOps(op int) bool  { return op != opReview }
func writeOps(op int) bool { return op == opReview }
func only(want int) opSet  { return func(op int) bool { return op == want } }

// frontDoor is an open-loop phase's latencies in ms, a failed request
// charged +Inf so it misses every latency limit.
type frontDoor struct {
	all, reads, late []float64
	byOp             [numOps][]float64
	ok, failed       int
}

func summarize(samples []Sample) frontDoor {
	var fr frontDoor
	for _, s := range samples {
		lat := float64(s.Done-s.Due) / 1e6
		if s.OK {
			fr.ok++
		} else {
			fr.failed++
			lat = math.Inf(1)
		}
		fr.all = append(fr.all, lat)
		fr.byOp[s.Op] = append(fr.byOp[s.Op], lat)
		if s.Op != opReview {
			fr.reads = append(fr.reads, lat)
		}
		fr.late = append(fr.late, float64(s.Sent-s.Due)/1e6)
	}
	return fr
}

// window is the span of schedule over which one latency quantile is
// taken; a run reports the median across its windows, so an episode of
// interference from outside the process that lasts a few seconds moves
// one window, not the run's figure.
const window = 2 * time.Second

// addWindowed reports the median across the phase's windows of each
// window's p-quantile latency over the ops keep selects. Windows too
// small to support p are skipped; with fewer than three left it falls
// back to the quantile over the whole phase.
func (r *result) addWindowed(name string, samples []Sample, keep opSet, p float64, inJSON bool) {
	byWin := map[int64][]float64{}
	var all []float64
	for _, s := range samples {
		if !keep(s.Op) {
			continue
		}
		lat := math.Inf(1)
		if s.OK {
			lat = float64(s.Done-s.Due) / 1e6
		}
		w := s.Due / int64(window)
		byWin[w] = append(byWin[w], lat)
		all = append(all, lat)
	}
	var qs []float64
	for _, v := range byWin {
		if d := distOf(v); d.supports(p) {
			qs = append(qs, quantile(d.Values, p))
		}
	}
	if len(qs) < 3 {
		r.addLatency(name, all, p, inJSON, "")
		return
	}
	sort.Float64s(qs)
	r.add(name, "ms", median(qs), len(all), inJSON, fmt.Sprintf("median of %d windows of %s", len(qs), window))
}

// windowedRate is the median across whole one-second windows of the
// requests completed successfully in each.
func windowedRate(samples []Sample, elapsed time.Duration) (float64, int) {
	n := int(elapsed / time.Second)
	if n == 0 {
		return 0, 0
	}
	counts := make([]float64, n)
	for _, s := range samples {
		if w := int(s.Done / int64(time.Second)); s.OK && w < n {
			counts[w]++
		}
	}
	sort.Float64s(counts)
	return median(counts), n
}

// addLatency reports the p-quantile of values in ms, after note with
// the highest percentile the sample supports.
func (r *result) addLatency(name string, values []float64, p float64, inJSON bool, note string) {
	d := distOf(values)
	if d.TailP > 0 {
		note = strings.TrimSpace(note + fmt.Sprintf(" p%g=%.4f", d.TailP*100, d.Tail))
	}
	if !d.supports(p) && p > 0.5 && d.N > 0 {
		note += fmt.Sprintf(" (p%g has fewer than ten samples beyond it)", p*100)
	}
	r.add(name, "ms", quantile(d.Values, p), d.N, inJSON, note)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
