package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Sample is one request's timing, in nanoseconds from the phase start.
// Latency is Done-Due: a request that waited for a free sender, or for
// a late generator, is charged the wait. Lateness is Sent-Due.
type Sample struct {
	Op   int
	Due  int64
	Sent int64
	Done int64
	OK   bool
}

// SendFunc performs request i and reports its op kind and whether it
// succeeded.
type SendFunc func(i int) (op int, ok bool)

// openLoop issues n requests at a fixed rate from at most senders
// concurrent senders. Request i is due at start + i/rate whether or not
// earlier requests have finished, because the users of a review-search
// front door are independent of each other. A free sender takes the
// next request in due order and sleeps until it is due; when every
// sender is busy the request waits for the first to free up, and is
// timed from its due time all the same.
func openLoop(rate float64, n, senders int, send SendFunc) (samples []Sample, start time.Time, err error) {
	pacers := make([]*pacer, senders)
	for s := range pacers {
		if pacers[s], err = newPacer(); err != nil {
			for _, p := range pacers[:s] {
				p.close()
			}
			return nil, start, err
		}
	}
	samples = make([]Sample, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	start = time.Now()
	var wg sync.WaitGroup
	for _, p := range pacers {
		wg.Add(1)
		go func(p *pacer) {
			defer wg.Done()
			defer p.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := int64(float64(i) * interval)
				p.sleepUntil(start.Add(time.Duration(due)))
				sent := time.Since(start).Nanoseconds()
				op, ok := send(i)
				samples[i] = Sample{Op: op, Due: due, Sent: sent, Done: time.Since(start).Nanoseconds(), OK: ok}
			}
		}(p)
	}
	wg.Wait()
	return samples, start, nil
}

// pacer sleeps to a deadline on a Linux timerfd that the Go runtime's
// network poller waits on. time.Sleep is not good enough: while the
// process's Ps are idle the runtime rounds a sub-millisecond sleep up
// to the next millisecond, which at the offered rates here would make
// the generator run most of a millisecond late. A plain nanosleep is
// punctual but keeps its P in a system call, leaving the fleet one CPU
// short until the runtime's monitor takes the P back. A goroutine
// parked on a timerfd holds no P and wakes when the kernel timer fires.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "pacer-timerfd"), fd: fd}, nil
}

func (p *pacer) close() { _ = p.f.Close() } // nothing was written

// sleepUntil returns once t has passed.
func (p *pacer) sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// struct itimerspec { it_interval, it_value }: a one-shot timer.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			time.Sleep(d)
			return
		}
		var expirations [8]byte
		if _, err := p.f.Read(expirations[:]); err != nil {
			time.Sleep(time.Until(t))
			return
		}
	}
}

// closedLoop runs conns senders back to back for dur, or until n
// requests are sent: each sends its next request as soon as its
// previous one completes. Requests in flight at the deadline finish and
// count; elapsed runs to the last completion.
func closedLoop(dur time.Duration, conns, n int, send SendFunc) (samples []Sample, elapsed time.Duration) {
	var next atomic.Int64
	per := make([][]Sample, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sent := time.Since(start).Nanoseconds()
				op, ok := send(i)
				per[c] = append(per[c], Sample{Op: op, Due: sent, Sent: sent, Done: time.Since(start).Nanoseconds(), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, s := range per {
		samples = append(samples, s...)
	}
	return samples, elapsed
}

// Dist summarizes a sample of values: the median, the highest
// percentile that has at least ten samples beyond it, and the count.
type Dist struct {
	N      int
	P50    float64
	TailP  float64 // e.g. 0.99; 0 when fewer than 20 samples
	Tail   float64
	Values []float64 // sorted
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

func distOf(values []float64) Dist {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	d := Dist{N: len(v), Values: v}
	if len(v) == 0 {
		return d
	}
	d.P50 = quantile(v, 0.5)
	for _, p := range tailLevels {
		if beyond(len(v), p) >= 10 {
			d.TailP, d.Tail = p, quantile(v, p)
			break
		}
	}
	return d
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// quantile reads the nearest-rank p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// supports reports whether the sample has at least ten values beyond
// the p-quantile, the least a percentile is reported on.
func (d Dist) supports(p float64) bool { return d.N > 0 && beyond(d.N, p) >= 10 }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
