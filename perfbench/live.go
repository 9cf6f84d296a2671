package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/bgpstream-go/bgpstream"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// Live-path constants. refRate is the reference rung live_p50_ms and
// live_p99_ms are read at and the ladder's first rung; the ladder
// climbs from it by factors of sqrt(2) for ladderSteps more rungs at
// most (11.3k .. 128k elems/s). latencyLimitMs is the median-window
// p99 a rung must meet, with no failed delivery and no growing
// backlog, to pass.
const (
	refRate        = 8000.0
	ladderSteps    = 8
	latencyLimitMs = 10.0
)

// poolElem is one elem the generator publishes, with its feed tags,
// its content digest (timestamp excluded) and whether the prefix
// subscription selects it.
type poolElem struct {
	project, collector string
	elem               core.Elem
	hash               uint64
	prefixSub          bool
}

// liveRig is the push deployment: one rislive.Server on loopback HTTP
// and the two subscriptions every rung connects: the full feed and a
// prefix subscription on the monitored set.
type liveRig struct {
	srv  *rislive.Server
	http *httpServer
	subs [2]rislive.Subscription
	pool []poolElem
	tr   *tracer
}

// decodePool decodes the first poolCap elems of the archive under root
// that pass the meta-data part of filters, cloned out of the stream's
// arenas: the elems the live generator publishes.
func decodePool(root string, filters core.Filters, prefixes []core.PrefixFilter) ([]poolElem, error) {
	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSourceInstance(&core.Directory{Dir: root}),
		bgpstream.WithFilters(metaFilters(filters)))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	sub := rislive.Subscription{Prefixes: prefixes}
	pool := make([]poolElem, 0, poolCap)
	for len(pool) < poolCap {
		rec, e, err := s.NextElem()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		p := poolElem{project: rec.Project, collector: rec.Collector, elem: e.Clone()}
		p.hash = elemHash(&p.elem, false)
		p.prefixSub = sub.Matches(p.project, p.collector, &p.elem)
		pool = append(pool, p)
	}
	if len(pool) == 0 {
		return nil, errors.New("live: archive holds no elems to publish")
	}
	return pool, nil
}

// startLive brings the push server up and connects both subscribers
// once, so set-up covers the first SSE handshakes too.
func startLive(pool []poolElem, prefixes []core.PrefixFilter) (*liveRig, error) {
	r := &liveRig{srv: &rislive.Server{}, pool: pool}
	r.subs[1] = rislive.Subscription{Prefixes: prefixes}
	var err error
	r.http, err = serve(r.srv, nil)
	if err != nil {
		r.srv.Close()
		return nil, err
	}
	cs, err := r.connect(context.Background())
	if err != nil {
		r.stop()
		return nil, err
	}
	r.disconnect(cs)
	return r, nil
}

func (r *liveRig) stop() {
	r.srv.Close()
	r.http.close()
}

// connect starts both subscribers and waits until the server has
// registered them.
func (r *liveRig) connect(ctx context.Context) ([]*rislive.Client, error) {
	cs := make([]*rislive.Client, len(r.subs))
	for i, sub := range r.subs {
		c := rislive.NewClient(r.http.url, sub)
		c.Logf = func(string, ...any) {}
		cs[i] = c
		// The first NextElem starts the client's connection; a
		// cancelled context returns at once without consuming.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		c.NextElem(cctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.srv.Stats().Subscribers < len(cs) {
		if time.Now().After(deadline) {
			r.disconnect(cs)
			return nil, errors.New("live: subscribers did not connect")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return cs, nil
}

// disconnect closes the subscribers and waits until the server has
// dropped them, so the next rung starts from an idle server.
func (r *liveRig) disconnect(cs []*rislive.Client) {
	for _, c := range cs {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.srv.Stats().Subscribers > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// rungResult is one rung of the open-loop ladder.
type rungResult struct {
	rate      float64 // achieved publish rate, elems/s
	published int
	expected  int // deliveries owed to both subscribers
	received  int // deliveries of any kind
	// bad counts deliveries not owed: wrong content, an elem the
	// subscription does not select, or a repeat. failed is the owed
	// deliveries that did not arrive intact plus the bad ones.
	bad, failed int
	dropped     uint64  // server-side drops during the rung
	p50, p99    float64 // medians over the rung's windows
	p99Quiet    float64 // of the quietest window, a diagnostic
	p99All      float64 // over every delivery
	growing     bool
	lateP99Ms   float64
	publishUs   []float64 // traced rungs only
	clientMsgs  [2]uint64
	pass        bool
}

// delivery is one elem a subscriber received.
type delivery struct {
	idx   int     // publish index
	latMs float64 // receive time minus due time
	ok    bool    // owed to this subscriber, intact and not a repeat
}

// owes reports whether subscriber sub (0 the full feed, 1 the prefix
// subscription) is owed publish idx.
func (r *liveRig) owes(sub, idx int) bool {
	return sub == 0 || r.pool[idx%len(r.pool)].prefixSub
}

// rung runs one open-loop rung: both subscribers connect, then the
// generator publishes elems at rate for dur, stamping each with its
// due time; subscribers record receive time minus due time.
func (r *liveRig) rung(rate float64, dur time.Duration) (rungResult, error) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	res := rungResult{published: n}
	period := time.Duration(float64(time.Second) / rate)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cs, err := r.connect(ctx)
	if err != nil {
		return res, err
	}
	// base is the due time of publish 0; subscribers map a received
	// timestamp back to its publish index through it.
	base := time.Now().Add(200 * time.Microsecond)
	baseMicro := base.UnixMicro()
	periodMicro := float64(period.Nanoseconds()) / 1e3
	got := make([][]delivery, len(cs))
	var wg sync.WaitGroup
	var recvTotal atomic.Int64
	for i, c := range cs {
		got[i] = make([]delivery, 0, n)
		wg.Add(1)
		go func(i int, c *rislive.Client) {
			defer wg.Done()
			seen := make([]bool, n)
			for {
				_, e, err := c.NextElem(ctx)
				if err != nil {
					return
				}
				now := time.Now()
				idx := int(math.Round(float64(e.Timestamp.UnixMicro()-baseMicro) / periodMicro))
				d := delivery{idx: idx, latMs: float64(now.Sub(e.Timestamp).Nanoseconds()) / 1e6}
				d.ok = idx >= 0 && idx < n && !seen[idx] && r.owes(i, idx) &&
					r.pool[idx%len(r.pool)].hash == elemHash(e, false)
				if d.ok {
					seen[idx] = true
				}
				got[i] = append(got[i], d)
				recvTotal.Add(1)
			}
		}(i, c)
	}

	dropped0 := r.srv.Stats().Dropped
	late := make([]float64, 0, n)
	if r.tr != nil {
		res.publishUs = make([]float64, 0, n)
	}
	var e core.Elem
	for i := 0; i < n; {
		now := time.Now()
		// Publish everything due by now, each stamped with its due
		// time; a stalled generator catches up and its lateness shows.
		for ; i < n; i++ {
			due := base.Add(time.Duration(i) * period)
			if due.After(now) {
				break
			}
			p := &r.pool[i%len(r.pool)]
			e = p.elem
			e.Timestamp = due
			late = append(late, float64(time.Since(due).Nanoseconds())/1e6)
			if res.publishUs != nil {
				sp := r.tr.begin(kindPublish, -1)
				ps := time.Now()
				r.srv.Publish(p.project, p.collector, &e)
				res.publishUs = append(res.publishUs, float64(time.Since(ps).Nanoseconds())/1e3)
				r.tr.end(sp)
			} else {
				r.srv.Publish(p.project, p.collector, &e)
			}
			if r.pool[i%len(r.pool)].prefixSub {
				res.expected++
			}
		}
		if i < n {
			preciseSleep(time.Until(base.Add(time.Duration(i) * period)))
		}
	}
	res.expected += n
	res.rate = float64(n) / time.Since(base).Seconds()

	// Drain: wait until every owed delivery arrived or was dropped.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if int(recvTotal.Load())+int(r.srv.Stats().Dropped-dropped0) >= res.expected {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.dropped = r.srv.Stats().Dropped - dropped0
	for i, c := range cs {
		res.clientMsgs[i] = c.Stats().Messages
	}
	cancel()
	wg.Wait()
	r.disconnect(cs)

	var windows [liveWindows][]float64
	var all []float64
	intact := 0
	for _, g := range got {
		res.received += len(g)
		for _, d := range g {
			if !d.ok {
				res.bad++
				continue
			}
			intact++
			all = append(all, d.latMs)
			w := windowOf(d.idx, n)
			windows[w] = append(windows[w], d.latMs)
		}
	}
	res.failed = res.expected - intact + res.bad
	res.p50, res.p99, res.p99Quiet = windowQuantiles(windows[:])
	res.p99All = quantile(all, 0.99)
	res.lateP99Ms = quantile(late, 0.99)
	res.growing = growing(got[0], n)
	res.pass = res.failed == 0 && res.dropped == 0 && res.p99 <= latencyLimitMs && !res.growing
	return res, nil
}

// A rung's latency figures are read per window: the rung's publishes
// split into liveWindows runs of equal length, so a window is a tenth
// of the rung's time whatever the rate. The rung reports the median
// over its windows of each window's p50 and p99. A stall from outside
// (on a shared host, co-tenants take the CPU for milliseconds at a
// time) sets the p99 of the windows it hits, and the median window
// stands it as long as it hits fewer than half; a stall the program
// causes in most windows, such as a collector or flush pause every few
// hundred milliseconds, raises the median window and shows. The p99 of
// the quietest window and over every delivery are kept as diagnostics.
const liveWindows = 10

// windowOf is the window publish idx of n falls in.
func windowOf(idx, n int) int { return idx * liveWindows / n }

// closedSpan is the span the closed loop reads its rates over.
const closedSpan = 100 * time.Millisecond

// windowQuantiles returns the median window p50 and p99 and the
// quietest window's p99, over the windows holding deliveries.
func windowQuantiles(windows [][]float64) (p50, p99, quiet float64) {
	var p50s, p99s []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		p50s = append(p50s, quantile(w, 0.5))
		p99s = append(p99s, quantile(w, 0.99))
	}
	p50, p99 = median(p50s), median(p99s)
	if len(p99s) > 0 {
		quiet = p99s[0] // median sorted them
	}
	return p50, p99, quiet
}

// growing reports a backlog that builds over the rung: the full feed's
// median latency in every window of the last quarter of publishes is
// over four times the lowest window median of the first quarter, and
// above 1 ms. A real backlog raises every later window; a stall raises
// only the windows it hits.
func growing(got []delivery, n int) bool {
	var windows [liveWindows][]float64
	for _, d := range got {
		if d.ok {
			w := windowOf(d.idx, n)
			windows[w] = append(windows[w], d.latMs)
		}
	}
	quarter := len(windows) / 4
	first := math.Inf(1)
	for _, w := range windows[:quarter] {
		if len(w) > 0 {
			first = min(first, median(w))
		}
	}
	last := math.Inf(1)
	for _, w := range windows[len(windows)-quarter:] {
		if len(w) > 0 {
			last = min(last, median(w))
		}
	}
	if math.IsInf(first, 1) || math.IsInf(last, 1) {
		return false
	}
	return last > 1 && last > 4*first
}

// ladder finds rislive.max_rate, the rate at which a rung passes half the
// time, with an up-down staircase: the standard estimator of a
// threshold behind a noisy pass/fail test. Near the limit, whether a
// rung passes depends on where the scheduler's stalls fall, so a
// single rung (or a bisection of single rungs) lands a rate that jumps
// between runs; the staircase averages over many rungs instead.
//
// From the reference rung it steps by factors of sqrt(2), up while
// rungs pass and down while they fail, until a rung's outcome flips.
// The staircase then runs staircaseRungs rungs from there, each up by
// step after a pass and down after a fail, taking the square root of
// step at every reversal down to minStep. The max rate is the
// geometric mean of the achieved rates of its last staircaseTail
// rungs. It is 0 when no rung passes down to refRate/sqrt(2)^ladderDown,
// and the top rung's rate when every rung passes up to
// refRate*sqrt(2)^ladderSteps. ladder returns every rung, the
// reference first.
func (r *liveRig) ladder(ref rungResult, dur time.Duration) ([]rungResult, float64, error) {
	rungs := []rungResult{ref}
	run := func(rate float64) (rungResult, error) {
		res, err := r.rung(rate, dur)
		rungs = append(rungs, res)
		return res, err
	}
	steps, factor := ladderSteps, math.Sqrt2
	if !ref.pass {
		steps, factor = ladderDown, 1/math.Sqrt2
	}
	last, flipped, rate := ref, false, refRate
	for k := 0; k < steps && !flipped; k++ {
		rate *= factor
		res, err := run(rate)
		if err != nil {
			return nil, 0, err
		}
		last, flipped = res, res.pass != ref.pass
	}
	if !flipped {
		if ref.pass {
			return rungs, last.rate, nil
		}
		return rungs, 0, nil
	}
	pass, step := last.pass, staircaseStep
	var logs []float64
	for k := 0; k < staircaseRungs; k++ {
		if pass {
			rate *= step
		} else {
			rate /= step
		}
		res, err := run(rate)
		if err != nil {
			return nil, 0, err
		}
		if res.pass != pass && step > minStep {
			step = math.Sqrt(step)
		}
		pass = res.pass
		if k >= staircaseRungs-staircaseTail {
			logs = append(logs, math.Log(res.rate))
		}
	}
	return rungs, math.Exp(mean(logs)), nil
}

// Staircase settings: the first step is 2^(1/4) (19%), reversals
// shrink it to no less than 2^(1/16) (4%); sixteen rungs, the last
// twelve averaged. ladderDown bounds the walk below the reference rate.
var (
	staircaseStep = math.Pow(2, 1.0/4)
	minStep       = math.Pow(2, 1.0/16)
)

const (
	staircaseRungs = 16
	staircaseTail  = 12
	ladderDown     = 6
)

// firstElems opens the full feed k times, one subscription at a time,
// while a generator publishes at refRate, and returns each
// subscription's time from its start to its first delivered elem.
func (r *liveRig) firstElems(k int) ([]float64, error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := time.Duration(float64(time.Second) / refRate)
		var e core.Elem
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := &r.pool[i%len(r.pool)]
			e = p.elem
			e.Timestamp = time.Now()
			r.srv.Publish(p.project, p.collector, &e)
			preciseSleep(period)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		t0 := time.Now()
		c := rislive.NewClient(r.http.url, rislive.Subscription{})
		c.Logf = func(string, ...any) {}
		_, _, err := c.NextElem(ctx)
		ms := sinceMs(t0)
		cancel()
		r.disconnect([]*rislive.Client{c})
		if err != nil {
			return nil, fmt.Errorf("live: first elem: %w", err)
		}
		out = append(out, ms)
	}
	return out, nil
}

// closedResult is one closed-loop drain.
type closedResult struct {
	// rate and cpuPerElem are medians over the drain's closedSpan
	// spans: the full feed's delivered elems per second, and process
	// CPU seconds per delivered elem.
	rate, cpuPerElem        float64
	owed, failed, published int
	// bad counts deliveries not owed, as for a rung.
	bad int
}

// closedLoop publishes the pool back to back for dur, holding at most
// window undelivered elems per subscriber, and counts the deliveries
// owed and the ones missing or corrupt.
func (r *liveRig) closedLoop(dur time.Duration, window int) (closedResult, error) {
	var res closedResult
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs, err := r.connect(ctx)
	if err != nil {
		return res, err
	}
	var recv, intact [2]atomic.Int64
	var bad atomic.Int64
	// progress wakes the publisher when a subscriber has consumed; a
	// buffer of one coalesces wake-ups.
	progress := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *rislive.Client) {
			defer wg.Done()
			next := 0
			for {
				_, e, err := c.NextElem(ctx)
				if err != nil {
					return
				}
				// The timestamp carries the publish index; each
				// subscriber's indices must rise.
				idx := int(e.Timestamp.UnixMicro() - closedBase)
				if idx < next || !r.owes(i, idx) || r.pool[idx%len(r.pool)].hash != elemHash(e, false) {
					bad.Add(1)
				} else {
					intact[i].Add(1)
				}
				next = max(next, idx+1)
				recv[i].Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(i, c)
	}
	dropped0 := r.srv.Stats().Dropped
	var e core.Elem
	owedPfx := 0
	t0 := time.Now()
	end := t0.Add(dur)
	var rates, cpus []float64
	winStart, winRecv, winCPU := t0, int64(0), cpuSeconds()
	n := 0
	for ; time.Now().Before(end); n++ {
		for int64(n)-recv[0].Load() > int64(window) || int64(owedPfx)-recv[1].Load() > int64(window) {
			select {
			case <-progress:
			case <-time.After(time.Second):
				return res, errors.New("live: closed loop stalled")
			}
		}
		p := &r.pool[n%len(r.pool)]
		e = p.elem
		e.Timestamp = time.UnixMicro(closedBase + int64(n))
		r.srv.Publish(p.project, p.collector, &e)
		if p.prefixSub {
			owedPfx++
		}
		if now := time.Now(); now.Sub(winStart) >= closedSpan {
			got, cpu := recv[0].Load(), cpuSeconds()
			if d := got - winRecv; d > 0 {
				rates = append(rates, float64(d)/now.Sub(winStart).Seconds())
				cpus = append(cpus, (cpu-winCPU)/float64(d))
			}
			winStart, winRecv, winCPU = now, got, cpu
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for (recv[0].Load() < int64(n) || recv[1].Load() < int64(owedPfx)) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	res.published = n
	res.owed = n + owedPfx
	res.bad = int(bad.Load())
	res.failed = res.owed - int(intact[0].Load()+intact[1].Load()) + res.bad
	if d := r.srv.Stats().Dropped - dropped0; d > 0 && res.failed == 0 {
		res.failed = int(d)
	}
	cancel()
	wg.Wait()
	r.disconnect(cs)
	if len(rates) == 0 {
		return res, errors.New("live: closed loop shorter than one window")
	}
	res.rate = median(rates)
	res.cpuPerElem = median(cpus)
	return res, nil
}

// closedBase is the Unix-microsecond timestamp of closed-loop publish
// 0: publish i carries closedBase+i, so subscribers recover the index.
const closedBase = 1456790400_000000

// preciseSleep waits d. The runtime's timers wake a sleeping goroutine
// up to a millisecond late on Linux, which at these rates would make
// the generator's own lateness most of every latency sample; short
// waits therefore block the thread in nanosleep(2) instead, which the
// kernel ends within tens of microseconds.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil)
}
