package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/obsv"
)

// endToEnd is the untraced run: set-up, then the workload's pull
// queries and live rungs, reporting every end-to-end metric.
func (b *bench) endToEnd() error {
	setupS, err := b.setup()
	defer b.teardown()
	if err != nil {
		return err
	}
	b.res.set("setup_s", "s", setupS)
	if b.w.live {
		err = b.liveEndToEnd()
	} else {
		err = b.pullEndToEnd()
	}
	if err != nil {
		return err
	}
	if b.res.Attempted > 0 {
		b.res.set("intact_share", "share", 1-float64(b.res.Failed)/float64(b.res.Attempted))
	}
	return nil
}

// pullEndToEnd runs queries for 75% of the measuring time, then the
// memory probes, then the live reference rung on the workload's own
// elems for 15%: the result line carries every end-to-end metric on
// every workload. The live rig is started, and its elem pool decoded, only
// after the pull measurements, so neither is in the pull workload's
// set-up time or resident during its memory probes.
func (b *bench) pullEndToEnd() error {
	chk := newChecker(b.ref)
	if _, err := b.rig.query(chk, 0, nil); err != nil { // warm-up
		return err
	}
	var walls, firsts, cpus []float64
	var alloc float64
	var inputs int
	var tally verdict
	deadline := time.Now().Add(b.budget(0.75))
	for len(walls) < 3 || time.Now().Before(deadline) {
		u := readUsage()
		q, err := b.rig.query(chk, 0, nil)
		if err != nil {
			return err
		}
		d := since(u)
		walls = append(walls, q.wallSec)
		firsts = append(firsts, q.firstMs)
		cpus = append(cpus, d.cpuSec)
		alloc += d.allocBytes
		inputs += b.ref.inputElems
		b.count(q.v, &tally)
	}
	b.info["queries"] = len(walls)
	b.info["check"] = tally.String()
	if tally.attempted > 0 {
		b.info["failed_share"] = float64(tally.failed()) / float64(tally.attempted)
	}
	b.res.set("elems_per_s", "1/s", float64(b.ref.inputElems)/median(walls))
	b.res.set("first_elem_ms", "ms", median(firsts))
	b.res.set("cpu_s_per_melem", "s", median(cpus)/float64(b.ref.inputElems)*1e6)
	b.res.set("alloc_bytes_per_elem", "B", alloc/float64(inputs))
	// Memory probes: queries that each start from a heap collected and
	// returned to the OS, with the peak-RSS mark reset, so peak_rss_mb
	// is the median query's own footprint rather than an accident of
	// where the collector's cycles fell across the timed queries.
	var rss []float64
	for i := 0; i < rssProbes; i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		q, err := b.rig.query(chk, 0, nil)
		if err != nil {
			return err
		}
		b.count(q.v, &tally)
		rss = append(rss, peakRSSMB())
	}
	b.res.set("peak_rss_mb", "MB", median(rss))
	if err := b.startLive(); err != nil {
		return err
	}
	_, err := b.liveRef(b.budget(0.15))
	return err
}

// rssProbes is how many memory-probe queries a pull run makes.
const rssProbes = 3

// count adds one query's verdict to the result and to tally.
func (b *bench) count(v verdict, tally *verdict) {
	b.res.Attempted += v.attempted
	b.res.Failed += v.failed()
	if !v.correct {
		b.res.Correct = false
	}
	tally.attempted += v.attempted
	tally.missing += v.missing
	tally.duplicated += v.duplicated
	tally.corrupted += v.corrupted
}

// liveEndToEnd runs the closed-loop drain for 30% of the measuring
// time and the reference rung for 50%, then times subscriptions to
// their first elem.
func (b *bench) liveEndToEnd() error {
	debug.FreeOSMemory()
	resetPeakRSS()
	u := readUsage()
	cl, err := b.live.closedLoop(b.budget(0.3), closedWindow)
	if err != nil {
		return err
	}
	d := since(u)
	// The push path's footprint: the closed loop's peak, from a heap
	// returned to the OS as for the pull workloads' memory probes.
	b.res.set("peak_rss_mb", "MB", peakRSSMB())
	// A bad delivery is an operation the push path made and failed, on
	// top of the owed ones, so that failed never exceeds attempted.
	b.res.Attempted += cl.owed + cl.bad
	b.res.Failed += cl.failed
	if cl.bad > 0 {
		b.res.Correct = false
	}
	b.res.set("elems_per_s", "1/s", cl.rate)
	b.res.set("cpu_s_per_melem", "s", cl.cpuPerElem*1e6)
	b.res.set("alloc_bytes_per_elem", "B", d.allocBytes/float64(cl.published))
	ref, err := b.liveRef(b.budget(0.5))
	if err != nil {
		return err
	}
	b.res.Attempted += ref.expected + ref.bad
	b.res.Failed += ref.failed
	firsts, err := b.live.firstElems(firstElemProbes)
	if err != nil {
		return err
	}
	// Read over the quickest quarter of subscriptions: over all of
	// them, the median moved between runs by 0.3 of itself with the
	// host's scheduling of the new subscriber's goroutine, beyond any
	// bound a metric may have.
	sort.Float64s(firsts)
	b.res.set("first_elem_ms", "ms", median(firsts[:len(firsts)/4]))
	b.info["closed_loop"] = map[string]any{"published": cl.published, "owed": cl.owed, "failed": cl.failed}
	return nil
}

// firstElemProbes is how many subscriptions the push workload times to
// their first elem.
const firstElemProbes = 60

// closedWindow bounds undelivered elems per subscriber in the closed
// loop, well inside the server's default 1024-message client buffer.
const closedWindow = 256

// obsvValue reads one unlabelled series of the production metrics
// registry, the same numbers /metrics shows.
func obsvValue(family string) float64 {
	for _, p := range obsv.Default.Gather() {
		if p.Family == family && len(p.LabelValues) == 0 {
			return p.Value
		}
	}
	return 0
}

// obsvFamilies are the production instruments the traced run reads.
var obsvFamilies = []string{
	"bgpstream_prefetch_records_decoded_total",
	"bgpstream_prefetch_corrupt_dumps_total",
	"bgpstream_stream_elems_total",
	"bgpstream_stream_filter_rejected_total",
	"bgpstream_merge_partitions_total",
	"bgpstream_prefetch_stalls_total",
	"bgpstream_resilience_retries_total",
	"bgpstream_fetch_resumes_total",
}

func obsvSnapshot() map[string]float64 {
	m := make(map[string]float64, len(obsvFamilies))
	for _, f := range obsvFamilies {
		m[f] = obsvValue(f)
	}
	return m
}

// traced is the per-layer run. It drains the workload's query untraced
// at the default decode workers and at one, drains records only,
// drains once more while sampling the production gauges, then traced
// at one worker; it replays the query's dumps through the mrt, bgp,
// merge and filter packages and runs a traced live rung. README.md
// lists the steps.
func (b *bench) traced() error {
	if _, err := b.setup(); err != nil {
		b.teardown()
		return err
	}
	defer b.teardown()
	if b.rig == nil {
		// The push workload's pull-side layers are measured on the
		// archive its pool is decoded from, read as rib-bulk reads.
		b.rig = &pullRig{in: b.in, ref: b.ref, filters: b.filters}
		if err := b.rig.start(); err != nil {
			return err
		}
	}
	chk := newChecker(b.ref)
	var tally verdict
	if _, err := b.rig.query(chk, 0, nil); err != nil { // warm-up
		return err
	}
	// Untraced drains, reps of each: default decode workers and one
	// worker without the reference check (prefetch.speedup,
	// core.elem_ns), records only (core.record_ns), and one worker with
	// the check: the untraced twin of the traced query below.
	const reps = 3
	var par, seq, recs, twin, gcCycles, gcPause []float64
	for i := 0; i < reps; i++ {
		u := readUsage()
		q, err := b.rig.query(nil, 0, nil)
		if err != nil {
			return err
		}
		d := since(u)
		par = append(par, q.wallSec)
		gcCycles = append(gcCycles, d.gcCycles)
		gcPause = append(gcPause, d.gcPauseMs)
		if q, err = b.rig.query(nil, 1, nil); err != nil {
			return err
		}
		seq = append(seq, q.wallSec)
		if q, err = b.rig.drainRecords(1); err != nil {
			return err
		}
		recs = append(recs, q.wallSec)
		if q, err = b.rig.query(chk, 1, nil); err != nil {
			return err
		}
		b.count(q.v, &tally)
		twin = append(twin, q.wallSec)
	}
	wPar, wSeq, wRec, wTwin := median(par), median(seq), median(recs), median(twin)
	inputs := float64(b.ref.inputElems)

	// Instrumented query: production gauges sampled, counters diffed.
	before := obsvSnapshot()
	b.rig.fetch.reset()
	heap := startSampler(time.Millisecond, func() float64 { return obsvValue("bgpstream_merge_heap_size") })
	busy := startSampler(time.Millisecond, func() float64 { return obsvValue("bgpstream_prefetch_workers_busy") })
	q, err := b.rig.query(chk, 0, nil)
	heapMax, _ := heap.finish()
	_, busyMean := busy.finish()
	if err != nil {
		return err
	}
	b.count(q.v, &tally)
	after := obsvSnapshot()
	delta := func(f string) float64 { return after[f] - before[f] }
	dupListings := 0
	for _, n := range chk.listed {
		if n > 1 {
			dupListings += n - 1
		}
	}
	fetchReq, fetchBytes, fetchConns := b.rig.fetch.requests.Load(), b.rig.fetch.bytes.Load(), b.rig.fetch.maxConns.Load()

	// Traced queries at one decode worker, whose call tree on the
	// consumer goroutine is then the whole pull path; the median-wall
	// one of reps is kept.
	var tr *tracer
	var tq queryResult
	var traced []struct {
		tr *tracer
		q  queryResult
	}
	for i := 0; i < reps; i++ {
		t := newTracer()
		t.root = t.begin(kindQuery, -1)
		b.rig.fetch.tr.Store(t)
		q, err := b.rig.query(chk, 1, t)
		b.rig.fetch.tr.Store(nil)
		t.end(t.root)
		if err != nil {
			return err
		}
		b.count(q.v, &tally)
		traced = append(traced, struct {
			tr *tracer
			q  queryResult
		}{t, q})
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].q.wallSec < traced[j].q.wallSec })
	tr, tq = traced[reps/2].tr, traced[reps/2].q
	perSpan := spanCost()

	// The pull workloads' live rig, with the pool the filter replay
	// matches, comes up only now, after the pull drains.
	if b.live == nil {
		if err := b.startLive(); err != nil {
			return err
		}
	}
	archiveURL := ""
	if b.rig.archive != nil {
		archiveURL = b.rig.archive.url
	}
	// Replays, reps of them: the one with the median total is kept,
	// with its spans, so that one slow pass does not set the layer
	// self times the accounting adds up.
	type replayRun struct {
		rp *replayResult
		tr *tracer
	}
	var rps []replayRun
	for i := 0; i < reps; i++ {
		rt := tr.fork()
		rp, err := replay(b.ref, b.in.dir, b.filters, b.pool, archiveURL, rt)
		if err != nil {
			return err
		}
		rps = append(rps, replayRun{rp, rt})
	}
	sort.Slice(rps, func(i, j int) bool { return rps[i].rp.totalNs() < rps[j].rp.totalNs() })
	rp := rps[reps/2].rp
	tr.adopt(rps[reps/2].tr)

	// Live: a traced reference rung, then the ladder for drops.
	b.live.tr = tr
	ref, err := b.live.rung(refRate, b.budget(0.1))
	b.live.tr = nil
	if err != nil {
		return err
	}
	rungs, maxRate, err := b.live.ladder(ref, b.budget(0.02))
	if err != nil {
		return err
	}
	b.noteRungs(rungs)
	var dropped uint64
	for _, r := range rungs {
		dropped += r.dropped
	}

	set := b.res.set
	viaBroker := 0.0
	if b.rig.viaBroker {
		viaBroker = 1
	}
	set("broker.batches", "count", viaBroker*float64(q.di.batches))
	set("broker.batch_ms", "ms", viaBroker*mean(q.di.batchMs))
	set("broker.dup_dumps", "count", viaBroker*float64(dupListings))
	set("fetch.requests", "count", float64(fetchReq))
	set("fetch.bytes", "B", float64(fetchBytes))
	set("fetch.max_conns", "count", float64(fetchConns))
	set("fetch.open_ms", "ms", median(rp.fetchOpenMs))
	set("fetch.retries", "count", delta("bgpstream_resilience_retries_total"))
	set("fetch.resumes", "count", delta("bgpstream_fetch_resumes_total"))

	rec := float64(max(rp.records, 1))
	set("mrt.records", "count", float64(rp.records))
	set("mrt.open_us", "us", float64(rp.openNs)/1e3/float64(max(rp.dumps, 1)))
	set("mrt.next_ns_per_record", "ns", float64(rp.gzNextNs)/rec)
	set("mrt.raw_next_ns_per_record", "ns", float64(rp.rawNextNs)/rec)
	set("mrt.gunzip_ns_per_byte", "ns", float64(rp.gzNextNs-rp.rawNextNs)/float64(max(rp.rawBytes, 1)))
	set("mrt.decode_ns_per_record", "ns", float64(rp.decodeNs)/rec)
	set("bgp.update_ns", "ns", perItem(rp.updateNs, rp.updates))
	set("bgp.rib_attrs_ns", "ns", perItem(rp.ribAttrsNs, rp.ribAttrs))
	set("bgp.allocs_per_decode", "count", rp.bgpMallocs)
	set("core.record_ns", "ns", wRec*1e9/float64(max(b.ref.records, 1)))
	set("core.elem_ns", "ns", (wSeq-wRec)*1e9/inputs)
	set("core.elems_per_record", "count", inputs/float64(max(b.ref.records, 1)))
	set("core.records_decoded", "count", delta("bgpstream_prefetch_records_decoded_total"))
	set("core.corrupt_dumps", "count", delta("bgpstream_prefetch_corrupt_dumps_total"))
	set("merge.heap_max", "count", heapMax)
	set("merge.partitions", "count", delta("bgpstream_merge_partitions_total"))
	set("merge.pop_ns", "ns", float64(rp.popNs)/float64(max(rp.pops, 1)))
	set("prefetch.busy_mean", "count", busyMean)
	set("prefetch.stalls", "count", delta("bgpstream_prefetch_stalls_total"))
	set("prefetch.speedup", "x", wSeq/wPar)
	matchNs := float64(rp.matchNs) / float64(max(rp.matches, 1))
	set("filter.match_ns", "ns", matchNs)
	passed, rejected := delta("bgpstream_stream_elems_total"), delta("bgpstream_stream_filter_rejected_total")
	set("filter.reject_share", "share", rejected/max(passed+rejected, 1))
	set("filter.dumps_pruned_share", "share", float64(rp.pruned)/float64(max(rp.metas, 1)))
	set("rislive.publish_us_p99", "us", quantile(ref.publishUs, 0.99))
	set("rislive.p99_ms", "ms", ref.p99)
	set("rislive.p99_all_ms", "ms", ref.p99All)
	set("rislive.p99_quietest_ms", "ms", ref.p99Quiet)
	set("rislive.gen_late_ms", "ms", ref.lateP99Ms)
	set("rislive.server_dropped", "count", float64(dropped))
	set("rislive.max_rate", "1/s", maxRate)
	set("rislive.client_msgs_full", "count", float64(ref.clientMsgs[0]))
	set("rislive.client_msgs_prefix", "count", float64(ref.clientMsgs[1]))
	set("runtime.gc_cycles", "count", median(gcCycles))
	set("runtime.gc_pause_ms", "ms", median(gcPause))
	if tally.attempted > 0 {
		set("check.failed_share", "share", float64(tally.failed())/float64(tally.attempted))
	}
	set("check.duplicated_dumps", "count", float64(tally.duplicated))
	set("check.missing_dumps", "count", float64(tally.missing))
	set("check.corrupted_dumps", "count", float64(tally.corrupted))

	// Layer self times, each measured apart from the untraced drain it
	// is then checked against (README.md, "Traced run"). The record
	// path (Stream.Next) is the mrt open and framing replays, the merge
	// replay, the fetch replay's transfers on the broker path, and the
	// traced listing and broker NextBatch spans. What NextElem adds on
	// top is the drain difference wSeq-wRec, split into the mrt decode,
	// bgp and filter replays and core's own elem materialisation, the
	// rest. The bench layer is the traced query root's self time, the
	// reference check, less its share of the spans' own cost: a
	// begin/end pair's cost lands about half in the span and half in
	// its parent.
	kt := tr.selfTimes()
	st := byLayer(kt)
	spans := make(map[string]any, len(kt))
	for k, v := range kt {
		spans[kinds[k].layer+" "+kinds[k].name] = map[string]any{"count": v.spans, "self_ms": float64(v.selfNs) / 1e6}
	}
	b.info["spans"] = spans
	tracePath := filepath.Join(b.o.cache, fmt.Sprintf("trace-%s-%d.csv", b.o.workload, b.o.seed))
	if err := tr.writeCSV(tracePath); err != nil {
		return err
	}
	b.info["trace_file"] = tracePath
	ms := func(ns float64) float64 { return ns / 1e6 }
	consumerSpans := float64(st[layerBench].spans + st[layerCore].spans + st[layerBroker].spans)
	overheadEst := consumerSpans * perSpan
	elemDiff := (wSeq - wRec) * 1e9
	layers := map[string]float64{
		layerMRT:    float64(rp.openNs + rp.gzNextNs + rp.decodeNs),
		layerBGP:    float64(rp.updateNs + rp.ribAttrsNs),
		layerMerge:  float64(rp.popNs),
		layerFilter: matchNs * inputs,
		layerFetch:  float64(rp.fetchNs),
		layerBroker: float64(st[layerBroker].selfNs),
		layerBench:  float64(st[layerBench].selfNs) - overheadEst/2,
	}
	coreElem := elemDiff - float64(rp.decodeNs) - layers[layerBGP] - layers[layerFilter]
	layers[layerCore] = float64(kt[kindListing].selfNs) + coreElem
	accounted := 0.0
	for _, v := range layers {
		accounted += v
	}
	share := accounted / (wTwin * 1e9)
	b.info["accounting"] = map[string]any{
		"share":              share,
		"tolerance":          accountingTolerance,
		"within_tolerance":   math.Abs(share-1) <= accountingTolerance,
		"core_elem_ms":       ms(coreElem),
		"core_elem_negative": coreElem < 0,
	}
	layers[layerRISLive] = float64(st[layerRISLive].selfNs)
	counts := map[string]float64{
		layerBench: float64(st[layerBench].spans), layerCore: float64(st[layerCore].spans),
		layerBroker: float64(st[layerBroker].spans), layerFetch: float64(st[layerFetch].spans),
		layerMRT: float64(rp.records), layerBGP: float64(rp.updates + rp.ribAttrs),
		layerMerge: float64(rp.pops), layerFilter: float64(rp.matches),
		layerRISLive: float64(st[layerRISLive].spans),
	}
	for l, v := range layers {
		set(fmt.Sprintf("trace.%s.self_ms", l), "ms", ms(v))
		set(fmt.Sprintf("trace.%s.count", l), "count", counts[l])
	}
	set("trace.fetch.server_ms", "ms", ms(float64(st[layerFetch].selfNs)))
	tracedWall := tq.wallSec * 1e9
	set("trace.wall_ms", "ms", ms(tracedWall))
	set("trace.untraced_ms", "ms", wTwin*1e3)
	set("trace.overhead_ms", "ms", ms(tracedWall)-wTwin*1e3)
	set("trace.span_cost_ns", "ns", perSpan)
	set("trace.overhead_est_ms", "ms", ms(overheadEst))
	set("trace.accounted_share", "share", share)
	replayed := layers[layerMRT] + layers[layerBGP] + layers[layerMerge] + layers[layerFilter]
	set("trace.replayed_share", "share", replayed/max(float64(st[layerCore].selfNs), 1))
	b.info["check"] = tally.String()
	return nil
}

// accountingTolerance is the share by which the layer self times may
// miss the untraced wall time; a run outside it says so in its input
// line (see README.md).
const accountingTolerance = 0.25

// perItem is ns spread over n items, 0 when there were none.
func perItem(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}
