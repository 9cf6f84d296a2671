package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names, after the repo's modules. bench is the benchmark's own
// code on the consumer path (the reference check).
const (
	layerBench   = "bench"
	layerCore    = "core"
	layerBroker  = "broker"
	layerFetch   = "fetch"
	layerMRT     = "mrt"
	layerBGP     = "bgp"
	layerMerge   = "merge"
	layerFilter  = "filter"
	layerRISLive = "rislive"
)

// spanKind names a traced call: the public function wrapped and the
// layer it belongs to.
type spanKind uint8

const (
	kindQuery       spanKind = iota // one query, Open to io.EOF
	kindNextElem                    // Stream.NextElem
	kindListing                     // core.Directory NextBatch
	kindBrokerBatch                 // broker.Client NextBatch
	kindFetch                       // archive.Server.ServeHTTP
	kindPublish                     // rislive Server.Publish
	kindMRTOpen                     // mrt.NewReader
	kindMRTNext                     // mrt Reader.Next
	kindMRTDecode                   // mrt DecodeBGP4MPMessageTo, DecodeRIBTo, ...
	kindBGPUpdate                   // mrt BGP4MPMessage.UpdateInto
	kindBGPRIB                      // mrt RIBEntry.DecodeAttrsInto
	kindMergePop                    // merge Sequence.Next
	kindFilterMatch                 // core CompiledFilters.MatchElem
)

var kinds = [...]struct{ layer, name string }{
	kindQuery:       {layerBench, "query"},
	kindNextElem:    {layerCore, "Stream.NextElem"},
	kindListing:     {layerCore, "Directory.NextBatch"},
	kindBrokerBatch: {layerBroker, "Client.NextBatch"},
	kindFetch:       {layerFetch, "archive.Server.ServeHTTP"},
	kindPublish:     {layerRISLive, "Server.Publish"},
	kindMRTOpen:     {layerMRT, "NewReader"},
	kindMRTNext:     {layerMRT, "Reader.Next"},
	kindMRTDecode:   {layerMRT, "Decode*"},
	kindBGPUpdate:   {layerBGP, "BGP4MPMessage.UpdateInto"},
	kindBGPRIB:      {layerBGP, "RIBEntry.DecodeAttrsInto"},
	kindMergePop:    {layerMerge, "Sequence.Next"},
	kindFilterMatch: {layerFilter, "CompiledFilters.MatchElem"},
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; parent is -1 for a root. Spans hold no
// pointers, so a long trace costs the garbage collector nothing.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	root  int32 // the span new consumer-side spans hang off
	cur   int32 // the innermost open consumer-side span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), root: -1, cur: -1, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(kind spanKind, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: now, end: -1, parent: parent, kind: kind})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// fork returns an empty tracer on t's clock, whose spans adopt can
// later add to t.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0, root: -1, cur: -1}
}

// adopt adds o's spans, all roots, to t.
func (t *tracer) adopt(o *tracer) {
	if t == nil || o == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, o.spans...)
	t.mu.Unlock()
}

// rootID and current name the parents consumer-side spans attach to.
func (t *tracer) rootID() int32 {
	if t == nil {
		return -1
	}
	return t.root
}

func (t *tracer) setCurrent(id int32) {
	if t != nil {
		t.cur = id
	}
}

func (t *tracer) current() int32 {
	if t == nil {
		return -1
	}
	return t.cur
}

// record adds an already-timed span (replays time whole loops and
// record them after the fact).
func (t *tracer) record(kind spanKind, parent int32, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: s, end: s + d.Nanoseconds(), parent: parent, kind: kind})
	t.mu.Unlock()
}

// layerTotals is one layer's self time and span count.
type layerTotals struct {
	selfNs int64
	spans  int
}

// selfTimes computes every span kind's self time: each span's duration
// minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[spanKind]layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make(map[spanKind]layerTotals)
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := (s.end - s.start) - covered(t.spans, children[int32(i)], s.start, s.end)
		lt := out[s.kind]
		lt.selfNs += self
		lt.spans++
		out[s.kind] = lt
	}
	return out
}

// byLayer sums per-kind totals into per-layer ones.
func byLayer(kt map[spanKind]layerTotals) map[string]layerTotals {
	out := make(map[string]layerTotals)
	for k, v := range kt {
		lt := out[kinds[k].layer]
		lt.selfNs += v.selfNs
		lt.spans += v.spans
		out[kinds[k].layer] = lt
	}
	return out
}

// writeCSV writes every span, one line each: layer, call, start and
// end in nanoseconds since the tracer started, and the parent's line
// number (0-based, -1 for a root).
func (t *tracer) writeCSV(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,call,start_ns,end_ns,parent")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", kinds[s.kind].layer, kinds[s.kind].name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi] the union of the given spans
// covers.
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		s := spans[id]
		if s.end < 0 {
			continue
		}
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanCost measures what one begin/end pair costs on the running host, in
// nanoseconds, on a scratch tracer.
func spanCost() float64 {
	const n = 200000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(kindNextElem, -1))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
