// Command perfbench is the repository benchmark: it generates a
// seeded archive, runs one workload against the real stream, broker,
// archive and live servers in this process, checks every output
// against a reference, and prints the metrics as JSON. See README.md.
//
// Usage (from the repository root, through run.py which builds it):
//
//	perfbench -workload rib-bulk -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/core"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	cache    string
	tiny     bool
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workload describes how a workload queries its input.
type workload struct {
	// live marks the push workload; the others are pull workloads.
	live bool
	// viaBroker routes queries through archive.Server, broker.Server
	// and broker.Client instead of core.Directory.
	viaBroker bool
	// filters builds the pull query (and the reference's) filters.
	filters func(in *input) core.Filters
}

var workloads = map[string]workload{
	"rib-bulk": {filters: func(*input) core.Filters { return core.Filters{} }},
	"updates-monitor": {viaBroker: true, filters: func(in *input) core.Filters {
		// pfxmonitor-style: update dumps, monitored prefixes only.
		return core.Filters{
			Projects:  []string{archive.RIPERIS.Name},
			DumpTypes: []archive.DumpType{archive.DumpUpdates},
			Prefixes:  prefixFilters(in.monitored()),
		}
	}},
	"live-fanout": {live: true, filters: func(*input) core.Filters { return core.Filters{} }},
}

func prefixFilters(ps []netip.Prefix) []core.PrefixFilter {
	out := make([]core.PrefixFilter, len(ps))
	for i, p := range ps {
		out[i] = core.PrefixFilter{Prefix: p, Match: core.MatchAny}
	}
	return out
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: rib-bulk, updates-monitor or live-fanout")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.cache, "cache", ".bench_build/perfbench", "directory generated inputs are cached in")
	flag.BoolVar(&o.tiny, "tiny", false, "use the tiny self-test input scale")
	gen := flag.Bool("gen", false, "only generate the input for -workload and -seed")
	flag.Parse()
	o.trace = *trace == 1
	if _, ok := workloads[o.workload]; !ok {
		fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	if *gen {
		if _, err := generate(o.cache, o.workload, o.seed, o.tiny); err != nil {
			fail(err)
		}
		return
	}
	res, info, err := run(o)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fail(err)
	}
	if err := enc.Encode(res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// poolCap bounds the live generator's elem pool.
const poolCap = 25000

// A run sets its deployment up at least setupMin and at most setupMax
// times, until setupSpan has passed; setup_s is the median.
const (
	setupMin  = 9
	setupMax  = 1000
	setupSpan = 500 * time.Millisecond
)

// run executes one run and returns its result line and a description
// of its input and checks.
func run(o options) (*result, map[string]any, error) {
	w := workloads[o.workload]
	in, err := loadInput(o.cache, o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, nil, err
	}
	filters := w.filters(in)
	ref, err := readDirectory(in.dir, &filters)
	if err != nil {
		return nil, nil, err
	}
	info := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"input": map[string]any{
			"digest":              in.Digest,
			"files":               in.Files,
			"compressed_bytes":    in.Bytes,
			"dumps_queried":       len(ref.dumps),
			"records":             ref.records,
			"elems":               ref.inputElems,
			"elems_after_filters": ref.outElems,
			"largest_rib_elems":   ref.maxRIBElems,
			"largest_partition":   ref.maxPartition,
			"monitored_prefixes":  len(in.Monitored),
		},
	}
	b := &bench{o: o, w: w, in: in, ref: ref, filters: filters, info: info, res: &result{Correct: true}}
	h := readHost()
	if o.trace {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return nil, nil, err
	}
	info["host"] = h.since()
	return b.res, info, nil
}

// bench is one run in progress.
type bench struct {
	o       options
	w       workload
	in      *input
	ref     *reference
	filters core.Filters
	pool    []poolElem
	info    map[string]any
	res     *result

	rig  *pullRig
	live *liveRig
}

// budget returns share of the run's measuring time.
func (b *bench) budget(share float64) time.Duration {
	return time.Duration(share * b.o.seconds * float64(time.Second))
}

// setup brings the workload's deployment up repeatedly (see setupMin),
// tearing all but the last down, and returns the median set-up time. Pull
// workloads start their pull rig; the push workload decodes its elem
// pool from the archive and starts the live rig.
func (b *bench) setup() (float64, error) {
	var secs []float64
	// From a collected heap, so that a collection the input and
	// reference passes left running does not overlap the set-ups.
	runtime.GC()
	start := time.Now()
	for i := 0; i < setupMax && (i < setupMin || time.Since(start) < setupSpan); i++ {
		if i > 0 {
			b.teardown()
		}
		t0 := time.Now()
		if b.w.live {
			pool, err := decodePool(b.in.dir, b.filters, prefixFilters(b.in.monitored()))
			if err != nil {
				return 0, err
			}
			b.pool = pool
			if err := b.startLive(); err != nil {
				return 0, err
			}
		} else {
			b.rig = &pullRig{in: b.in, ref: b.ref, filters: b.filters, viaBroker: b.w.viaBroker}
			if err := b.rig.start(); err != nil {
				return 0, err
			}
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// startLive starts the live rig, first decoding the elem pool it
// publishes if the run has none yet.
func (b *bench) startLive() error {
	if b.pool == nil {
		pool, err := decodePool(b.in.dir, b.filters, prefixFilters(b.in.monitored()))
		if err != nil {
			return err
		}
		b.pool = pool
	}
	live, err := startLive(b.pool, prefixFilters(b.in.monitored()))
	b.live = live
	return err
}

func (b *bench) teardown() {
	if b.rig != nil {
		b.rig.stop()
		b.rig = nil
	}
	if b.live != nil {
		b.live.stop()
		b.live = nil
	}
}

// liveRef runs the reference rung and sets live_p50_ms.
func (b *bench) liveRef(dur time.Duration) (rungResult, error) {
	ref, err := b.live.rung(refRate, dur)
	if err != nil {
		return ref, err
	}
	b.res.set("live_p50_ms", "ms", ref.p50)
	b.info["live_p99_ms"] = ref.p99
	b.noteRungs([]rungResult{ref})
	return ref, nil
}

// noteRungs marks the run not correct if any rung had a bad delivery
// and describes every rung in the input line.
func (b *bench) noteRungs(rungs []rungResult) {
	var out []map[string]any
	for _, r := range rungs {
		if r.bad > 0 {
			b.res.Correct = false
		}
		out = append(out, map[string]any{
			"rate": r.rate, "p50_ms": r.p50, "p99_ms": r.p99, "p99_quietest_ms": r.p99Quiet,
			"p99_all_ms": r.p99All, "published": r.published, "expected": r.expected,
			"received": r.received, "bad": r.bad, "failed": r.failed, "dropped": r.dropped,
			"growing": r.growing, "pass": r.pass,
		})
	}
	b.info["live_rungs"] = out
}
