package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"github.com/bgpstream-go/bgpstream"
	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/merge"
)

// dumpKey identifies a dump file by the tags its records carry.
type dumpKey struct {
	project, collector string
	typ                archive.DumpType
	time               int64
}

func keyOf(rec *core.Record) dumpKey {
	return dumpKey{rec.Project, rec.Collector, rec.DumpType, rec.DumpTime.Unix()}
}

func metaKey(m archive.DumpMeta) dumpKey {
	return dumpKey{m.Project, m.Collector, m.Type, m.Time.Unix()}
}

// dumpRef is the reference outcome of one dump: its elem count before
// the query's elem filters, and the count and order-dependent digest
// of the elems that pass them.
type dumpRef struct {
	key    dumpKey
	meta   archive.DumpMeta
	inputs int
	count  int
	digest uint64
}

// reference is what the sequential core.Directory reader delivers for
// a query: the benchmark's oracle, computed once per run before any
// timing.
type reference struct {
	dumps []dumpRef
	index map[dumpKey]int
	// inputElems sums dumps[i].inputs: the denominator of
	// elems_per_s, cpu_s_per_melem and alloc_bytes_per_elem.
	inputElems int
	outElems   int
	records    int
	// maxRIBElems is the elem count of the largest RIB dump;
	// maxPartition the largest overlap partition over the dumps.
	maxRIBElems  int
	maxPartition int
	// updatePrefixes lists the prefix of every update elem (with
	// repeats), for drawing the monitored set.
	updatePrefixes []netip.Prefix
}

// readDirectory builds the reference for the archive under root and
// the query filters f (nil: everything) with the sequential reader.
func readDirectory(root string, f *core.Filters) (*reference, error) {
	var meta core.Filters
	if f != nil {
		meta = metaFilters(*f)
	}
	match := core.CompileFilters(core.Filters{})
	if f != nil {
		match = core.CompileFilters(*f)
	}
	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSourceInstance(&core.Directory{Dir: root}),
		bgpstream.WithFilters(meta),
		bgpstream.WithDecodeWorkers(1))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ref := &reference{index: make(map[dumpKey]int)}
	// The dump list comes from the same scan the stream makes, so
	// dumps without a single elem are still expected.
	metas, err := (&core.Directory{Dir: root}).NextBatch(context.Background())
	if err != nil {
		return nil, err
	}
	cm := core.CompileFilters(meta)
	var ivs []merge.Interval
	for _, m := range metas {
		if !cm.MatchMeta(m) {
			continue
		}
		ref.index[metaKey(m)] = len(ref.dumps)
		ref.dumps = append(ref.dumps, dumpRef{key: metaKey(m), meta: m, digest: digestSeed})
		start, end := m.Interval()
		ivs = append(ivs, merge.Interval{Start: start, End: end})
	}
	for _, g := range merge.PartitionOverlapping(ivs) {
		ref.maxPartition = max(ref.maxPartition, len(g))
	}
	var last *core.Record
	for {
		rec, e, err := s.NextElem()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec != last {
			last = rec
			ref.records++
		}
		i, ok := ref.index[keyOf(rec)]
		if !ok {
			return nil, fmt.Errorf("reference: elem from unlisted dump %v", keyOf(rec))
		}
		d := &ref.dumps[i]
		d.inputs++
		ref.inputElems++
		if rec.DumpType == archive.DumpUpdates && e.Prefix.IsValid() {
			ref.updatePrefixes = append(ref.updatePrefixes, e.Prefix)
		}
		if !match.MatchElem(e) {
			continue
		}
		d.count++
		d.digest = mix(d.digest, elemHash(e, true))
		ref.outElems++
	}
	for _, d := range ref.dumps {
		if d.key.typ == archive.DumpRIB {
			ref.maxRIBElems = max(ref.maxRIBElems, d.inputs)
		}
	}
	return ref, nil
}

// metaFilters keeps the dump-selecting part of f.
func metaFilters(f core.Filters) core.Filters {
	return core.Filters{Projects: f.Projects, Collectors: f.Collectors, DumpTypes: f.DumpTypes, Start: f.Start, End: f.End}
}

const (
	digestSeed = 14695981039346656037
	digestMul  = 1099511628211
)

// mix folds one 64-bit word into an FNV-style running hash.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= digestMul
	h ^= h >> 29
	return h
}

// elemHash digests every field of an elem; withTime false leaves out
// the timestamp (the live generator restamps elems with due times).
func elemHash(e *core.Elem, withTime bool) uint64 {
	h := uint64(digestSeed)
	if withTime {
		h = mix(h, uint64(e.Timestamp.UnixMicro()))
	}
	h = mix(h, uint64(e.Type)<<32|uint64(e.PeerASN))
	h = mixAddr(h, e.PeerAddr)
	h = mixAddr(h, e.Prefix.Addr())
	h = mix(h, uint64(e.Prefix.Bits()+1))
	h = mixAddr(h, e.NextHop)
	for _, seg := range e.ASPath.Segments {
		h = mix(h, uint64(seg.Type)<<32|uint64(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			h = mix(h, uint64(a))
		}
	}
	for _, c := range e.Communities {
		h = mix(h, uint64(c))
	}
	return mix(h, uint64(e.OldState)<<8|uint64(e.NewState))
}

func mixAddr(h uint64, a netip.Addr) uint64 {
	if !a.IsValid() {
		return mix(h, 0)
	}
	b := a.As16()
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[8+i])
	}
	return mix(mix(h, hi), lo)
}

// checker compares one query's delivered elems with the reference,
// dump by dump. It allocates nothing per elem.
type checker struct {
	ref     *reference
	counts  []int
	digests []uint64
	listed  []int
	// regress counts elems delivered with a timestamp below the
	// stream's maximum so far, per dump.
	regress []int
	maxTs   int64
	unknown int
}

func newChecker(ref *reference) *checker {
	n := len(ref.dumps)
	return &checker{ref: ref, counts: make([]int, n), digests: make([]uint64, n), listed: make([]int, n), regress: make([]int, n)}
}

func (c *checker) reset() {
	for i := range c.counts {
		c.counts[i], c.digests[i], c.listed[i], c.regress[i] = 0, digestSeed, 0, 0
	}
	c.maxTs, c.unknown = 0, 0
}

// listedBatch records the dumps a data interface handed to the stream.
func (c *checker) listedBatch(metas []archive.DumpMeta) {
	for _, m := range metas {
		if i, ok := c.ref.index[metaKey(m)]; ok {
			c.listed[i]++
		}
	}
}

func (c *checker) elem(rec *core.Record, e *core.Elem) {
	i, ok := c.ref.index[keyOf(rec)]
	if !ok {
		c.unknown++
		return
	}
	c.counts[i]++
	c.digests[i] = mix(c.digests[i], elemHash(e, true))
	ts := e.Timestamp.UnixMicro()
	if ts < c.maxTs {
		c.regress[i]++
	} else {
		c.maxTs = ts
	}
}

// verdict is one query's outcome against the reference.
type verdict struct {
	attempted, missing, duplicated, corrupted int
	// correct is false when a dump that is not counted as failed
	// still broke the reference (out of time order), or when elems
	// arrived from a dump the query does not cover.
	correct bool
}

func (v verdict) failed() int { return v.missing + v.duplicated + v.corrupted }

func (c *checker) verdict() verdict {
	v := verdict{attempted: len(c.ref.dumps), correct: c.unknown == 0}
	for i, d := range c.ref.dumps {
		switch {
		case c.listed[i] == 0 && c.counts[i] == 0:
			v.missing++
		case c.listed[i] > 1 || (d.count > 0 && c.counts[i] > d.count && c.counts[i]%d.count == 0):
			v.duplicated++
		case c.counts[i] != d.count || c.digests[i] != d.digest:
			v.corrupted++
		default:
			if c.regress[i] > 0 {
				v.correct = false
			}
		}
	}
	return v
}

// String summarises a verdict for the input line.
func (v verdict) String() string {
	return fmt.Sprintf("%d/%d dumps failed (%d missing, %d duplicated, %d corrupted)", v.failed(), v.attempted, v.missing, v.duplicated, v.corrupted)
}

// sinceMs is a float-milliseconds helper.
func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
