package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/merge"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// replayResult holds the per-layer costs of replaying a query's dumps
// through the mrt, bgp, merge and core filter packages' public
// functions, outside the stream.
type replayResult struct {
	dumps, records       int
	rawBytes             int64
	openNs               int64 // mrt.NewReader over gzip input
	gzNextNs, rawNextNs  int64 // Reader.Next loops over gzip and raw input
	decodeNs             int64 // DecodeBGP4MPMessageTo / DecodeRIBTo / DecodePeerIndexTable
	updates, ribAttrs    int
	updateNs, ribAttrsNs int64
	bgpMallocs           float64
	pops                 int
	popNs                int64
	matches              int
	rejects              int // keeps the timed MatchElem calls live
	matchNs              int64
	metas, pruned        int
	fetchOpenMs          []float64
	fetchNs              int64 // Fetcher.Open plus reading the body
}

// totalNs is the time the replays of every layer took.
func (r *replayResult) totalNs() int64 {
	return r.openNs + r.gzNextNs + r.decodeNs + r.updateNs + r.ribAttrsNs + r.popNs + r.matchNs + r.fetchNs
}

// replay runs the replays for ref's dumps under filters. archiveURL,
// when set, is the archive server the dumps are also fetched from
// through resilience.Fetcher.Open.
func replay(ref *reference, root string, filters core.Filters, pool []poolElem, archiveURL string, tr *tracer) (*replayResult, error) {
	res := &replayResult{}
	type loaded struct {
		d       *dumpRef
		gz, raw []byte
		recs    []mrt.Record
	}
	dumps := make([]loaded, 0, len(ref.dumps))
	for i := range ref.dumps {
		d := &ref.dumps[i]
		gz, err := os.ReadFile(d.meta.URL)
		if err != nil {
			return nil, err
		}
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		dumps = append(dumps, loaded{d: d, gz: gz, raw: raw})
		res.rawBytes += int64(len(raw))
	}
	res.dumps = len(dumps)

	// mrt: open, then frame every record, over gzip and raw input.
	for i := range dumps {
		l := &dumps[i]
		t0 := time.Now()
		r, err := mrt.NewReader(bytes.NewReader(l.gz))
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		res.openNs += d.Nanoseconds()
		tr.record(kindMRTOpen, -1, t0, d)
		r.StableBodies(0)
		t0 = time.Now()
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			l.recs = append(l.recs, rec)
		}
		d = time.Since(t0)
		res.gzNextNs += d.Nanoseconds()
		tr.record(kindMRTNext, -1, t0, d)
		r.Close()
		res.records += len(l.recs)

		raw, err := mrt.NewReader(bytes.NewReader(l.raw))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		for {
			if _, err := raw.Next(); err != nil {
				break
			}
		}
		res.rawNextNs += time.Since(t0).Nanoseconds()
	}

	// mrt record decode, timed; a second, untimed pass keeps what the
	// bgp replay decodes next.
	var msgs []mrt.BGP4MPMessage
	var entries []mrt.RIBEntry
	var msg mrt.BGP4MPMessage
	var sc mrt.BGP4MPStateChange
	var rib mrt.RIB
	for i := range dumps {
		l := &dumps[i]
		t0 := time.Now()
		if err := decodeRecords(l.recs, &msg, &sc, &rib, nil, nil); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		res.decodeNs += d.Nanoseconds()
		tr.record(kindMRTDecode, -1, t0, d)
		if err := decodeRecords(l.recs, &msg, &sc, &rib, &msgs, &entries); err != nil {
			return nil, err
		}
	}

	// bgp: attribute decode through one per-reader Decoder, as the
	// stream does.
	var dec bgp.Decoder
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := range msgs {
		if _, err := msgs[i].UpdateInto(&dec); err != nil {
			return nil, err
		}
	}
	d := time.Since(t0)
	res.updates, res.updateNs = len(msgs), d.Nanoseconds()
	tr.record(kindBGPUpdate, -1, t0, d)
	t0 = time.Now()
	for i := range entries {
		if _, err := entries[i].DecodeAttrsInto(&dec); err != nil {
			return nil, err
		}
	}
	d = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	res.ribAttrs, res.ribAttrsNs = len(entries), d.Nanoseconds()
	tr.record(kindBGPRIB, -1, t0, d)
	if n := res.updates + res.ribAttrs; n > 0 {
		res.bgpMallocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}

	// merge: the stream's partitioned k-way merge over the pre-read
	// records' time keys.
	ivs := make([]merge.Interval, len(dumps))
	keys := make([][]uint64, len(dumps))
	for i, l := range dumps {
		s, e := l.d.meta.Interval()
		ivs[i] = merge.Interval{Start: s, End: e}
		keys[i] = make([]uint64, len(l.recs))
		for j, rec := range l.recs {
			keys[i][j] = uint64(rec.Header.Timestamp)<<20 | uint64(rec.Header.Microseconds)
		}
	}
	parts := merge.PartitionOverlapping(ivs)
	groups := make([][]merge.Source[uint64], len(parts))
	for g, idxs := range parts {
		for _, i := range idxs {
			groups[g] = append(groups[g], &merge.SliceSource[uint64]{Items: keys[i]})
		}
	}
	seq := merge.NewSequence(func(a, b uint64) bool { return a < b }, groups...)
	t0 = time.Now()
	for {
		if _, err := seq.Next(); err != nil {
			break
		}
		res.pops++
	}
	d = time.Since(t0)
	res.popNs = d.Nanoseconds()
	tr.record(kindMergePop, -1, t0, d)

	// filter: MatchElem over the live pool (the stream's first elems)
	// and MatchMeta over every dump the archive holds.
	cf := core.CompileFilters(filters)
	t0 = time.Now()
	for rounds := 0; rounds == 0 || time.Since(t0) < 20*time.Millisecond; rounds++ {
		for i := range pool {
			res.matches++
			if !cf.MatchElem(&pool[i].elem) {
				res.rejects++
			}
		}
		if len(pool) == 0 {
			break
		}
	}
	d = time.Since(t0)
	res.matchNs = d.Nanoseconds()
	tr.record(kindFilterMatch, -1, t0, d)
	metas, err := (&core.Directory{Dir: root}).NextBatch(context.Background())
	if err != nil {
		return nil, err
	}
	for _, m := range metas {
		res.metas++
		if !cf.MatchMeta(m) {
			res.pruned++
		}
	}

	// fetch: resilience.Fetcher.Open against the archive server.
	if archiveURL != "" {
		f := &resilience.Fetcher{Client: http.DefaultClient}
		for _, l := range dumps {
			rel, err := filepath.Rel(root, l.d.meta.URL)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			rc, err := f.Open(context.Background(), archiveURL+"/"+filepath.ToSlash(rel))
			if err != nil {
				return nil, fmt.Errorf("fetch replay: %w", err)
			}
			res.fetchOpenMs = append(res.fetchOpenMs, sinceMs(t0))
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
			if err != nil {
				return nil, fmt.Errorf("fetch replay: %w", err)
			}
			res.fetchNs += time.Since(t0).Nanoseconds()
		}
	}
	return res, nil
}

// decodeRecords decodes every record through the mrt package's
// allocation-free decoders. With msgs and entries non-nil it also
// keeps the UPDATE messages and RIB entries for the bgp replay.
func decodeRecords(recs []mrt.Record, msg *mrt.BGP4MPMessage, sc *mrt.BGP4MPStateChange, rib *mrt.RIB, msgs *[]mrt.BGP4MPMessage, entries *[]mrt.RIBEntry) error {
	for _, rec := range recs {
		h := rec.Header
		switch h.Type {
		case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
			switch h.Subtype {
			case mrt.SubtypeMessage, mrt.SubtypeMessageAS4:
				if err := mrt.DecodeBGP4MPMessageTo(msg, rec.Body, h.Subtype); err != nil {
					return err
				}
				if msgs != nil {
					if t, err := msg.MessageType(); err == nil && t == bgp.MsgUpdate {
						*msgs = append(*msgs, *msg)
					}
				}
			case mrt.SubtypeStateChange, mrt.SubtypeStateChangeAS4:
				if err := mrt.DecodeBGP4MPStateChangeTo(sc, rec.Body, h.Subtype); err != nil {
					return err
				}
			}
		case mrt.TypeTableDumpV2:
			switch h.Subtype {
			case mrt.SubtypePeerIndexTable:
				if _, err := mrt.DecodePeerIndexTable(rec.Body); err != nil {
					return err
				}
			case mrt.SubtypeRIBIPv4Unicast, mrt.SubtypeRIBIPv6Unicast:
				afi := uint16(1)
				if h.Subtype == mrt.SubtypeRIBIPv6Unicast {
					afi = 2
				}
				if err := mrt.DecodeRIBTo(rib, rec.Body, afi); err != nil {
					return err
				}
				if entries != nil {
					*entries = append(*entries, rib.Entries...)
				}
			}
		}
	}
	return nil
}
