package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpstream-go/bgpstream"
	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/broker"
	"github.com/bgpstream-go/bgpstream/internal/core"
)

// httpServer is one in-process loopback server.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// serve starts h on an ephemeral loopback port.
func serve(h http.Handler, connState func(net.Conn, http.ConnState)) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ConnState: connState},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// fetchCounters instruments the archive server from outside: request
// and byte counts, concurrent connections, and (traced) one span per
// request handled.
type fetchCounters struct {
	requests, bytes atomic.Int64
	conns, maxConns atomic.Int64
	tr              atomic.Pointer[tracer]
}

func (f *fetchCounters) reset() {
	f.requests.Store(0)
	f.bytes.Store(0)
	f.maxConns.Store(f.conns.Load())
}

func (f *fetchCounters) connState(_ net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		n := f.conns.Add(1)
		for {
			m := f.maxConns.Load()
			if n <= m || f.maxConns.CompareAndSwap(m, n) {
				break
			}
		}
	case http.StateClosed, http.StateHijacked:
		f.conns.Add(-1)
	}
}

func (f *fetchCounters) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		tr := f.tr.Load()
		sp := tr.begin(kindFetch, tr.rootID())
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		f.bytes.Add(cw.n)
		tr.end(sp)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// pullRig is what a pull workload queries: the archive directory
// (rib-bulk), or the archive and broker servers in front of it
// (updates-monitor).
type pullRig struct {
	in        *input
	ref       *reference
	filters   core.Filters
	viaBroker bool

	fetch    fetchCounters
	archive  *httpServer
	broker   *httpServer
	brokerIx *broker.Server
}

// start brings the rig up: for the broker path it starts the archive
// server, scrapes it into a fresh broker index and serves the broker.
func (r *pullRig) start() error {
	if !r.viaBroker {
		// The directory interface has no servers; its set-up is the
		// archive scan every query's first NextBatch repeats.
		_, err := (&core.Directory{Dir: r.in.dir}).NextBatch(context.Background())
		return err
	}
	var err error
	r.archive, err = serve(r.fetch.wrap(&archive.Server{Store: &archive.Store{Root: r.in.dir}}), r.fetch.connState)
	if err != nil {
		return err
	}
	r.brokerIx = &broker.Server{
		Index:     broker.NewIndex(),
		Providers: []broker.DataProvider{{Project: archive.RIPERIS.Name, Mirrors: []string{r.archive.url + "/" + archive.RIPERIS.Name + "/"}}},
		Logf:      func(string, ...any) {},
	}
	n, err := r.brokerIx.Scrape()
	if err != nil {
		return err
	}
	metas, err := (&core.Directory{Dir: r.in.dir}).NextBatch(context.Background())
	if err != nil {
		return err
	}
	if n != len(metas) {
		return fmt.Errorf("broker indexed %d dumps, archive holds %d", n, len(metas))
	}
	r.broker, err = serve(r.brokerIx, nil)
	return err
}

func (r *pullRig) stop() {
	if r.broker != nil {
		r.broker.close()
	}
	if r.archive != nil {
		r.archive.close()
	}
	r.broker, r.archive = nil, nil
	// Idle keep-alive connections to the stopped servers would count
	// as open against the next rig's connection gauge.
	http.DefaultClient.CloseIdleConnections()
}

// listingDI wraps a query's data interface to see every batch the
// stream receives: the checker counts how often each dump was listed,
// and the wrapper times NextBatch (span in traced runs).
type listingDI struct {
	inner   core.DataInterface
	chk     *checker
	tr      *tracer
	kind    spanKind
	batches int
	batchMs []float64
}

func (d *listingDI) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	sp := d.tr.begin(d.kind, d.tr.current())
	t0 := time.Now()
	metas, err := d.inner.NextBatch(ctx)
	if len(metas) > 0 {
		d.batches++
		d.batchMs = append(d.batchMs, sinceMs(t0))
	}
	d.tr.end(sp)
	if d.chk != nil {
		d.chk.listedBatch(metas)
	}
	return metas, err
}

// queryResult is one drained query.
type queryResult struct {
	wallSec float64
	firstMs float64
	v       verdict
	di      *listingDI
}

// openQuery opens the workload's stream over a fresh data interface.
func (r *pullRig) openQuery(ctx context.Context, chk *checker, workers int, tr *tracer) (*bgpstream.Stream, *listingDI, error) {
	ldi := &listingDI{chk: chk, tr: tr, kind: kindListing}
	if r.viaBroker {
		ldi.inner = broker.NewClient(r.broker.url, r.filters)
		ldi.kind = kindBrokerBatch
	} else {
		ldi.inner = &core.Directory{Dir: r.in.dir}
	}
	opts := []bgpstream.Option{bgpstream.WithSourceInstance(ldi), bgpstream.WithFilters(r.filters)}
	if workers > 0 {
		opts = append(opts, bgpstream.WithDecodeWorkers(workers))
	}
	s, err := bgpstream.Open(ctx, opts...)
	return s, ldi, err
}

// query drains one query elem by elem, checking every elem against the
// reference (chk nil: no check). workers 0 keeps the stream's default
// decode workers.
func (r *pullRig) query(chk *checker, workers int, tr *tracer) (queryResult, error) {
	if chk != nil {
		chk.reset()
	}
	ctx := context.Background()
	t0 := time.Now()
	s, ldi, err := r.openQuery(ctx, chk, workers, tr)
	if err != nil {
		return queryResult{}, err
	}
	defer s.Close()
	res := queryResult{firstMs: -1, di: ldi}
	for {
		sp := tr.begin(kindNextElem, tr.rootID())
		tr.setCurrent(sp)
		rec, e, err := s.NextElem()
		tr.end(sp)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		if res.firstMs < 0 {
			res.firstMs = sinceMs(t0)
		}
		if chk != nil {
			chk.elem(rec, e)
		}
	}
	res.wallSec = time.Since(t0).Seconds()
	if res.firstMs < 0 {
		res.firstMs = res.wallSec * 1e3
	}
	if chk != nil {
		res.v = chk.verdict()
	}
	return res, nil
}

// drainRecords drains one query record by record (Stream.Next), for
// the per-layer split between record delivery and elem
// materialisation.
func (r *pullRig) drainRecords(workers int) (queryResult, error) {
	t0 := time.Now()
	s, ldi, err := r.openQuery(context.Background(), nil, workers, nil)
	if err != nil {
		return queryResult{}, err
	}
	defer s.Close()
	res := queryResult{di: ldi}
	for {
		_, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
	}
	res.wallSec = time.Since(t0).Seconds()
	return res, nil
}

// sampler polls a function every interval on its own goroutine until
// stopped, keeping the maximum and mean of what it read.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	max  float64
	sum  float64
	n    int
}

func startSampler(every time.Duration, read func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := read()
				s.mu.Lock()
				s.max = max(s.max, v)
				s.sum += v
				s.n++
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the maximum and mean sample.
func (s *sampler) finish() (maxV, meanV float64) {
	close(s.stop)
	s.wg.Wait()
	if s.n > 0 {
		meanV = s.sum / float64(s.n)
	}
	return s.max, meanV
}
