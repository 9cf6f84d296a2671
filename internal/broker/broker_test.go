package broker

import (
	"context"
	"io"
	"net/http/httptest"
	"net/netip"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
)

func meta(project, collector string, t archive.DumpType, unix int64) archive.DumpMeta {
	d := 5 * time.Minute
	return archive.DumpMeta{
		Project: project, Collector: collector, Type: t,
		Time: time.Unix(unix, 0).UTC(), Duration: d,
		URL: "http://example.org/x",
	}
}

func TestIndexAddDedup(t *testing.T) {
	ix := NewIndex()
	m := meta("ris", "rrc00", archive.DumpUpdates, 1000)
	if n := ix.Add(m, m); n != 1 {
		t.Errorf("Add dup = %d", n)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
	if n := ix.Add(meta("ris", "rrc00", archive.DumpUpdates, 1300)); n != 1 {
		t.Errorf("Add new = %d", n)
	}
	if ix.MaxSeq() != 2 {
		t.Errorf("MaxSeq = %d", ix.MaxSeq())
	}
}

func TestIndexQueryFiltersAndOrder(t *testing.T) {
	ix := NewIndex()
	ix.Add(
		meta("ris", "rrc00", archive.DumpUpdates, 2000),
		meta("ris", "rrc00", archive.DumpUpdates, 1000),
		meta("routeviews", "linx", archive.DumpUpdates, 1500),
		meta("ris", "rrc01", archive.DumpRIB, 1000),
	)
	files, more, _ := ix.Query(Query{Projects: []string{"ris"}})
	if len(files) != 3 || more {
		t.Fatalf("files=%d more=%v", len(files), more)
	}
	if !files[0].Time.Before(files[1].Time) && !files[0].Time.Equal(files[1].Time) {
		t.Errorf("unsorted: %v", files)
	}
	files, _, _ = ix.Query(Query{Types: []archive.DumpType{archive.DumpRIB}})
	if len(files) != 1 || files[0].Collector != "rrc01" {
		t.Errorf("type filter: %v", files)
	}
	files, _, _ = ix.Query(Query{Collectors: []string{"linx"}})
	if len(files) != 1 || files[0].Project != "routeviews" {
		t.Errorf("collector filter: %v", files)
	}
}

func TestIndexQueryInterval(t *testing.T) {
	ix := NewIndex()
	ix.Add(
		meta("ris", "rrc00", archive.DumpUpdates, 1000), // covers 1000-1300
		meta("ris", "rrc00", archive.DumpUpdates, 2000),
		meta("ris", "rrc00", archive.DumpUpdates, 3000),
	)
	files, _, _ := ix.Query(Query{
		IntervalStart: time.Unix(1200, 0),
		IntervalEnd:   time.Unix(2100, 0),
	})
	if len(files) != 2 {
		t.Fatalf("interval query: %d files", len(files))
	}
}

func TestIndexQueryWindowing(t *testing.T) {
	ix := NewIndex()
	for i := int64(0); i < 10; i++ {
		ix.Add(meta("ris", "rrc00", archive.DumpUpdates, 1000+i*3600))
	}
	files, more, _ := ix.Query(Query{Window: 2 * time.Hour})
	if len(files) != 2 || !more {
		t.Fatalf("window: %d files, more=%v", len(files), more)
	}
	// Page from after the last returned dump.
	files2, _, _ := ix.Query(Query{
		Window:        2 * time.Hour,
		IntervalStart: files[len(files)-1].Time.Add(time.Second),
	})
	if len(files2) == 0 || files2[0].Time.Equal(files[0].Time) {
		t.Fatalf("second window: %v", files2)
	}
}

// TestClientPagingReturnsEachDumpOnce pages one historical query
// through many response windows. Every matching dump must come back
// exactly once: the dumps in the last time slot of each page, a dump
// that began before Filters.Start but overlaps it, and a RIB dump
// longer than the window that overlaps every page's start.
func TestClientPagingReturnsEachDumpOnce(t *testing.T) {
	const base = int64(1456790400)
	ix := NewIndex()
	for _, coll := range []string{"rrc00", "rrc01"} {
		for i := int64(0); i < 48; i++ {
			ix.Add(meta("ris", coll, archive.DumpUpdates, base+i*300))
		}
	}
	long := meta("ris", "rrc02", archive.DumpRIB, base-600)
	long.Duration = 3 * time.Hour
	ix.Add(long)
	brkSrv := httptest.NewServer(&Server{Index: ix})
	defer brkSrv.Close()

	// Start half-way through the first 5-minute slot: both of its
	// dumps overlap the start and belong to the result.
	cl := NewClient(brkSrv.URL, core.Filters{Start: time.Unix(base+150, 0)})
	cl.HTTPClient = brkSrv.Client()
	cl.Window = time.Hour
	seen := map[string]int{}
	batches := 0
	for {
		batch, err := cl.NextBatch(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if batches++; batches > 100 {
			t.Fatalf("paging does not terminate: %d batches, %d dumps seen", batches, len(seen))
		}
		for _, m := range batch {
			seen[metaKey(m)]++
		}
	}
	if batches < 4 {
		t.Fatalf("%d batches: the query did not page", batches)
	}
	if len(seen) != ix.Len() {
		t.Errorf("saw %d distinct dumps, want %d", len(seen), ix.Len())
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("dump %s returned %d times", k, n)
		}
	}
}

func TestIndexAddedAfterCursor(t *testing.T) {
	ix := NewIndex()
	ix.Add(meta("ris", "rrc00", archive.DumpUpdates, 1000))
	_, _, seq := ix.Query(Query{})
	ix.Add(meta("ris", "rrc00", archive.DumpUpdates, 2000))
	files, _, seq2 := ix.Query(Query{AddedAfter: seq})
	if len(files) != 1 || files[0].Time.Unix() != 2000 {
		t.Fatalf("cursor query: %v", files)
	}
	if seq2 != seq+1 {
		t.Errorf("seq advance: %d -> %d", seq, seq2)
	}
}

func TestIndexPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.jsonl")
	ix, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	ix.Add(meta("ris", "rrc00", archive.DumpUpdates, 1000))
	ix.Add(meta("routeviews", "linx", archive.DumpRIB, 2000))
	ix.Close()

	ix2, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	if ix2.Len() != 2 {
		t.Fatalf("reloaded %d entries", ix2.Len())
	}
	// Dedup must survive reload.
	if n := ix2.Add(meta("ris", "rrc00", archive.DumpUpdates, 1000)); n != 0 {
		t.Errorf("reload dedup broken: %d", n)
	}
}

// buildTestArchive creates a store with one collector's dumps and
// returns the store and dump base time.
func buildTestArchive(t *testing.T) (*archive.Store, time.Time) {
	t.Helper()
	st, err := archive.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	origin := uint8(bgp.OriginIGP)
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			Origin: &origin, ASPath: bgp.SequencePath(64501, 701), HasASPath: true,
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * 5 * time.Minute)
		recs := []mrt.Record{mrt.NewUpdateRecord(uint32(ts.Unix())+1, 64501, 65000,
			netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("192.0.2.254"), u)}
		if _, err := st.WriteDump(archive.RIPERIS, "rrc00", archive.DumpUpdates, ts, recs); err != nil {
			t.Fatal(err)
		}
	}
	return st, base
}

func TestServerScrapeAndQuery(t *testing.T) {
	st, _ := buildTestArchive(t)
	archSrv := httptest.NewServer(&archive.Server{Store: st})
	defer archSrv.Close()

	brk := &Server{
		Index: NewIndex(),
		Providers: []DataProvider{
			{Project: "ris", Mirrors: []string{archSrv.URL + "/ris/"}},
		},
		Client: archSrv.Client(),
		Logf:   t.Logf,
	}
	n, err := brk.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("scraped %d files", n)
	}
	// Second scrape adds nothing.
	n, err = brk.Scrape()
	if err != nil || n != 0 {
		t.Fatalf("rescrape: %d %v", n, err)
	}

	brkSrv := httptest.NewServer(brk)
	defer brkSrv.Close()

	cl := NewClient(brkSrv.URL, core.Filters{Projects: []string{"ris"}})
	cl.HTTPClient = brkSrv.Client()
	batch, err := cl.NextBatch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("client got %d files", len(batch))
	}
	if _, err := cl.NextBatch(context.Background()); err != io.EOF {
		t.Fatalf("historical client must end with EOF, got %v", err)
	}
}

func TestBrokerEndToEndStream(t *testing.T) {
	st, _ := buildTestArchive(t)
	archSrv := httptest.NewServer(&archive.Server{Store: st})
	defer archSrv.Close()
	brk := &Server{
		Index:     NewIndex(),
		Providers: []DataProvider{{Project: "ris", Mirrors: []string{archSrv.URL + "/ris/"}}},
		Client:    archSrv.Client(),
		Logf:      t.Logf,
	}
	if _, err := brk.Scrape(); err != nil {
		t.Fatal(err)
	}
	brkSrv := httptest.NewServer(brk)
	defer brkSrv.Close()

	filters := core.Filters{Projects: []string{"ris"}}
	cl := NewClient(brkSrv.URL, filters)
	cl.HTTPClient = brkSrv.Client()
	s := core.NewStream(context.Background(), cl, filters)
	defer s.Close()
	n := 0
	var last time.Time
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != core.StatusValid {
			t.Fatalf("record status %s", rec.Status)
		}
		if rec.Time().Before(last) {
			t.Fatal("stream unsorted")
		}
		last = rec.Time()
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d records via broker", n)
	}
}

func TestMirrorRotation(t *testing.T) {
	brk := &Server{
		Index: NewIndex(),
		Providers: []DataProvider{{
			Project: "ris",
			Mirrors: []string{"http://primary/ris", "http://mirror1/ris", "http://mirror2/ris"},
		}},
	}
	m := archive.DumpMeta{Project: "ris", URL: "http://primary/ris/rrc00/2016.03/updates.20160301.0000.gz"}
	hosts := map[string]bool{}
	for i := 0; i < 9; i++ {
		out := brk.rewriteMirror(m)
		u := out.URL
		hosts[u[:len("http://mirrorX")]] = true
	}
	if len(hosts) < 2 {
		t.Errorf("mirror rotation not observed: %v", hosts)
	}
}

func TestLiveModePolling(t *testing.T) {
	st, base := buildTestArchive(t)
	archSrv := httptest.NewServer(&archive.Server{Store: st})
	defer archSrv.Close()
	brk := &Server{
		Index:     NewIndex(),
		Providers: []DataProvider{{Project: "ris", Mirrors: []string{archSrv.URL + "/ris/"}}},
		Client:    archSrv.Client(),
		Logf:      t.Logf,
	}
	if _, err := brk.Scrape(); err != nil {
		t.Fatal(err)
	}
	brkSrv := httptest.NewServer(brk)
	defer brkSrv.Close()

	filters := core.Filters{Projects: []string{"ris"}, Live: true}
	cl := NewClient(brkSrv.URL, filters)
	cl.HTTPClient = brkSrv.Client()
	cl.PollInterval = 5 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Catch-up batch.
	batch, err := cl.NextBatch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("catch-up: %d files", len(batch))
	}

	// Publish a new dump while the client polls.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		ts := base.Add(30 * time.Minute)
		origin := uint8(bgp.OriginIGP)
		u := &bgp.Update{
			Attrs: bgp.PathAttributes{Origin: &origin, ASPath: bgp.SequencePath(64501, 3356), HasASPath: true,
				NextHop: netip.MustParseAddr("192.0.2.1")},
			NLRI: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
		}
		recs := []mrt.Record{mrt.NewUpdateRecord(uint32(ts.Unix()), 64501, 65000,
			netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("192.0.2.254"), u)}
		if _, err := st.WriteDump(archive.RIPERIS, "rrc00", archive.DumpUpdates, ts, recs); err != nil {
			t.Error(err)
			return
		}
		if _, err := brk.Scrape(); err != nil {
			t.Error(err)
		}
	}()

	// This call must block until the new dump is scraped.
	batch, err = cl.NextBatch(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 {
		t.Fatalf("live batch: %d files", len(batch))
	}
	if batch[0].Time.Unix() != base.Add(30*time.Minute).Unix() {
		t.Errorf("live batch time: %v", batch[0].Time)
	}
}

func TestBackgroundScraper(t *testing.T) {
	st, _ := buildTestArchive(t)
	archSrv := httptest.NewServer(&archive.Server{Store: st})
	defer archSrv.Close()
	brk := &Server{
		Index:          NewIndex(),
		Providers:      []DataProvider{{Project: "ris", Mirrors: []string{archSrv.URL + "/ris/"}}},
		Client:         archSrv.Client(),
		ScrapeInterval: 10 * time.Millisecond,
		Logf:           t.Logf,
	}
	brk.Start()
	defer brk.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for brk.Index.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if brk.Index.Len() != 3 {
		t.Fatalf("background scraper indexed %d", brk.Index.Len())
	}
}

func TestServerBadRequests(t *testing.T) {
	brk := &Server{Index: NewIndex()}
	srv := httptest.NewServer(brk)
	defer srv.Close()
	for _, q := range []string{
		"/data?type=bogus",
		"/data?intervalStart=notanumber",
		"/data?window=-5",
		"/data?dataAddedSince=x",
	} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s -> %d", q, resp.StatusCode)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("health -> %d", resp.StatusCode)
	}
}
