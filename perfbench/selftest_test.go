package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// The self-test runs every workload at the tiny input scale. Run it
// from this directory with `go test ./...`.

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	return endToEnd, perLayer
}

// tinyRun generates the tiny input for a workload and runs it.
func tinyRun(t *testing.T, cache, name string, trace bool) *result {
	t.Helper()
	if _, err := generate(cache, name, 7, true); err != nil {
		t.Fatal(err)
	}
	res, _, err := run(options{workload: name, seed: 7, seconds: 1.5, trace: trace, cache: cache, tiny: true})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return res
}

// TestEveryMetricEmitted checks that each workload prints exactly the
// declared metrics, with their declared units, in both modes.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := declared(t)
	cache := t.TempDir()
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res := tinyRun(t, cache, name, trace)
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", name, trace, res.Attempted)
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", name, trace, m, got.Unit, unit)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", name, trace, m)
				}
			}
		}
	}
}

// TestDirectoryQueryMatchesReference checks the rib-bulk query (the
// parallel directory pipeline) against the sequential reference.
func TestDirectoryQueryMatchesReference(t *testing.T) {
	res := tinyRun(t, t.TempDir(), "rib-bulk", false)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("rib-bulk: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if v := res.Metrics["intact_share"].Value; v != 1 {
		t.Fatalf("rib-bulk intact_share = %v, want 1", v)
	}
}

// TestGeneratorDeterministic generates the same seed twice into
// separate caches and compares the archive digests.
func TestGeneratorDeterministic(t *testing.T) {
	for name := range workloads {
		a, err := generate(t.TempDir(), name, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(t.TempDir(), name, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest || a.Files != b.Files {
			t.Errorf("%s: same seed gave digests %s (%d files) and %s (%d files)", name, a.Digest, a.Files, b.Digest, b.Files)
		}
		c, err := generate(t.TempDir(), name, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if c.Digest == a.Digest {
			t.Errorf("%s: seeds 3 and 4 gave the same archive", name)
		}
	}
}

// duplicatingDI lists one dump twice, as a broken data interface would.
type duplicatingDI struct {
	inner core.DataInterface
	done  bool
}

func (d *duplicatingDI) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	metas, err := d.inner.NextBatch(ctx)
	if err == nil && !d.done && len(metas) > 0 {
		d.done = true
		metas = append(metas, metas[len(metas)-1])
	}
	return metas, err
}

// TestInjectedDuplicateCounted feeds the checker a stream whose data
// interface delivers one dump twice: the verdict must count exactly
// that dump as duplicated, so failed_share has teeth.
func TestInjectedDuplicateCounted(t *testing.T) {
	in, err := generate(t.TempDir(), "rib-bulk", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := readDirectory(in.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig := &pullRig{in: in, ref: ref}
	chk := newChecker(ref)
	clean, err := rig.query(chk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.v.failed() != 0 || !clean.v.correct {
		t.Fatalf("clean query: %s", clean.v)
	}

	chk.reset()
	ldi := &listingDI{inner: &duplicatingDI{inner: &core.Directory{Dir: in.dir}}, chk: chk}
	s := core.NewStream(context.Background(), ldi, core.Filters{})
	defer s.Close()
	for {
		rec, e, err := s.NextElem()
		if err != nil {
			break
		}
		chk.elem(rec, e)
	}
	v := chk.verdict()
	if v.duplicated != 1 || v.failed() != 1 {
		t.Fatalf("injected duplicate: %s, want exactly 1 duplicated", v)
	}
}

// TestLiveLeakCounted subscribes the prefix subscriber to the full
// feed, so that the server delivers it elems the benchmark does not
// owe it, as a push server leaking past a subscription would: the
// rung, the closed loop and the end-to-end result must count them as
// failed and mark the run not correct.
func TestLiveLeakCounted(t *testing.T) {
	cache := t.TempDir()
	in, err := generate(cache, "live-fanout", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{o: options{seconds: 1}, in: in, info: map[string]any{}, res: &result{Correct: true}}
	if err := b.startLive(); err != nil {
		t.Fatal(err)
	}
	defer b.teardown()
	leaks := 0
	for _, p := range b.pool {
		if !p.prefixSub {
			leaks++
		}
	}
	if leaks == 0 {
		t.Fatal("every pool elem matches the prefix subscription; nothing to leak")
	}
	b.live.subs[1] = rislive.Subscription{}

	r, err := b.live.rung(refRate, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.bad == 0 || r.failed < r.bad || r.pass {
		t.Errorf("rung: bad %d failed %d pass %v, want leaked elems counted", r.bad, r.failed, r.pass)
	}
	cl, err := b.live.closedLoop(200*time.Millisecond, closedWindow)
	if err != nil {
		t.Fatal(err)
	}
	if cl.bad == 0 || cl.failed < cl.bad {
		t.Errorf("closed loop: bad %d failed %d, want leaked elems counted", cl.bad, cl.failed)
	}
	if err := b.liveEndToEnd(); err != nil {
		t.Fatal(err)
	}
	if b.res.Correct || b.res.Failed <= 0 || b.res.Failed > b.res.Attempted {
		t.Errorf("end to end: correct %v failed %d of %d, want not correct and failures counted",
			b.res.Correct, b.res.Failed, b.res.Attempted)
	}
}
