package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/collector"
)

// genVersion names the generator's output format; bump it whenever a
// shape or the generation code changes so cached inputs regenerate.
const genVersion = "g1"

// archiveStart is the first instant of every generated archive.
var archiveStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// shape is one workload's archive recipe: the topology size, the
// collector deployment and how long and how busy the simulation runs.
type shape struct {
	stubs           int
	transits        int
	prefixesPerStub int
	hours           int
	churnPerHour    float64
	collectors      func(topo *astopo.Topology) []collector.Collector
	// monitoredShare is the share of distinct update prefixes the
	// workload's prefix filter (pull) and prefix subscription (live)
	// select.
	monitoredShare float64
}

// shapes holds the full-size recipes; tinyShapes the self-test ones.
var shapes = map[string]shape{
	// A few large files: a RIS and a RouteViews collector with 5
	// full-feed VPs each over ~24k prefixes, so each RIB dump holds
	// over 100k entries.
	"rib-bulk": {
		stubs: 1200, transits: 40, prefixesPerStub: 40, hours: 2, churnPerHour: 1500,
		collectors:     func(t *astopo.Topology) []collector.Collector { return fullFeedCollectors(t, 5) },
		monitoredShare: 0.04,
	},
	// Many small files: 16 RIS collectors rotating 5-minute update
	// dumps for 4 hours, which crosses two 2-hour broker pages.
	"updates-monitor": {
		stubs: 400, transits: 40, prefixesPerStub: 3, hours: 4, churnPerHour: 300,
		collectors:     func(t *astopo.Topology) []collector.Collector { return risCollectors(t, 16, 3) },
		monitoredShare: 0.04,
	},
	// The elem pool the live generator publishes from.
	"live-fanout": {
		stubs: 400, transits: 40, prefixesPerStub: 3, hours: 1, churnPerHour: 1500,
		collectors:     func(t *astopo.Topology) []collector.Collector { return collector.DefaultCollectors(t, 6) },
		monitoredShare: 0.04,
	},
}

var tinyShapes = map[string]shape{
	"rib-bulk": {
		stubs: 150, transits: 40, prefixesPerStub: 3, hours: 2, churnPerHour: 200,
		collectors:     func(t *astopo.Topology) []collector.Collector { return collector.DefaultCollectors(t, 4) },
		monitoredShare: 0.1,
	},
	"updates-monitor": {
		stubs: 150, transits: 40, prefixesPerStub: 3, hours: 3, churnPerHour: 100,
		collectors:     func(t *astopo.Topology) []collector.Collector { return risCollectors(t, 3, 2) },
		monitoredShare: 0.1,
	},
	"live-fanout": {
		stubs: 150, transits: 40, prefixesPerStub: 3, hours: 1, churnPerHour: 300,
		collectors:     func(t *astopo.Topology) []collector.Collector { return collector.DefaultCollectors(t, 4) },
		monitoredShare: 0.1,
	},
}

// risCollectors builds n RIS-style collectors (rrc00, rrc01, ...) with
// vps full-feed transit VPs each, drawn deterministically from the
// topology's transit tier.
func risCollectors(topo *astopo.Topology, n, vps int) []collector.Collector {
	transits := topo.Transits()
	out := make([]collector.Collector, 0, n)
	for i := 0; i < n; i++ {
		c := collector.Collector{
			Project:   archive.RIPERIS,
			Name:      fmt.Sprintf("rrc%02d", i),
			BGPID:     netip.AddrFrom4([4]byte{193, 0, byte(i), 1}),
			LocalAddr: netip.AddrFrom4([4]byte{193, 0, byte(i), 1}),
			LocalASN:  12654,
		}
		for j := 0; j < vps; j++ {
			asn := transits[(i*vps+j)%len(transits)]
			c.VPs = append(c.VPs, collector.VP{ASN: asn, Addr: collector.DefaultVPAddr(asn, i*vps+j), FullFeed: true})
		}
		out = append(out, c)
	}
	return out
}

// fullFeedCollectors is collector.DefaultCollectors with every VP a
// full-feed transit: one RIS and one RouteViews collector.
func fullFeedCollectors(topo *astopo.Topology, vps int) []collector.Collector {
	cs := collector.DefaultCollectors(topo, 1)
	transits := topo.Transits()
	for i := range cs {
		cs[i].VPs = nil
		for j := 0; j < vps; j++ {
			asn := transits[(i*vps+j)%len(transits)]
			cs[i].VPs = append(cs[i].VPs, collector.VP{ASN: asn, Addr: collector.DefaultVPAddr(asn, i*vps+j), FullFeed: true})
		}
	}
	return cs
}

// input is a generated archive plus the facts recorded about it.
type input struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Tiny     bool   `json:"tiny"`
	// Digest is the SHA-256 over every archive file's relative path
	// and bytes, in path order: the determinism check.
	Digest string `json:"digest"`
	Files  int    `json:"files"`
	Bytes  int64  `json:"compressed_bytes"`
	// Monitored is the seed-drawn monitored prefix set.
	Monitored []string `json:"monitored_prefixes"`
	GenSec    float64  `json:"gen_s"`

	dir string // archive root
}

func (in *input) monitored() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(in.Monitored))
	for _, s := range in.Monitored {
		out = append(out, netip.MustParsePrefix(s))
	}
	return out
}

// inputDir is where the archive for (workload, seed, scale) is cached.
func inputDir(cache, workload string, seed int64, tiny bool) string {
	scale := "full"
	if tiny {
		scale = "tiny"
	}
	return filepath.Join(cache, fmt.Sprintf("%s-%s-%s-%d", genVersion, workload, scale, seed))
}

// loadInput returns the cached input for (workload, seed), generating
// it first in a child process when absent so that generation never
// shows in the measuring process's memory or CPU figures.
func loadInput(cache, workload string, seed int64, tiny bool) (*input, error) {
	dir := inputDir(cache, workload, seed, tiny)
	if _, err := os.Stat(filepath.Join(dir, "input.json")); err != nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{"-gen", "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-cache", cache}
		if tiny {
			args = append(args, "-tiny")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("generate input: %w", err)
		}
	}
	return readInput(dir)
}

func readInput(dir string) (*input, error) {
	b, err := os.ReadFile(filepath.Join(dir, "input.json"))
	if err != nil {
		return nil, err
	}
	in := &input{}
	if err := json.Unmarshal(b, in); err != nil {
		return nil, fmt.Errorf("read %s: %w", dir, err)
	}
	in.dir = filepath.Join(dir, "archive")
	return in, nil
}

// generate writes the archive for (workload, seed) into the cache,
// atomically: it builds in a temporary directory and renames it into
// place.
func generate(cache, workload string, seed int64, tiny bool) (*input, error) {
	table := shapes
	if tiny {
		table = tinyShapes
	}
	sh, ok := table[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	final := inputDir(cache, workload, seed, tiny)
	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	t0 := time.Now()
	in, err := generateInto(tmp, sh, workload, seed)
	if err != nil {
		return nil, err
	}
	in.Tiny = tiny
	in.GenSec = time.Since(t0).Seconds()
	b, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "input.json"), b, 0o644); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(final); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, err
	}
	in.dir = filepath.Join(final, "archive")
	return in, nil
}

// generateInto runs the collector simulation for one shape into dir.
func generateInto(dir string, sh shape, workload string, seed int64) (*input, error) {
	p := astopo.DefaultParams(seed)
	p.StubCount = sh.stubs
	p.TierTwoCount = sh.transits
	p.MeanPrefixesPerStub = sh.prefixesPerStub
	topo := astopo.Generate(p)
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        sh.collectors(topo),
		ChurnFlapsPerHour: sh.churnPerHour,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	store, err := archive.NewStore(filepath.Join(dir, "archive"))
	if err != nil {
		return nil, err
	}
	if _, err := sim.GenerateArchive(store, archiveStart, archiveStart.Add(time.Duration(sh.hours)*time.Hour)); err != nil {
		return nil, err
	}
	in := &input{Workload: workload, Seed: seed, dir: store.Root}
	if err := in.digest(); err != nil {
		return nil, err
	}
	mon, err := drawMonitored(store.Root, sh.monitoredShare, seed)
	if err != nil {
		return nil, err
	}
	for _, m := range mon {
		in.Monitored = append(in.Monitored, m.String())
	}
	return in, nil
}

// digest fills Digest, Files and Bytes from the archive on disk.
func (in *input) digest() error {
	var paths []string
	err := filepath.WalkDir(in.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	h := sha256.New()
	in.Files, in.Bytes = 0, 0
	for _, p := range paths {
		rel, err := filepath.Rel(in.dir, p)
		if err != nil {
			return err
		}
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
		in.Files++
		in.Bytes += n
	}
	in.Digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// drawMonitored draws the monitored prefix set: a seed-chosen share of
// the distinct prefixes announced in the archive's update dumps, so
// that a few percent of update elems pass a filter on it whatever the
// simulator's churn pattern.
func drawMonitored(root string, share float64, seed int64) ([]netip.Prefix, error) {
	ref, err := readDirectory(root, nil)
	if err != nil {
		return nil, err
	}
	seen := make(map[netip.Prefix]bool)
	var distinct []netip.Prefix
	for _, p := range ref.updatePrefixes {
		if !seen[p] {
			seen[p] = true
			distinct = append(distinct, p)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].String() < distinct[j].String() })
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	k := int(float64(len(distinct))*share + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(distinct) {
		k = len(distinct)
	}
	return distinct[:k], nil
}
