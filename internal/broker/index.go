// Package broker implements the BGPStream Broker (§3.2): a web
// service that continuously scrapes data-provider archives, stores
// meta-data about the dump files they publish, and answers windowed
// HTTP queries from libBGPStream clients about which files match a
// set of parameters. The broker serves meta-data only — dump bytes
// are always fetched from the archives themselves — which keeps
// queries lightweight and lets the broker load-balance across mirror
// servers.
//
// The package also provides Client, the "Broker data interface" used
// by core.Stream, including the blocking poll loop that gives live
// mode its semantics: if the broker has nothing new, the client polls
// until a response points to fresh data.
package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
)

// indexEntry is one dump file plus its arrival sequence number, the
// cursor live clients use to ask "what's new since my last query".
type indexEntry struct {
	archive.DumpMeta
	Seq uint64
}

// Index is the broker's meta-data store: an ordered, deduplicated
// collection of dump-file records, optionally persisted as a JSON-line
// log so a broker restart keeps its history (the paper uses an SQL
// database; a log-structured file preserves the same query behaviour
// without leaving the standard library).
type Index struct {
	mu      sync.RWMutex
	entries []indexEntry
	byKey   map[string]int // dedup: key -> position in entries
	nextSeq uint64
	logPath string
	logFile *os.File
}

// NewIndex creates an empty in-memory index.
func NewIndex() *Index {
	return &Index{byKey: make(map[string]int), nextSeq: 1}
}

// OpenIndex creates an index persisted at path, loading any existing
// log.
func OpenIndex(path string) (*Index, error) {
	idx := NewIndex()
	idx.logPath = path
	if data, err := os.ReadFile(path); err == nil {
		dec := json.NewDecoder(bytesReader(data))
		for dec.More() {
			var m archive.DumpMeta
			if err := dec.Decode(&m); err != nil {
				return nil, fmt.Errorf("broker: corrupt index log: %w", err)
			}
			idx.add(m, false)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("broker: open index: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("broker: open index log: %w", err)
	}
	idx.logFile = f
	return idx, nil
}

// Close releases the persistence log.
func (ix *Index) Close() error {
	if ix.logFile != nil {
		return ix.logFile.Close()
	}
	return nil
}

func metaKey(m archive.DumpMeta) string {
	return m.Project + "|" + m.Collector + "|" + string(m.Type) + "|" + m.Time.UTC().Format(time.RFC3339)
}

// Add inserts new dump files, ignoring ones already indexed, and
// returns how many were new.
func (ix *Index) Add(metas ...archive.DumpMeta) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, m := range metas {
		if ix.add(m, true) {
			n++
		}
	}
	return n
}

func (ix *Index) add(m archive.DumpMeta, persist bool) bool {
	key := metaKey(m)
	if _, dup := ix.byKey[key]; dup {
		return false
	}
	e := indexEntry{DumpMeta: m, Seq: ix.nextSeq}
	ix.nextSeq++
	ix.byKey[key] = len(ix.entries)
	ix.entries = append(ix.entries, e)
	if persist && ix.logFile != nil {
		if data, err := json.Marshal(m); err == nil {
			ix.logFile.Write(append(data, '\n'))
		}
	}
	return true
}

// Len returns the number of indexed dump files.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.entries)
}

// MaxSeq returns the arrival sequence of the most recently added file.
func (ix *Index) MaxSeq() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nextSeq - 1
}

// Query selects dump files matching q, ordered by dump time, applying
// the response window: at most q.Window of data counted from the
// earliest matching dump that starts at or after q.IntervalStart. It
// returns the matching files, a flag indicating whether more data
// exists beyond the window, and the maximum arrival sequence across
// the whole index at query time.
func (ix *Index) Query(q Query) (files []archive.DumpMeta, more bool, maxSeq uint64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	maxSeq = ix.nextSeq - 1

	var matched []indexEntry
	for _, e := range ix.entries {
		if !q.matches(e) {
			continue
		}
		matched = append(matched, e)
	}
	sort.Slice(matched, func(i, j int) bool {
		a, b := matched[i], matched[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Project != b.Project {
			return a.Project < b.Project
		}
		if a.Collector != b.Collector {
			return a.Collector < b.Collector
		}
		return a.Type < b.Type
	})
	if len(matched) == 0 {
		return nil, false, maxSeq
	}
	window := q.Window
	if window <= 0 {
		window = 2 * time.Hour
	}
	// The window counts from the first dump that starts inside the
	// interval, so a page always holds at least one such dump: dumps
	// that began earlier but still overlap the interval start come
	// back too, yet cannot pin the window in place.
	first := 0
	for first < len(matched) && matched[first].Time.Before(q.IntervalStart) {
		first++
	}
	if first == len(matched) {
		return filesOf(matched), false, maxSeq
	}
	cutoff := matched[first].Time.Add(window)
	for i := first; i < len(matched); i++ {
		if !matched[i].Time.Before(cutoff) {
			return filesOf(matched[:i]), true, maxSeq
		}
	}
	return filesOf(matched), false, maxSeq
}

func filesOf(es []indexEntry) []archive.DumpMeta {
	out := make([]archive.DumpMeta, len(es))
	for i, e := range es {
		out[i] = e.DumpMeta
	}
	return out
}

// Query describes one broker data query.
type Query struct {
	Projects   []string
	Collectors []string
	Types      []archive.DumpType
	// IntervalStart/IntervalEnd select dumps whose covered interval
	// intersects [start, end]; a zero end is unbounded.
	IntervalStart time.Time
	IntervalEnd   time.Time
	// AddedAfter selects only dumps indexed after the given arrival
	// sequence — the live-mode cursor.
	AddedAfter uint64
	// Window bounds the span of data returned (overload protection).
	Window time.Duration
}

func (q Query) matches(e indexEntry) bool {
	if q.AddedAfter > 0 && e.Seq <= q.AddedAfter {
		return false
	}
	if len(q.Projects) > 0 && !member(q.Projects, e.Project) {
		return false
	}
	if len(q.Collectors) > 0 && !member(q.Collectors, e.Collector) {
		return false
	}
	if len(q.Types) > 0 {
		ok := false
		for _, t := range q.Types {
			if t == e.Type {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	end := e.Time.Add(e.Duration)
	if !q.IntervalStart.IsZero() && end.Before(q.IntervalStart) {
		return false
	}
	if !q.IntervalEnd.IsZero() && e.Time.After(q.IntervalEnd) {
		return false
	}
	return true
}

func member(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }
