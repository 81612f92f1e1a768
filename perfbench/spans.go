package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/relation"
)

// span is one timed call into a layer, made or observed by the
// benchmark. Times are nanoseconds since the run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory span log; later spans are counted and
// dropped.
const maxSpans = 1 << 21

// spanLog keeps spans in memory until the run ends. The traced phases
// run one operation at a time, so "the current request" and "the current
// parent span" are single values that the code starting an operation sets
// and callbacks from inside the program read.
type spanLog struct {
	epoch   time.Time
	ids     atomic.Uint64
	req     atomic.Uint64 // request id of the operation in flight (0: none)
	parent  atomic.Uint64 // span layer calls made now belong under
	reserve atomic.Uint64 // id reserved for the server's span of the request

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

// add records a span and returns its id (id 0 allocates one).
func (l *spanLog) add(id, parent, req uint64, name string, start, end time.Time) uint64 {
	if id == 0 {
		id = l.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
	return id
}

// enter makes req and parent current; leave clears them.
func (l *spanLog) enter(req, parent uint64) { l.req.Store(req); l.parent.Store(parent) }
func (l *spanLog) leave()                   { l.enter(0, 0) }

// timed runs f as a span under the current request and returns its
// duration; layer calls f makes are recorded as the span's children.
func (l *spanLog) timed(name string, f func()) time.Duration {
	req, parent := l.req.Load(), l.parent.Load()
	id := l.newID()
	l.parent.Store(id)
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.parent.Store(parent)
	l.add(id, parent, req, name, t0, t1)
	return t1.Sub(t0)
}

// selfTimes is each span's duration minus the time its children cover,
// summed by span name over the spans pick accepts.
func (l *spanLog) selfTimes(pick func(span) bool) map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[uint64]time.Duration)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		if pick(s) {
			out[s.Name] += max(0, s.dur()-child[s.ID])
		}
	}
	return out
}

// all returns a copy of the recorded spans.
func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if l.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: span log full, %d spans dropped\n", l.dropped)
	}
	return path, f.Close()
}

// timedStore is an edb.Storage decorator that records every scan and
// insert as a span under the current request. A scan's rows are read
// completely before any is handed on, so the span covers storage work
// only, not the engine's handling of the rows. Wrapping hides the
// backends' Materialize and Contains fast paths, which makes the traced
// run slower; harness.trace_overhead_x shows by how much.
type timedStore struct {
	edb.Storage
	log *spanLog

	mu      sync.Mutex
	scans   int
	rows    int
	busy    time.Duration
	inserts []time.Duration
}

func (s *timedStore) scanned(t0, t1 time.Time, rows int) {
	s.log.add(0, s.log.parent.Load(), s.log.req.Load(), "edb.scan", t0, t1)
	s.mu.Lock()
	s.scans++
	s.rows += rows
	s.busy += t1.Sub(t0)
	s.mu.Unlock()
}

func (s *timedStore) replay(scan iter.Seq[relation.Tuple]) iter.Seq[relation.Tuple] {
	return func(yield func(relation.Tuple) bool) {
		t0 := time.Now()
		var rows []relation.Tuple
		for t := range scan {
			rows = append(rows, t)
		}
		s.scanned(t0, time.Now(), len(rows))
		for _, t := range rows {
			if !yield(t) {
				return
			}
		}
	}
}

func (s *timedStore) Scan(key ast.PredKey, b relation.Binding) iter.Seq[relation.Tuple] {
	return s.replay(s.Storage.Scan(key, b))
}

func (s *timedStore) ScanSince(key ast.PredKey, from int) iter.Seq[relation.Tuple] {
	return s.replay(s.Storage.ScanSince(key, from))
}

func (s *timedStore) Insert(key ast.PredKey, t relation.Tuple) bool {
	t0 := time.Now()
	ok := s.Storage.Insert(key, t)
	t1 := time.Now()
	s.log.add(0, s.log.parent.Load(), s.log.req.Load(), "edb.insert", t0, t1)
	s.mu.Lock()
	s.inserts = append(s.inserts, t1.Sub(t0))
	s.mu.Unlock()
	return ok
}

// counters returns and resets the scan counters.
func (s *timedStore) counters() (scans, rows int, busy time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	scans, rows, busy = s.scans, s.rows, s.busy
	s.scans, s.rows, s.busy = 0, 0, 0
	return
}
