package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one request of a generated stream.
type op struct {
	line    string
	write   bool
	extends bool     // a write that adds answers to the subscribed view
	want    uint64   // reads: answerHash sum of the expected answers
	wantN   int      // reads: expected answer count (-1: checked later)
	fact    []string // writes: the fact's predicate and arguments
}

// result is one request as the client saw it.
type result struct {
	due  time.Time // open loop: the schedule slot; closed loop: the send
	sent time.Time
	rp   reply
	err  error
}

func (r result) latency() time.Duration { return r.rp.at.Sub(r.due) }

// openLoop sends ops at a fixed rate regardless of responses, spreading
// them round-robin over conns (the server answers each connection's
// requests in order, so pipelining is safe). One goroutine sends; one
// per connection reads. Latency runs from each request's due time, so a
// stall is charged to every request it delays.
func openLoop(conns []*client, ops []op, rate float64) []result {
	res := make([]result, len(ops))
	interval := time.Duration(float64(time.Second) / rate)
	pend := make([]chan int, len(conns))
	var wg sync.WaitGroup
	for k, c := range conns {
		pend[k] = make(chan int, len(ops)) // sized to the sends: the sender never blocks on it
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pend[k] {
				if res[i].err == nil {
					res[i].rp, res[i].err = c.readReply()
				}
			}
		}()
	}
	start := time.Now().Add(interval)
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		k := i % len(conns)
		res[i].due, res[i].sent = due, time.Now()
		res[i].err = conns[k].send(ops[i].line)
		pend[k] <- i
	}
	for _, p := range pend {
		close(p)
	}
	wg.Wait()
	return res
}

// sleepUntil blocks until t. A nanosleep system call wakes within tens of
// microseconds, where the runtime timer can oversleep by a millisecond;
// the open-loop schedule needs the former.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// stream hands out a generated op sequence by index, generating ops only
// as they are taken (a model advances as it generates writes), so
// concurrent closed-loop clients see the same sequence whatever their
// interleaving.
type stream struct {
	mu  sync.Mutex
	ops []op
	gen func(n int) []op
}

func (s *stream) at(i int) op {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.gen(i+1-len(s.ops))...)
	}
	return s.ops[i]
}

// closedLoop runs one goroutine per connection, each sending its next op
// only after the previous reply, until d has passed. Ops are taken in
// stream order from a shared counter; it returns the ops taken and their
// results.
func closedLoop(conns []*client, s *stream, d time.Duration) ([]op, []result) {
	var mu sync.Mutex
	res := make(map[int]result)
	var next atomic.Int64
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				o := s.at(i)
				var r result
				r.sent = time.Now()
				r.due = r.sent
				if r.err = c.send(o.line); r.err == nil {
					r.rp, r.err = c.readReply()
				}
				mu.Lock()
				res[i] = r
				mu.Unlock()
				if r.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	ops := make([]op, len(res))
	out := make([]result, len(res))
	for i := range out {
		ops[i], out[i] = s.at(i), res[i]
	}
	return ops, out
}

// tally counts attempted and failed operations and keeps the first few
// failure descriptions.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// check verifies every result against its op's expectation: reads must
// match the expected answer multiset, writes must be acknowledged as new
// facts. Reads with wantN < 0 are left to the caller.
func (t *tally) check(ops []op, res []result) {
	for i, r := range res {
		o := ops[i]
		t.attempted++
		switch {
		case r.err != nil:
			t.fail("%q: %v", o.line, r.err)
		case r.rp.kind == 'E':
			t.fail("%q: server error %s", o.line, r.rp.msg)
		case o.write && (r.rp.kind != '+' || r.rp.n != 1):
			t.fail("%q: want a new-fact ack, got kind %c a=%d", o.line, r.rp.kind, r.rp.n)
		case !o.write && r.rp.kind != '.':
			t.fail("%q: want answers, got kind %c", o.line, r.rp.kind)
		case !o.write && o.wantN >= 0 && (r.rp.n != o.wantN || r.rp.sum != o.want):
			t.fail("%q: %d answers (digest %x), want %d (digest %x)", o.line, r.rp.n, r.rp.sum, o.wantN, o.want)
		}
	}
}

// subscriber holds one connection dedicated to a live subscription and
// collects every frame the server streams on it.
type subscriber struct {
	c      *client
	first  frame
	mu     sync.Mutex
	frames []frame
	err    error
	done   chan struct{}
}

// subscribe opens the view, reads the initial frame, and starts the frame
// reader; stop ends it.
func subscribe(c *client, query string) (*subscriber, error) {
	if err := c.send("subscribe " + query); err != nil {
		return nil, err
	}
	first, err := c.readFrame()
	if err != nil {
		return nil, fmt.Errorf("subscribe %s: %w", query, err)
	}
	s := &subscriber{c: c, first: first, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			f, err := c.readFrame()
			s.mu.Lock()
			if err != nil {
				s.err = err
				s.mu.Unlock()
				return
			}
			s.frames = append(s.frames, f)
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// lastVersion is the version of the newest frame received.
func (s *subscriber) lastVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) == 0 {
		return s.first.ver
	}
	return s.frames[len(s.frames)-1].ver
}

// stop waits (up to wait) for a frame covering version v, then quits the
// subscription and waits for the reader to see the connection close.
func (s *subscriber) stop(v uint64, wait time.Duration) []frame {
	for deadline := time.Now().Add(wait); s.lastVersion() < v && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.c.send("quit")
	<-s.done
	s.c.close()
	return s.frames
}

// deltaLatencies matches each acknowledged write that extends the view to
// the first frame covering its version, timing from the write's due time.
// Writes no frame covers are returned as missed.
func deltaLatencies(ops []op, res []result, frames []frame) (lat []time.Duration, missed []string) {
	for i, o := range ops[:len(res)] {
		r := res[i]
		if !o.extends || r.err != nil || r.rp.kind != '+' {
			continue
		}
		k := sort.Search(len(frames), func(j int) bool { return frames[j].ver >= r.rp.ver })
		if k == len(frames) {
			missed = append(missed, o.line)
			continue
		}
		lat = append(lat, frames[k].at.Sub(r.due))
	}
	return lat, missed
}

// frameUnion is the set of answers over the initial frame and every delta.
func frameUnion(first frame, frames []frame) map[string]bool {
	u := make(map[string]bool)
	for _, a := range first.answers {
		u[a] = true
	}
	for _, f := range frames {
		for _, a := range f.answers {
			u[a] = true
		}
	}
	return u
}

// sameSet reports whether the union holds exactly want.
func sameSet(u map[string]bool, want []string) error {
	missing := 0
	for _, w := range want {
		if !u[w] {
			missing++
		}
	}
	if missing > 0 || len(u) != len(want) {
		return fmt.Errorf("subscription frames hold %d answers, oracle %d (%d oracle answers missing)", len(u), len(want), missing)
	}
	return nil
}

var errNoSamples = errors.New("no samples")

// quantile is the nearest-rank q-quantile of ds in milliseconds.
func quantile(ds []time.Duration, q float64) (float64, error) {
	if len(ds) == 0 {
		return 0, errNoSamples
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(q*float64(len(s))+0.5) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / 1e6, nil
}

// latencies collects the latencies of the successful results whose op
// matches pick.
func latencies(ops []op, res []result, pick func(op) bool) []time.Duration {
	var out []time.Duration
	for i, r := range res {
		if r.err == nil && r.rp.kind != 'E' && pick(ops[i]) {
			out = append(out, r.latency())
		}
	}
	return out
}

func isRead(o op) bool  { return !o.write }
func isWrite(o op) bool { return o.write }

// genLag is how late the open-loop sender ran, per request.
func genLag(res []result) []time.Duration {
	out := make([]time.Duration, len(res))
	for i, r := range res {
		out[i] = r.sent.Sub(r.due)
	}
	return out
}

// queryBody strips the "?- " prefix and the final period of a query line.
func queryBody(line string) string {
	return strings.TrimSuffix(strings.TrimPrefix(line, "?- "), ".")
}
