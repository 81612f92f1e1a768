package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"strconv"
	"strings"
	"time"
)

// ioTimeout bounds every wire read and write, so a stalled server fails
// the run instead of hanging it.
const ioTimeout = 60 * time.Second

// client is one line-protocol connection to the server under test.
type client struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func dial(addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &client{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriter(nc)}, nil
}

func (c *client) close() { c.nc.Close() }

// send writes one request line and flushes it.
func (c *client) send(line string) error {
	c.nc.SetWriteDeadline(time.Now().Add(ioTimeout))
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	return c.w.Flush()
}

// reply is one parsed response: a query's T lines and its terminal line,
// a fact's "+" ack, or an "E" error.
type reply struct {
	kind byte   // '.', '+' or 'E'
	n    int    // T lines of a query; the a= field of an ack
	sum  uint64 // answerHash over the T lines
	ver  uint64 // v= of an ack
	msg  string // text of an E line
	at   time.Time
}

// answerHash is an order-independent digest of one answer line's text
// (the part after "T "); a response's digest is the sum over its lines,
// so two answer multisets agree iff (with overwhelming probability) their
// sums and counts agree, whatever order the server streamed them in.
func answerHash(text []byte) uint64 {
	h := fnv.New64a()
	h.Write(text)
	x := h.Sum64()
	// splitmix64 finalizer: spreads FNV's low-entropy high bits so sums of
	// short similar strings do not collide.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// tupleHash digests an expected answer tuple exactly as the server
// renders it on a T line.
func tupleHash(tuple ...string) uint64 { return answerHash([]byte(strings.Join(tuple, "\t"))) }

// readLine returns the next line without its newline.
func (c *client) readLine() ([]byte, error) {
	c.nc.SetReadDeadline(time.Now().Add(ioTimeout))
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// answerText returns the tuple text of a T line, or ok=false.
func answerText(line []byte) ([]byte, bool) {
	if len(line) == 0 || line[0] != 'T' {
		return nil, false
	}
	return bytes.TrimPrefix(line[1:], []byte(" ")), true
}

// readReply reads one complete response.
func (c *client) readReply() (reply, error) {
	var rp reply
	for {
		line, err := c.readLine()
		if err != nil {
			return rp, err
		}
		if text, ok := answerText(line); ok {
			rp.sum += answerHash(text)
			rp.n++
			continue
		}
		rp.at = time.Now()
		if len(line) < 2 {
			return rp, fmt.Errorf("malformed response line %q", line)
		}
		rp.kind = line[0]
		rest := string(line[2:])
		switch rp.kind {
		case '.':
			n, _, _ := strings.Cut(rest, " ")
			if m, err := strconv.Atoi(n); err != nil || m != rp.n {
				return rp, fmt.Errorf("terminal line %q after %d answers", line, rp.n)
			}
		case '+':
			if _, err := fmt.Sscanf(rest, "%d v=%d", &rp.n, &rp.ver); err != nil {
				return rp, fmt.Errorf("malformed ack %q", line)
			}
		case 'E':
			rp.msg = rest
		default:
			return rp, fmt.Errorf("malformed response line %q", line)
		}
		return rp, nil
	}
}

// frame is one subscription round as the subscriber saw it.
type frame struct {
	ver     uint64
	at      time.Time
	answers []string
}

// readFrame reads T lines up to and including a "~ <n> v=<version>" line.
func (c *client) readFrame() (frame, error) {
	var f frame
	for {
		line, err := c.readLine()
		if err != nil {
			return f, err
		}
		if text, ok := answerText(line); ok {
			f.answers = append(f.answers, string(text))
			continue
		}
		f.at = time.Now()
		var n int
		if _, err := fmt.Sscanf(string(line), "~ %d v=%d", &n, &f.ver); err != nil {
			return f, fmt.Errorf("subscription: unexpected line %q", line)
		}
		if n != len(f.answers) {
			return f, fmt.Errorf("subscription frame %q after %d answers", line, len(f.answers))
		}
		return f, nil
	}
}
