package transport

import (
	"time"

	"repro/internal/trace"
)

// Config tunes the failure-handling behavior of the TCP transport: how long
// to keep (re)dialing an unreachable peer, how often to exchange liveness
// heartbeats, and how reconnect attempts back off. The zero value selects
// the defaults below.
type Config struct {
	// DialTimeout is the total window for establishing (or re-establishing)
	// a connection to one peer site, across all backoff retries. When it
	// expires the peer is declared down: subsequent sends drop fast and a
	// PeerDown event is emitted. Default 10s.
	DialTimeout time.Duration
	// HeartbeatInterval is the period of liveness frames on each site-pair
	// connection (both directions: the dialer pings, the acceptor echoes,
	// carrying the cumulative delivery acknowledgement that bounds the
	// sender's replay buffer). Zero or negative selects the default
	// (500ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a connection may stay *silent* before
	// it is considered dead and a reconnect is attempted. The deadline
	// slides forward on every successful read, so a large frame streaming
	// slowly does not trip it while bytes keep arriving. Default
	// 4×HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// BaseBackoff is the first reconnect delay; each retry doubles it (plus
	// jitter) up to MaxBackoff. Default 20ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential reconnect delay. Default 1s.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter so tests can
	// reproduce schedules; 0 uses a fixed default seed.
	JitterSeed int64
	// Stats, when non-nil, receives transport counters (heartbeats sent,
	// reconnects, peers declared down, dropped sends). mpqd serves the
	// same Stats as Prometheus text on -metrics (via
	// internal/trace/export.WritePrometheus); doc/OBSERVABILITY.md maps
	// each counter to its paper concept.
	Stats *trace.Stats
	// Logf, when non-nil, receives one line per notable failure event
	// (peer down, reconnect, per-peer drop totals at shutdown).
	Logf func(format string, args ...any)
}

// DefaultConfig returns the default failure-handling parameters.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 20 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.Stats == nil {
		c.Stats = &trace.Stats{}
	}
	return c
}

// PeerDown reports that a peer site was declared unreachable: dialing it
// failed for the full DialTimeout window (including reconnect attempts
// after a heartbeat or write failure). Delivered on TCP.Down and
// FaultNet.Down; the engine aborts the query with ErrSiteDown when it
// receives one (see engine.Options.PeerDown).
type PeerDown struct {
	Site int
	Err  error
}
