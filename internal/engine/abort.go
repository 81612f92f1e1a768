package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/msg"
)

// Typed evaluation failures. Before these existed, a dead site or a stuck
// query left every process blocked in Mailbox.Get forever; now the engine
// detects the condition, broadcasts msg.Abort so all sites drain and exit,
// and Run/RunSites return one of these (test with errors.Is).
var (
	// ErrSiteDown: a peer site was declared unreachable by the transport
	// (heartbeat loss followed by a failed reconnect window, or an
	// injected FaultNet crash).
	ErrSiteDown = errors.New("engine: site down")
	// ErrDeadline: the deadline of Options.Context passed. The returned
	// error also satisfies errors.Is(err, context.DeadlineExceeded).
	ErrDeadline = errors.New("engine: deadline exceeded")
	// ErrCancelled: Options.Context was cancelled. The returned error also
	// satisfies errors.Is(err, context.Canceled).
	ErrCancelled = errors.New("engine: evaluation cancelled")
	// ErrNodePanic: a node process panicked; the error note carries the
	// node and stack trace instead of the panic killing the whole site.
	ErrNodePanic = errors.New("engine: node process panicked")
	// ErrAborted: the query was aborted for an unrecognized reason (an
	// Abort message from a newer/older site, normally impossible).
	ErrAborted = errors.New("engine: evaluation aborted")
)

// abortReasonError maps a msg.Abort reason code to the typed error. The
// two context-caused reasons wrap the context sentinel as well, so every
// site — not just the one whose context ended — reports both taxonomies.
func abortReasonError(reason uint8, note string) error {
	var base error
	switch reason {
	case msg.AbortSiteDown:
		base = ErrSiteDown
	case msg.AbortDeadline:
		base = fmt.Errorf("%w (%w)", ErrDeadline, context.DeadlineExceeded)
	case msg.AbortPanic:
		base = ErrNodePanic
	case msg.AbortCancelled:
		base = fmt.Errorf("%w (%w)", ErrCancelled, context.Canceled)
	default:
		base = ErrAborted
	}
	if note == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, note)
}

// abort aborts the evaluation exactly once per runner: it records the
// typed error, counts the abort, and broadcasts msg.Abort to every node
// process and the driver. Local deliveries happen synchronously (a mailbox
// Put cannot block), remote ones in the background (a send to an already-
// dead site may wait out a dial window; it must not delay local
// shutdown). Every site that observes an Abort relays it once through this
// same path, so a partially delivered broadcast still reaches every
// process whose site is alive — and the per-site once-guard bounds the
// echo at sites × nodes messages.
func (rt *runner) abort(reason uint8, note string) {
	rt.abortMu.Lock()
	if rt.abortErr != nil || rt.abortOff {
		rt.abortMu.Unlock()
		return
	}
	rt.abortErr = abortReasonError(reason, note)
	rt.abortMu.Unlock()
	rt.stats.Abort()

	// The broadcast's From must be a node hosted on THIS site: fault
	// injection (and tracing) attributes a message to its sender's site, and
	// a site aborting itself must not have its own local Aborts classified
	// as cross-site traffic (which a cut link would swallow, resurrecting
	// the hang this mechanism exists to prevent).
	origin := rt.driver
	if rt.hosts != nil {
		for id := 0; id <= rt.driver; id++ {
			if rt.hosts[id] == rt.site {
				origin = id
				break
			}
		}
	}
	var remote []int
	for id := 0; id <= rt.driver; id++ {
		if rt.hosts == nil || rt.hosts[id] == rt.site {
			rt.send(msg.Message{Kind: msg.Abort, From: origin, To: id, Reason: reason, Note: note})
		} else {
			remote = append(remote, id)
		}
	}
	if len(remote) > 0 {
		go func() {
			// One Abort per remote *site* would suffice for detection, but
			// per-node delivery lets every remote process exit without its
			// site relaying; sends to dead sites drop fast after the first.
			for _, id := range remote {
				rt.send(msg.Message{Kind: msg.Abort, From: origin, To: id, Reason: reason, Note: note})
			}
		}()
	}
}

// ctxReason maps a context's Err to the abort reason it causes.
func ctxReason(err error) uint8 {
	if errors.Is(err, context.DeadlineExceeded) {
		return msg.AbortDeadline
	}
	return msg.AbortCancelled
}

// ContextError is the error an evaluation returns when its context ended
// with err (ctx.Err()), for callers that observe the context outside a
// run — a subscription waiting for its next mutation, say — and must
// report it exactly as an aborted run would.
func ContextError(err error) error { return abortReasonError(ctxReason(err), "") }

// abortError returns the recorded abort error, nil if the evaluation was
// not aborted.
func (rt *runner) abortError() error {
	rt.abortMu.Lock()
	defer rt.abortMu.Unlock()
	return rt.abortErr
}

// startWatch arms the failure watchdog for this site: it aborts the
// evaluation when Options.Context ends (AbortDeadline or AbortCancelled,
// after ctx.Err()) or the transport reports a peer site down. The returned
// stop function disarms it on normal completion. The context costs no
// goroutine per evaluation (experiment A4): context.AfterFunc registers a
// callback that runs only if the context ends. Only PeerDown needs a
// watcher goroutine, and stop does not wait for it to exit; it latches
// abortOff first, so a watchdog firing after completion is a recorded
// no-op that unwinds in the background.
func (rt *runner) startWatch(opts Options) (stop func()) {
	var stopCtx func() bool
	if ctx := opts.Context; ctx != nil && ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			// Already ended: abort before any process runs, so the outcome
			// does not race a fast evaluation.
			rt.abort(ctxReason(err), "")
		} else {
			stopCtx = context.AfterFunc(ctx, func() { rt.abort(ctxReason(ctx.Err()), "") })
		}
	}
	var stopCh chan struct{}
	if opts.PeerDown != nil {
		stopCh = make(chan struct{})
		go func() {
			select {
			case <-stopCh:
			case pd, ok := <-opts.PeerDown:
				if ok { // closed without an event: nothing left to watch
					rt.abort(msg.AbortSiteDown, fmt.Sprintf("site %d: %v", pd.Site, pd.Err))
				}
			}
		}()
	}
	if stopCtx == nil && stopCh == nil {
		return func() {}
	}
	return func() {
		rt.abortMu.Lock()
		rt.abortOff = true
		rt.abortMu.Unlock()
		if stopCtx != nil {
			stopCtx()
		}
		if stopCh != nil {
			close(stopCh)
		}
	}
}
