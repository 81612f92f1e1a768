package mpq

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// ended returns a context that has already ended the given way: cancelled
// or past its deadline.
func ended(t *testing.T, deadline bool) context.Context {
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline {
		ctx, cancel = context.WithTimeout(context.Background(), -time.Second)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
		cancel()
	}
	t.Cleanup(cancel)
	return ctx
}

// checkTaxonomy fails unless err satisfies errors.Is for both the engine
// sentinel and the context sentinel of the way the context ended.
func checkTaxonomy(t *testing.T, what string, err error, deadline bool) {
	t.Helper()
	engineErr, ctxErr := engine.ErrCancelled, context.Canceled
	if deadline {
		engineErr, ctxErr = engine.ErrDeadline, context.DeadlineExceeded
	}
	if !errors.Is(err, engineErr) || !errors.Is(err, ctxErr) {
		t.Errorf("%s: err = %v, want %v and %v", what, err, engineErr, ctxErr)
	}
}

// lastErr drains an answer iterator and returns the error it ended with.
func lastErr(seq iter.Seq2[[]string, error]) error {
	var last error
	for _, err := range seq {
		last = err
	}
	return last
}

// TestContextTaxonomyEveryEntryPoint: every public entry point that
// evaluates under a context reports a cancelled or expired context with
// both sentinels.
func TestContextTaxonomyEveryEntryPoint(t *testing.T) {
	sys := MustLoad(prepBase)
	pq, err := sys.Prepare("?- path(a, Y).")
	if err != nil {
		t.Fatal(err)
	}
	for _, deadline := range []bool{false, true} {
		t.Run(fmt.Sprintf("deadline=%v", deadline), func(t *testing.T) {
			_, err := sys.Eval(WithContext(ended(t, deadline)))
			checkTaxonomy(t, "Eval(WithContext)", err, deadline)
			checkTaxonomy(t, "Answers(WithContext)", lastErr(sys.Answers(WithContext(ended(t, deadline)))), deadline)
			_, err = sys.Query(ended(t, deadline), "?- path(a, Y).")
			checkTaxonomy(t, "Query", err, deadline)
			_, err = pq.Eval(ended(t, deadline))
			checkTaxonomy(t, "PreparedQuery.Eval", err, deadline)
			checkTaxonomy(t, "PreparedQuery.Answers", lastErr(pq.Answers(ended(t, deadline))), deadline)
			sub, err := pq.Subscription()
			if err != nil {
				t.Fatal(err)
			}
			_, err = sub.Next(ended(t, deadline))
			checkTaxonomy(t, "Subscription.Next", err, deadline)
		})
	}
}

// checkBroken asserts a failed Subscription stays failed: even with a
// relevant mutation pending and a live context, Next returns
// ErrIncrementalBroken at once instead of running or waiting.
func checkBroken(t *testing.T, sys *System, sub *Subscription) {
	t.Helper()
	sys.AddFact("edge", "d", "e")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, engine.ErrIncrementalBroken) {
		t.Errorf("Next after failure = %v, want ErrIncrementalBroken", err)
	}
}

// TestSubscriptionNextContextEndsWhileWaiting: a context that ends while
// Next is blocked waiting for a mutation fails Next with both sentinels
// and breaks the Subscription.
func TestSubscriptionNextContextEndsWhileWaiting(t *testing.T) {
	for _, deadline := range []bool{false, true} {
		t.Run(fmt.Sprintf("deadline=%v", deadline), func(t *testing.T) {
			sys := MustLoad(prepBase)
			pq, err := sys.Prepare("?- path(a, Y).")
			if err != nil {
				t.Fatal(err)
			}
			sub, err := pq.Subscription()
			if err != nil {
				t.Fatal(err)
			}
			subNext(t, sub) // the initial round; nothing pending after it
			var ctx context.Context
			var cancel context.CancelFunc
			if deadline {
				ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
			} else {
				ctx, cancel = context.WithCancel(context.Background())
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			defer cancel()
			_, err = sub.Next(ctx)
			checkTaxonomy(t, "Next while waiting", err, deadline)
			checkBroken(t, sys, sub)
		})
	}
}

// TestSubscriptionNextCancelledDuringDeltaRound: cancelling the context
// while a delta round is running aborts the round, fails Next with both
// sentinels, and breaks the Subscription.
func TestSubscriptionNextCancelledDuringDeltaRound(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&src, "edge(n%d, n%d).\n", i, i+1)
	}
	src.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, U), edge(U, Y).\ngoal(Y) :- path(n0, Y).\n")
	sys := MustLoad(src.String())
	// Every EDB retrieval sleeps, so the delta round below is still in
	// flight when the cancel lands.
	var stats trace.Stats
	pq, err := sys.Prepare("?- path(n0, Y).", WithEDBDelay(20*time.Millisecond), WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pq.Subscription()
	if err != nil {
		t.Fatal(err)
	}
	subNext(t, sub)
	sys.AddFact("edge", "n10", "n11")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for stats.Snapshot().DeltaRounds == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel() // the delta round has started
	}()
	_, err = sub.Next(ctx)
	checkTaxonomy(t, "Next during a delta round", err, false)
	checkBroken(t, sys, sub)
}
