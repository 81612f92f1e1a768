package engine

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestGoldenMessageCounts pins the message counters of three fixed
// programs, so a change to how messages are represented (one tuple kind
// carrying Count rows, say) cannot silently shift the counts the E
// experiments, the Prometheus series and the benchmark report. Only
// counters that repeat exactly across schedules are pinned: unbatched, the
// per-kind counts (minus End on the random TC, where the number of
// watermark advances depends on the schedule); batched, the row totals
// (how rows pack into messages depends on mailbox timing). Protocol rounds
// are schedule-dependent everywhere and left out.
func TestGoldenMessageCounts(t *testing.T) {
	const noPin = -1
	type counts struct {
		relReqs, tupReqs, tupReqRows, tuples, batches, rows, ends, reqEnds int64
	}
	for _, tc := range []struct {
		name    string
		prog    *ast.Program
		answers int
		off     counts // Batch off
		onRows  [2]int64
	}{
		{"P1", parser.MustParse(p1data), 2,
			counts{18, 11, 11, 24, 0, 24, 11, 1}, [2]int64{11, 24}},
		{"E7 chain n=10", workload.Program(workload.TCRules, workload.Chain("edge", 10)), 9,
			counts{9, 9, 9, 63, 0, 63, 14, 1}, [2]int64{9, 63}},
		{"TC random 24x96", workload.Program(workload.TCRules,
			workload.Random("edge", 24, 96, rand.New(rand.NewSource(11)))), 24,
			counts{9, 24, 24, 240, 0, 240, noPin, 1}, [2]int64{24, 240}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := rgg.Build(tc.prog, rgg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			run := func(batch bool) trace.Snapshot {
				res, err := Run(g, edb.FromProgram(tc.prog), Options{Batch: batch})
				if err != nil {
					t.Fatal(err)
				}
				if res.Answers.Len() != tc.answers {
					t.Fatalf("batch=%v: %d answers, want %d", batch, res.Answers.Len(), tc.answers)
				}
				return res.Stats
			}
			check := func(what string, got, want int64) {
				t.Helper()
				if want != noPin && got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
			s := run(false)
			check("RelReqs", s.RelReqs, tc.off.relReqs)
			check("TupReqs", s.TupReqs, tc.off.tupReqs)
			check("TupReqRows", s.TupReqRows, tc.off.tupReqRows)
			check("Tuples", s.Tuples, tc.off.tuples)
			check("TupleBatches", s.TupleBatches, tc.off.batches)
			check("TupleRows", s.TupleRows, tc.off.rows)
			check("Ends", s.Ends, tc.off.ends)
			check("ReqEnds", s.ReqEnds, tc.off.reqEnds)
			s = run(true)
			check("batched TupReqRows", s.TupReqRows, tc.onRows[0])
			check("batched TupleRows", s.TupleRows, tc.onRows[1])
		})
	}
}
