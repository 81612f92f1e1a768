package main

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/bottomup"
	"repro/internal/edb"
	"repro/internal/magic"
	"repro/internal/parser"
)

// oracle answers point queries bottom-up: the program's rules plus a goal
// rule for the query, magic-rewritten (the rewrite keeps the evaluation
// to the query's relevant part, as the full models of transitive closure
// and same-generation here run to millions of tuples) and evaluated by
// bottomup.SemiNaive over the generated facts. Answers are rendered as
// the server renders T lines.
type oracle struct {
	rules string
	db    *edb.Database
}

// newOracle loads facts into a private database. rules must not define
// goal.
func newOracle(rules string, facts []ast.Atom) *oracle {
	db := edb.New()
	for _, f := range facts {
		db.AddFact(f)
	}
	return &oracle{rules: rules, db: db}
}

// answers evaluates the query line ("?- body.") with one output column.
func (o *oracle) answers(query string) ([]string, error) {
	prog, err := parser.Parse(o.rules + "goal(Y) :- " + queryBody(query) + ".")
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	rw, err := magic.Rewrite(prog, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// The rewrite's only fact is the magic seed, the same for every query.
	for _, f := range rw.Program.Facts {
		o.db.AddFact(f)
	}
	res := bottomup.SemiNaive(rw.Program, o.db)
	out := make([]string, 0, res.Goal.Len())
	for _, row := range res.Goal.Rows() {
		parts := make([]string, len(row))
		for i, s := range row {
			parts[i] = o.db.Syms.String(s)
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	return out, nil
}

// resolve fills in the expected answers of ops the generator could not
// predict (wantN < 0).
func (o *oracle) resolve(ops []op) error {
	for i := range ops {
		if ops[i].wantN >= 0 || ops[i].write {
			continue
		}
		a, err := o.answers(ops[i].line)
		if err != nil {
			return err
		}
		ops[i].want, ops[i].wantN = hashAll(a), len(a)
	}
	return nil
}

// stripGoal removes the goal rule from a rule text.
func stripGoal(rules string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(rules, "\n") {
		if !strings.HasPrefix(line, "goal(") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// addFacts extends the oracle's EDB with the facts of write ops.
func (o *oracle) addFacts(ops []op) {
	for _, w := range ops {
		a := ast.Atom{Pred: w.fact[0]}
		for _, v := range w.fact[1:] {
			a.Args = append(a.Args, ast.C(v))
		}
		o.db.AddFact(a)
	}
}
