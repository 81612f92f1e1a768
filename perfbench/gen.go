package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/workload"
)

// Each model generates one workload's EDB from the seed, renders it as
// program source, and generates the request stream together with the
// answers the generator itself implies. Models advance as they generate
// writes, so ops must be generated in the order they are sent.

const (
	ancRules = `anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
goal(Y) :- anc(c0, Y).
`
	mixRules = `path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, U), edge(U, Y).
t(X, Y) :- link(X, Y).
t(X, Y) :- t(X, U), t(U, Y).
sg(X, Y) :- par(X, P), par(Y, P).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
goal(Y) :- path(n0, Y).
`
	pathRules = `path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, U), edge(U, Y).
goal(Y) :- path(n0, Y).
`
)

// programText renders rules followed by facts in source syntax.
func programText(rules string, facts ...[]ast.Atom) string {
	var b strings.Builder
	b.WriteString(rules)
	for _, fs := range facts {
		for _, f := range fs {
			b.WriteString(f.String())
			b.WriteString(".\n")
		}
	}
	return b.String()
}

func hashAll(answers []string) (sum uint64) {
	for _, a := range answers {
		sum += tupleHash(a)
	}
	return sum
}

func readOp(query string, answers []string) op {
	return op{line: query, want: hashAll(answers), wantN: len(answers)}
}

// fanWriter generates "fact" writes that each give a hub node the view
// already reaches one more fresh successor: every write adds exactly one
// answer to the view and leaves the engine a constant amount of new work.
type fanWriter struct {
	pred   string
	hub    string
	prefix string
	added  []string
}

func (e *fanWriter) next() op {
	node := fmt.Sprintf("%s%d", e.prefix, len(e.added)+1)
	e.added = append(e.added, node)
	return op{line: fmt.Sprintf("fact %s(%s, %s).", e.pred, e.hub, node), write: true, extends: true,
		fact: []string{e.pred, e.hub, node}}
}

func (e *fanWriter) writes(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = e.next()
	}
	return ops
}

// treeModel is point-serve: ancestor queries over a complete tree, with
// leaves drawn Zipf-skewed. Its writes give the hottest leaf one more
// parent each (par(leaf, x1), par(leaf, x2), ...).
type treeModel struct {
	facts  []ast.Atom
	parent map[string]string
	leaves []string // popularity order: leaves[0] is the hottest
	rng    *rand.Rand
	zipf   *rand.Zipf
	up     fanWriter
}

func newTreeModel(w workloadSpec, seed int64) *treeModel {
	m := &treeModel{facts: workload.Tree(w.gen("branching"), w.gen("depth")), parent: make(map[string]string)}
	for _, f := range m.facts {
		m.parent[f.Args[0].Const] = f.Args[1].Const
	}
	for _, f := range m.facts {
		if leaf := f.Args[0].Const; strings.HasPrefix(leaf, "c") {
			m.leaves = append(m.leaves, leaf)
		}
	}
	m.rng = rand.New(rand.NewSource(seed))
	m.rng.Shuffle(len(m.leaves), func(i, j int) { m.leaves[i], m.leaves[j] = m.leaves[j], m.leaves[i] })
	m.zipf = rand.NewZipf(m.rng, w.Generator["zipf_s"], w.Generator["zipf_v"], uint64(len(m.leaves)-1))
	m.up = fanWriter{pred: "par", hub: m.leaves[0], prefix: "x"}
	return m
}

func (m *treeModel) source() string { return programText(ancRules, m.facts) }

// ancestors is the generator's ancestor chain of node, including the
// nodes writes added above the hottest leaf.
func (m *treeModel) ancestors(node string) []string {
	var out []string
	for p, ok := m.parent[node]; ok; p, ok = m.parent[p] {
		out = append(out, p)
	}
	if node == m.leaves[0] {
		out = append(out, m.up.added...)
	}
	return out
}

func (m *treeModel) reads(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		leaf := m.leaves[m.zipf.Uint64()]
		ops[i] = readOp(fmt.Sprintf("?- anc(%s, Y).", leaf), m.ancestors(leaf))
	}
	return ops
}

// subscription is the view the write phase watches: the hottest leaf.
func (m *treeModel) subscription() (string, []string) {
	return fmt.Sprintf("?- anc(%s, Y).", m.leaves[0]), m.ancestors(m.leaves[0])
}

// mixModel is recursive-mix: point transitive closure over a random
// digraph (edge), same-generation over a complete tree (par) and
// nonlinear transitive closure over disjoint chains (link), in rotation.
// Start constants follow seeded permutations, so no query repeats within
// a run and the result cache cannot help. Expected answers come from the
// bottom-up oracle after the run. Writes give n0 one more successor each.
type mixModel struct {
	facts      [][]ast.Atom
	tc, sg, nl []string
	next       int // index of the next read in the rotation
	up         fanWriter
}

func newMixModel(w workloadSpec, seed int64) *mixModel {
	rng := rand.New(rand.NewSource(seed))
	nodes := w.gen("random_nodes")
	edge := workload.Random("edge", nodes, w.gen("random_edges"), rng)
	par := workload.Tree(w.gen("sg_branching"), w.gen("sg_depth"))
	chains, chainLen := w.gen("link_chains"), w.gen("link_length")
	link := workload.Components("link", chains, chainLen)
	m := &mixModel{facts: [][]ast.Atom{edge, par, link}, up: fanWriter{pred: "edge", hub: "n0", prefix: "x"}}
	for _, i := range rng.Perm(nodes) {
		m.tc = append(m.tc, fmt.Sprintf("n%d", i))
	}
	leaves := 1
	for range w.gen("sg_depth") {
		leaves *= w.gen("sg_branching")
	}
	for _, i := range rng.Perm(leaves) {
		m.sg = append(m.sg, fmt.Sprintf("c%d", i))
	}
	for _, i := range rng.Perm(chains * chainLen) {
		m.nl = append(m.nl, fmt.Sprintf("n%d", i))
	}
	return m
}

func (m *mixModel) source() string { return programText(mixRules, m.facts...) }

func (m *mixModel) allFacts() []ast.Atom {
	var out []ast.Atom
	for _, fs := range m.facts {
		out = append(out, fs...)
	}
	return out
}

// reads returns the next n ops of the rotation; answers are unknown
// until the oracle runs (wantN -1).
func (m *mixModel) reads(n int) []op {
	ops := make([]op, n)
	for k := range ops {
		i := m.next + k
		var q string
		switch j := i / 3; i % 3 {
		case 0:
			q = fmt.Sprintf("?- path(%s, Y).", m.tc[j%len(m.tc)])
		case 1:
			q = fmt.Sprintf("?- sg(%s, Y).", m.sg[j%len(m.sg)])
		default:
			q = fmt.Sprintf("?- t(%s, Y).", m.nl[j%len(m.nl)])
		}
		ops[k] = op{line: q, wantN: -1}
	}
	m.next += n
	return ops
}

// chainModel is write-subscribe: disjoint chains, point reads of a chain
// suffix, and writes that each append a fresh node to a chain's tail —
// to the subscribed chain (the one holding n0) with a fixed share.
type chainModel struct {
	facts   []ast.Atom
	chains  [][]string
	rng     *rand.Rand
	every   int     // one op in every is a write
	toSub   float64 // share of writes that extend the subscribed chain
	ops     int
	written int
}

func newChainModel(w workloadSpec, seed int64) *chainModel {
	m := &chainModel{facts: workload.Components("edge", w.gen("chains"), w.gen("chain_length")),
		rng: rand.New(rand.NewSource(seed)), every: w.gen("write_every"), toSub: w.Generator["write_extends_view"]}
	// Rebuild the chains from the generated edges, so the model is the
	// generator's graph rather than a second copy of its layout.
	next := make(map[string]string, len(m.facts))
	hasPred := make(map[string]bool, len(m.facts))
	for _, f := range m.facts {
		next[f.Args[0].Const] = f.Args[1].Const
		hasPred[f.Args[1].Const] = true
	}
	for _, f := range m.facts {
		if start := f.Args[0].Const; !hasPred[start] {
			chain := []string{start}
			for n, ok := next[start]; ok; n, ok = next[n] {
				chain = append(chain, n)
			}
			if start == "n0" {
				m.chains = append([][]string{chain}, m.chains...)
			} else {
				m.chains = append(m.chains, chain)
			}
		}
	}
	return m
}

func (m *chainModel) source() string { return programText(pathRules, m.facts) }

func (m *chainModel) read() op {
	c := m.chains[m.rng.Intn(len(m.chains))]
	pos := m.rng.Intn(len(c) - 1)
	return readOp(fmt.Sprintf("?- path(%s, Y).", c[pos]), c[pos+1:])
}

func (m *chainModel) write() op {
	k := 0
	if m.rng.Float64() >= m.toSub {
		k = 1 + m.rng.Intn(len(m.chains)-1)
	}
	c := m.chains[k]
	m.written++
	node := fmt.Sprintf("w%d", m.written)
	m.chains[k] = append(c, node)
	tail := c[len(c)-1]
	return op{line: fmt.Sprintf("fact edge(%s, %s).", tail, node), write: true, extends: k == 0, fact: []string{"edge", tail, node}}
}

// mixed returns the next n ops of the read/write stream.
func (m *chainModel) mixed(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if m.ops++; m.ops%m.every == 0 {
			ops[i] = m.write()
		} else {
			ops[i] = m.read()
		}
	}
	return ops
}

func (m *chainModel) reads(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = m.read()
	}
	return ops
}

func (m *chainModel) subscription() (string, []string) { return "?- path(n0, Y).", m.chains[0][1:] }
