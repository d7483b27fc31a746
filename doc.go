// Package bddbddb reproduces Whaley & Lam, "Cloning-Based
// Context-Sensitive Pointer Alias Analysis Using Binary Decision
// Diagrams" (PLDI 2004): a BDD-based deductive database (bddbddb) that
// evaluates Datalog programs over relations stored as binary decision
// diagrams, and on top of it the paper's scalable context-sensitive,
// inclusion-based pointer analysis for Java-like programs — cloning a
// method for every acyclic call path (Algorithm 4's context numbering)
// and running the context-insensitive rules over the exploded graph.
//
// The implementation lives under internal/:
//
//	bdd         the BDD package (node table, GC, relprod/replace,
//	            the O(k) range and add-constant primitives)
//	rel         relations with named attributes over BDDs
//	datalog     the bddbddb engine (parser, stratification, semi-naive
//	            BDD evaluation) plus an explicit tuple-set oracle
//	program     the Java-like IR and its ".jp" text format
//	cha         class hierarchy analysis
//	extract     IR -> input relations (vP0, store, load, cha, ...)
//	callgraph   SCCs and Algorithm 4 context numbering
//	analysis    Algorithms 1-7 and the Section 5 queries
//	synth       the 21 calibrated synthetic benchmarks (Figure 3)
//	order       empirical BDD variable-order search
//	experiments the Figure 3-6 harness
//
// Entry points: cmd/bddbddb (run Datalog), cmd/pointsto (analyze a .jp
// program or Go packages), cmd/bddbddbd (serve queries over a solved
// analysis), cmd/synthgen (emit benchmarks), cmd/experiments
// (regenerate the paper's tables). See README.md, DESIGN.md and
// EXPERIMENTS.md.
package bddbddb
