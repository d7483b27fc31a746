// Package gofront is the Go source frontend: it lowers real Go
// packages — parsed and type-checked with the standard library only
// (go/parser, go/types) — into the program.Program IR the paper's
// analyses consume, so everything downstream (extract → datalog → plan
// IR → resilience → serving) works on real code unchanged.
//
// The mapping onto the IR's Java-shaped vocabulary:
//
//   - named struct types, with embedding, become classes with single
//     inheritance (the first embedded struct is the superclass, other
//     embedded fields stay fields),
//   - named interfaces become IR interfaces; types.Implements wires
//     Go's structural satisfaction into nominal implements edges for
//     the cha relation,
//   - composite literals, new, &T{} and make are allocation sites,
//   - pointer, field, slice, map and channel access become load/store
//     (slices, arrays and channels through the "[]" ArrayField
//     convention, map values through "[]" and map keys through "$key"),
//   - closures become synthetic classes capturing free variables as
//     fields, invoked through the go.Func interface,
//   - `go f(...)` spawns a synthetic java.lang.Thread subclass whose
//     run() performs the call, so Algorithm 7's escape analysis applies
//     to goroutines directly,
//   - package-level variables are fields of the <global> statics
//     object, initialized by synthetic entry methods.
//
// Everything the lowering cannot model soundly is documented in
// Caveats — a table, not a silent drop.
package gofront

import (
	"fmt"
	"go/token"
	"go/types"

	"bddbddb/internal/program"
)

// EntryMode selects which methods become analysis roots.
type EntryMode string

const (
	// EntryAuto uses main.main when a requested package declares it and
	// falls back to EntryExported otherwise. Synthetic package-variable
	// initializer methods are always roots.
	EntryAuto EntryMode = "auto"
	// EntryMain roots only main.main (plus initializers).
	EntryMain EntryMode = "main"
	// EntryExported roots every exported function and method of the
	// requested packages (plus initializers) — the right model for
	// analyzing a library.
	EntryExported EntryMode = "exported"
	// EntryAll roots every lowered function and method.
	EntryAll EntryMode = "all"
)

// Options configures the lowering.
type Options struct {
	// Entries picks the analysis roots; default EntryAuto.
	Entries EntryMode
	// IncludeTests also parses _test.go files (off by default).
	IncludeTests bool
}

// Meta carries everything the lowering knows beyond the IR itself:
// source positions for reports, tallies, and the type errors tolerated
// while resolving external imports as placeholders.
type Meta struct {
	Fset *token.FileSet
	// Packages lists every loaded import path (dependencies included);
	// Requested the ones named by the patterns.
	Packages  []string
	Requested []string
	// StmtPos maps a lowered method's qualified name to per-statement
	// source positions (index-aligned with Method.Stmts; the zero
	// Position marks synthetic statements).
	StmtPos map[string][]token.Position
	// TypeErrors counts the type-check diagnostics tolerated because
	// imports outside the module resolve to opaque placeholders.
	TypeErrors int
	// Tallies of lowered constructs.
	Funcs, Closures, Goroutines, ExternCalls int
}

// Pos returns the source position of a statement, or a zero Position
// for synthetic code.
func (m *Meta) Pos(qmethod string, stmt int) token.Position {
	ps := m.StmtPos[qmethod]
	if stmt < 0 || stmt >= len(ps) {
		return token.Position{}
	}
	return ps[stmt]
}

// Caveat is one documented unsoundness or approximation.
type Caveat struct {
	Construct string // Go construct
	Handling  string // what the lowering does
	Unsound   string // what is lost
}

// Caveats is the frontend's soundness table: every Go construct the
// lowering approximates or cannot model, with what happens instead.
// DESIGN.md §11 renders this table; report modes should be read with
// it in hand.
var Caveats = []Caveat{
	{"reflection (reflect.*)", "external call: result is a fresh opaque go.Extern object", "values conjured via reflection do not alias their sources"},
	{"unsafe.Pointer arithmetic", "untracked scalar", "aliasing created through unsafe is invisible"},
	{"cgo", "external call", "C memory is invisible"},
	{"stdlib / external modules", "placeholder import: calls return fresh opaque objects; func-typed arguments are conservatively invoked once with opaque parameters", "flows inside external code (e.g. a value stored by fmt and retrieved elsewhere) are lost"},
	{"channels", "a channel is one object; send stores to its \"[]\" field, receive loads it", "no happens-before: every receiver sees every sender's values, select/close ignored"},
	{"strings and numeric types", "untracked", "aliasing of string backing arrays is invisible"},
	{"map keys", "stored under the synthetic \"$key\" field", "key identity is merged per map object"},
	{"shared mutable closure captures", "captured variables are copied into closure fields at creation; writes inside the closure update the fields", "writes in the enclosing function after creation are not seen by the closure"},
	{"multiple embedding", "first embedded struct becomes the superclass; others stay fields and promoted calls load them explicitly", "none (modelled precisely, just asymmetrically)"},
	{"pointer indirection levels", "*T is identified with T (one alias class per pointee)", "distinct *T and **T cells collapse"},
	{"array/slice indices", "all elements merge into one \"[]\" field", "index-sensitive disambiguation"},
	{"append growth", "append(s, …) evaluates to s; an allocation site is made only when s lowers to no value (a nil literal)", "a slice grown from a nil field or variable gets no allocation site, so its points-to set can be empty although append returned a non-nil slice"},
	{"generics", "instantiations collapse onto the generic origin (one class per declaration)", "type-argument-specific flows merge"},
	{"panic/recover", "panic arguments are evaluated, recover returns an opaque object", "the throw/catch value flow is not connected"},
	{"defer", "the deferred call is lowered at the defer site (flow-insensitive)", "none beyond flow insensitivity"},
	{"variadic calls to unknown targets", "arguments pass through positionally", "packing into the callee's variadic slice is only modelled when the signature is known"},
	{"goroutines via external callbacks", "not spawned", "escape analysis misses threads created inside external code"},
	{"method names start/run", "mangled to go$start/go$run", "none (the IR reserves start/run for the thread-spawn convention)"},
	{"range over func (iterators)", "the iterator is invoked with an opaque yield; loop variables are conjured fresh", "yielded values do not alias what the iterator actually produced"},
}

// Result is the lowering output.
type Result struct {
	Prog *program.Program
	Meta *Meta
}

// Lower loads the packages matching the given patterns (directories,
// optionally with a trailing /..., all inside one module) and lowers
// them plus their intra-module dependencies into a validated IR
// program.
func Lower(patterns []string, opts Options) (*Result, error) {
	ld, pkgs, err := loadPackages(patterns)
	if err != nil {
		return nil, err
	}
	return lowerLoaded(ld, pkgs, opts)
}

func lowerLoaded(ld *loader, pkgs []*loadedPkg, opts Options) (*Result, error) {
	if opts.Entries == "" {
		opts.Entries = EntryAuto
	}
	lw := &lowerer{
		ld:            ld,
		pkgs:          pkgs,
		opts:          opts,
		classes:       make(map[string]*classRec),
		namedRedirect: make(map[string]string),
		funcMethods:   make(map[*types.Func]*program.Method),
		shapes:        make(map[*program.Method]fnShape),
		meta: &Meta{
			Fset:    ld.fset,
			StmtPos: make(map[string][]token.Position),
		},
	}
	for _, lp := range pkgs {
		lw.meta.Packages = append(lw.meta.Packages, lp.ImportPath)
		if lp.Requested {
			lw.meta.Requested = append(lw.meta.Requested, lp.ImportPath)
		}
		lw.meta.TypeErrors += len(lp.TypeErrors)
	}

	// Pass 1: declare a class for every package-level named type, then
	// break embedding cycles before any body consults the hierarchy.
	for _, lp := range pkgs {
		lw.declareTypes(lp)
	}
	lw.breakSuperCycles()

	// Pass 2: declare method and function shells so invocation sites
	// resolve regardless of lowering order.
	for _, lp := range pkgs {
		lw.declareFuncs(lp)
	}

	// Pass 3: lower every body.
	for _, lp := range pkgs {
		lw.lowerPackage(lp)
	}

	// Pass 4: structural interface satisfaction → nominal implements.
	lw.implementsPass()

	lw.collectEntries()
	prog, err := lw.finalize()
	if err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Meta: lw.meta}, nil
}

// lowerer is the whole-program lowering state.
type lowerer struct {
	ld   *loader
	pkgs []*loadedPkg
	opts Options
	meta *Meta

	classes       map[string]*classRec
	classOrder    []string
	namedRedirect map[string]string
	// funcMethods maps a Go function/method object to its lowered IR
	// method (shells created in pass 2).
	funcMethods map[*types.Func]*program.Method
	// shapes records how each lowered method's Go results map onto its
	// single IR return variable (tuple-object convention).
	shapes  map[*program.Method]fnShape
	entries []program.MethodRef
	// initMethods lists synthetic initializer MethodRefs (always roots).
	initMethods []program.MethodRef
	synthCount  int
}

// synthName mints a deterministic synthetic member name.
func (lw *lowerer) synthName(prefix string) string {
	lw.synthCount++
	return fmt.Sprintf("%s$%d", prefix, lw.synthCount)
}
