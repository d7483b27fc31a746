// Package analysis implements the paper's algorithms and queries on
// top of the bddbddb engine:
//
//   - Algorithm 1/2: context-insensitive points-to, without/with type
//     filtering, over a precomputed (CHA) call graph.
//   - Algorithm 3: context-insensitive points-to with on-the-fly call
//     graph discovery.
//   - Algorithms 4/5: call-path context numbering and context-sensitive
//     points-to over the cloned call graph.
//   - Algorithm 6: context-sensitive type analysis.
//   - Algorithm 7: thread-sensitive points-to and escape analysis.
//   - Algorithm 8: context-sensitive heap cloning (the follow-on
//     pacsh.datalog analysis), with per-context heap clones.
//   - The Section 5 queries: memory-leak debugging, JCE vulnerability,
//     type refinement, and context-sensitive mod-ref.
//
// The Datalog below is the paper's, modulo four documented deltas:
// return values are handled by explicit Iret/Mret rules (the paper says
// they are "handled analogously"); rules (14)/(20) seed an allocation in
// the contexts of the variable's method through an explicit
// vC(context, variable) relation — the form of pacsh.datalog's
// vP0(v,h), mV(m,v), mC(m,c) — instead of the untyped "H ⊆ I" overlap;
// inequality tests are expressed with negated equality input relations
// (eqT/eqCT diagonals); and the paper's implicitly universally
// quantified head contexts (rule (23), mod-ref's mVC base case) are
// bound explicitly through domC — the full context domain — so every
// rule passes the DL020 safety check.
//
// Every source here parses and checks clean (no errors, no warnings)
// under the datalog/check pass; TestShippedProgramsCheckClean enforces
// that.
package analysis

// commonDomains declares the domains shared by every program. Sizes are
// placeholders; the runner overrides all of them from the extracted
// facts.
const commonDomains = `
.domain V 2 variable.map
.domain H 2 heap.map
.domain F 2 field.map
.domain T 2 type.map
.domain I 2 invoke.map
.domain N 2 name.map
.domain M 2 method.map
.domain Z 2
`

// commonInputs declares the core extracted relations every points-to
// variant reads: initial points-to plus the heap access statements.
const commonInputs = `
.relation vP0 (variable : V, heap : H) input
.relation store (base : V, field : F, source : V) input
.relation load (base : V, field : F, dest : V) input
`

// typeInputs declares the type-hierarchy relations used by the type
// filter and the type analyses. Kept separate from commonInputs so
// programs that never consult types (Algorithm 1) don't declare unused
// relations.
const typeInputs = `
.relation vT (variable : V, type : T) input
.relation hT (heap : H, type : T) input
.relation aT (supertype : T, subtype : T) input
`

// TypeFilterInputsSrc exposes the type-hierarchy declarations for
// composing query fragments onto a program that doesn't already declare
// them — e.g. the Figure 6 type-refinement query over Algorithm 1.
const TypeFilterInputsSrc = typeInputs

// invokeInputs declares the call-site binding relations consumed by the
// call-graph-aware programs (parameter passing and returns).
const invokeInputs = `
.relation actual (invoke : I, param : Z, var : V) input
.relation formal (method : M, param : Z, var : V) input
.relation Mret (method : M, var : V) input
.relation Iret (invoke : I, var : V) input
`

// Algorithm1Src is context-insensitive points-to with a precomputed
// call graph and no type filtering (the paper's Algorithm 1; assign is
// an input derived from the call graph).
const Algorithm1Src = commonDomains + commonInputs + `
.relation assign (dest : V, source : V) input
.relation vP (variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vP(v, h)      :- vP0(v, h).                                     # (1)
vP(v1, h)     :- assign(v1, v2), vP(v2, h).                     # (2)
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).      # (3)
vP(v2, h2)    :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2).    # (4)
`

// Algorithm2Src adds the type filter (the paper's Algorithm 2).
const Algorithm2Src = commonDomains + commonInputs + typeInputs + `
.relation assign (dest : V, source : V) input
.relation vPfilter (variable : V, heap : H)
.relation vP (variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).             # (5)
vP(v, h)       :- vP0(v, h).                                    # (6)
vP(v1, h)      :- assign(v1, v2), vP(v2, h), vPfilter(v1, h).   # (7)
hP(h1, f, h2)  :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).     # (8)
vP(v2, h2)     :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2), vPfilter(v2, h2). # (9)
`

// Algorithm3Src discovers the call graph on the fly (the paper's
// Algorithm 3): assign becomes a computed relation driven by the
// invocation edges IE, which in turn grow from points-to results.
const Algorithm3Src = commonDomains + commonInputs + typeInputs + invokeInputs + `
.relation cha (type : T, name : N, target : M) input
.relation IE0 (invoke : I, target : M) input
.relation mI (method : M, invoke : I, name : N) input
.relation assign0 (dest : V, source : V) input
.relation vPfilter (variable : V, heap : H)
.relation assign (dest : V, source : V)
.relation IE (invoke : I, target : M) output
.relation vP (variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).
vP(v, h)       :- vP0(v, h).
vP(v1, h)      :- assign(v1, v2), vP(v2, h), vPfilter(v1, h).
hP(h1, f, h2)  :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2)     :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2), vPfilter(v2, h2).
IE(i, m)       :- IE0(i, m).                                    # (10)
IE(i, m2)      :- mI(_, i, n), actual(i, 0, v), vP(v, h), hT(h, t), cha(t, n, m2). # (11)
assign(v1, v2) :- assign0(v1, v2).
assign(v1, v2) :- IE(i, m), formal(m, z, v1), actual(i, z, v2). # (12)
assign(v1, v2) :- IE(i, m), Iret(i, v1), Mret(m, v2).           # returns
`

// contextDomain declares the call-path context domain (sized by
// Algorithm 4's output at run time).
const contextDomain = `
.domain C 2
`

// Algorithm5Src is context-sensitive points-to over the cloned call
// graph (the paper's Algorithm 5). IEC comes from Algorithm 4; vC gives
// each variable its method's context range. Rule (14) joins vP0 and vC
// on the variable, which sits above C in the order, so the seed is one
// lock-step walk over V that copies a context range per distinct
// points-to subtree; vP0 pairs a variable only with sites of its own
// method (or the global pair), so this equals seeding by the site.
const Algorithm5Src = commonDomains + contextDomain + commonInputs + typeInputs + invokeInputs + `
.relation IEC (caller : C, invoke : I, callee : C, tgt : M) input
.relation vC (context : C, variable : V) input
.relation vPfilter (variable : V, heap : H)
.relation assignC (destc : C, dest : V, srcc : C, src : V)
.relation vPC (context : C, variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vPfilter(v, h)            :- vT(v, tv), hT(h, th), aT(tv, th).  # (13)
vPC(c, v, h)              :- vP0(v, h), vC(c, v).               # (14)
vPC(c1, v1, h)            :- assignC(c1, v1, c2, v2), vPC(c2, v2, h), vPfilter(v1, h). # (15)
hP(h1, f, h2)             :- store(v1, f, v2), vPC(c, v1, h1), vPC(c, v2, h2).         # (16)
vPC(c, v2, h2)            :- load(v1, f, v2), vPC(c, v1, h1), hP(h1, f, h2), vPfilter(v2, h2). # (17)
assignC(c1, v1, c2, v2)   :- IEC(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2).    # (18)
assignC(c1, v1, c2, v2)   :- IEC(c1, i, c2, m), Iret(i, v1), Mret(m, v2).              # returns
`

// Algorithm5OTFSrc is the Section 4.2 variant that discovers the call
// graph on the fly *context-sensitively*: contexts are numbered over a
// conservative (CHA) call graph, but an invocation edge's parameter
// bindings activate only when the context-sensitive points-to results
// warrant the dispatch ("delaying the generation of the invocation
// edges only if warranted by the points-to results"). The paper labels
// this of primarily academic interest — the call graph rarely improves
// over the context-insensitive one — and ships it anyway; so do we.
const Algorithm5OTFSrc = commonDomains + contextDomain + commonInputs + typeInputs + invokeInputs + `
.relation cha (type : T, name : N, target : M) input
.relation IE0 (invoke : I, target : M) input
.relation mI (method : M, invoke : I, name : N) input
.relation IEC (caller : C, invoke : I, callee : C, tgt : M) input
.relation vC (context : C, variable : V) input
.relation vPfilter (variable : V, heap : H)
.relation IECd (caller : C, invoke : I, callee : C, tgt : M) output
.relation assignC (destc : C, dest : V, srcc : C, src : V)
.relation vPC (context : C, variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vPfilter(v, h)          :- vT(v, tv), hT(h, th), aT(tv, th).
vPC(c, v, h)            :- vP0(v, h), vC(c, v).
vPC(c1, v1, h)          :- assignC(c1, v1, c2, v2), vPC(c2, v2, h), vPfilter(v1, h).
hP(h1, f, h2)           :- store(v1, f, v2), vPC(c, v1, h1), vPC(c, v2, h2).
vPC(c, v2, h2)          :- load(v1, f, v2), vPC(c, v1, h1), hP(h1, f, h2), vPfilter(v2, h2).

# Edges activate statically (IE0) or when the receiver's context-
# sensitive points-to set dispatches to the target.
IECd(c, i, cm, m)       :- IEC(c, i, cm, m), IE0(i, m).
IECd(c, i, cm, m2)      :- IEC(c, i, cm, m2), mI(_, i, n), actual(i, 0, v), vPC(c, v, h), hT(h, t), cha(t, n, m2).

assignC(c1, v1, c2, v2) :- IECd(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2).
assignC(c1, v1, c2, v2) :- IECd(c1, i, c2, m), Iret(i, v1), Mret(m, v2).
`

// heapContextDomain declares the heap-context domain of Algorithm 8.
// The runner sizes it identically to C and the default variable order
// interleaves the two ("C+HC") so the O(k) add-constant primitive can
// build the context↔heap-context diagonal — the paper's follow-on
// pacsh.datalog interleaves its VC/HC blocks the same way. Value 0 is
// reserved for "no heap context" (contexts proper start at 1): global
// objects and sites excluded by Config.HeapContextLimit allocate a
// single context-insensitive heap clone.
const heapContextDomain = `
.domain HC 2
`

// Algorithm8Src is context-sensitive points-to WITH heap cloning — the
// follow-on analysis of Whaley's pacsh.datalog, here as Algorithm 8.
// Where Algorithm 5 keeps one heap object per allocation site, cvP
// gives each site one clone per context of its containing method: the
// input diagonal vcH(c, hc, v) pairs calling context c of variable v's
// method with heap context hc = c (hc = 0 where that method is not
// cloned), which seeds v = new h with h's clone for c, since v and h
// name the same method; and the heap-indexed hPH keeps the field
// contents of different clones separate — stores and loads match on
// (heap context, heap) rather than heap alone, which is exactly where
// the added precision comes from.
// vPC and hP project the clones away so every Algorithm 5 consumer
// (queries, metrics, serving templates) reads Algorithm 8 results
// unchanged; heapCloned names the sites that actually got clones.
const Algorithm8Src = commonDomains + contextDomain + heapContextDomain + commonInputs + typeInputs + invokeInputs + `
.relation IEC (caller : C, invoke : I, callee : C, tgt : M) input
.relation vcH (context : C, hctx : HC, variable : V) input
.relation noHeapContext (heap : H) input
.relation vPfilter (variable : V, heap : H)
.relation assignC (destc : C, dest : V, srcc : C, src : V)
.relation cvP (context : C, variable : V, hctx : HC, heap : H) output
.relation hPH (basec : HC, base : H, field : F, targetc : HC, target : H) output
.relation vPC (context : C, variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output
.relation heapCloned (heap : H) output

vPfilter(v, h)            :- vT(v, tv), hT(h, th), aT(tv, th).
cvP(c, v, hc, h)          :- vP0(v, h), vcH(c, hc, v).
cvP(c1, v1, hc, h)        :- assignC(c1, v1, c2, v2), cvP(c2, v2, hc, h), vPfilter(v1, h).
hPH(hc1, h1, f, hc2, h2)  :- store(v1, f, v2), cvP(c, v1, hc1, h1), cvP(c, v2, hc2, h2).
cvP(c, v2, hc2, h2)       :- load(v1, f, v2), cvP(c, v1, hc1, h1), hPH(hc1, h1, f, hc2, h2), vPfilter(v2, h2).
assignC(c1, v1, c2, v2)   :- IEC(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2).
assignC(c1, v1, c2, v2)   :- IEC(c1, i, c2, m), Iret(i, v1), Mret(m, v2).

# Projections: the Algorithm 5 view of the heap-cloned results.
vPC(c, v, h)              :- cvP(c, v, _, h).
hP(h1, f, h2)             :- hPH(_, h1, f, _, h2).
heapCloned(h)             :- hT(h, _), !noHeapContext(h).
`

// Algorithm6Src is the context-sensitive type analysis (the paper's
// Algorithm 6): like Algorithm 5 but tracking types, not objects. The
// paper's rule (23) leaves its head context implicitly universal; domC
// (the runner fills it with the whole context domain) binds it
// explicitly.
const Algorithm6Src = commonDomains + contextDomain + commonInputs + typeInputs + invokeInputs + `
.relation IEC (caller : C, invoke : I, callee : C, tgt : M) input
.relation vC (context : C, variable : V) input
.relation domC (context : C) input
.relation vTfilter (variable : V, type : T)
.relation assignC (destc : C, dest : V, srcc : C, src : V)
.relation vTC (context : C, variable : V, type : T) output
.relation fT (field : F, target : T) output

vTfilter(v, t)          :- vT(v, tv), aT(tv, t).                # (19)
vTC(c, v, t)            :- vP0(v, h), vC(c, v), hT(h, t).       # (20)
vTC(c1, v1, t)          :- assignC(c1, v1, c2, v2), vTC(c2, v2, t), vTfilter(v1, t). # (21)
fT(f, t)                :- store(_, f, v2), vTC(_, v2, t).      # (22)
vTC(c, v, t)            :- load(_, f, v), fT(f, t), vTfilter(v, t), domC(c). # (23)
assignC(c1, v1, c2, v2) :- IEC(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2). # (24)
assignC(c1, v1, c2, v2) :- IEC(c1, i, c2, m), Iret(i, v1), Mret(m, v2).           # returns
`

// TypeAnalysisCISrc is the context-insensitive base of Algorithm 6 —
// "the basic type analysis is similar to 0-CFA" (Section 5.5): type
// sets propagated through assignments, loads and stores, with no
// contexts. assign is an input from a precomputed call graph.
const TypeAnalysisCISrc = commonDomains + commonInputs + typeInputs + `
.relation assign (dest : V, source : V) input
.relation vTfilter (variable : V, type : T)
.relation vTA (variable : V, type : T) output
.relation fT (field : F, target : T) output

vTfilter(v, t) :- vT(v, tv), aT(tv, t).
vTA(v, t)      :- vP0(v, h), hT(h, t).
vTA(v1, t)     :- assign(v1, v2), vTA(v2, t), vTfilter(v1, t).
fT(f, t)       :- store(_, f, v2), vTA(v2, t).
vTA(v, t)      :- load(_, f, v), fT(f, t), vTfilter(v, t).
`

// threadDomain declares the thread-context domain of Algorithm 7.
const threadDomain = `
.domain CT 2
`

// Algorithm7Src is the thread-sensitive points-to analysis (the
// paper's Algorithm 7) plus the escape queries of Section 5.6. assign
// is the context-insensitive assign relation of the precomputed call
// graph with thread-spawn bindings removed; vP0T seeds thread objects
// and the global; HT gives each thread context its reachable
// allocation sites.
const Algorithm7Src = commonDomains + threadDomain + commonInputs + typeInputs + `
.relation assign (dest : V, source : V) input
.relation HT (c : CT, heap : H) input
.relation vP0T (cv : CT, variable : V, ch : CT, heap : H) input
.relation eqCT (a : CT, b : CT) input
.relation syncs (v : V) input
.relation vPfilter (variable : V, heap : H)
.relation vPT (cv : CT, variable : V, ch : CT, heap : H) output
.relation hPT (cb : CT, base : H, field : F, ct : CT, target : H) output
.relation escaped (c : CT, heap : H) output
.relation captured (c : CT, heap : H) output
.relation neededSyncs (c : CT, v : V) output

vPfilter(v, h)             :- vT(v, tv), hT(h, th), aT(tv, th). # (25)
vPT(c1, v, c2, h)          :- vP0T(c1, v, c2, h).               # (26)
vPT(c, v, c, h)            :- vP0(v, h), HT(c, h).              # (27)
vPT(c2, v1, ch, h)         :- assign(v1, v2), vPT(c2, v2, ch, h), vPfilter(v1, h). # (28)
hPT(c1, h1, f, c2, h2)     :- store(v1, f, v2), vPT(c, v1, c1, h1), vPT(c, v2, c2, h2). # (29)
vPT(c, v2, c2, h2)         :- load(v1, f, v2), vPT(c, v1, c1, h1), hPT(c1, h1, f, c2, h2), vPfilter(v2, h2). # (30)

escaped(c, h)              :- vPT(cv, _, c, h), !eqCT(cv, c).
captured(c, h)             :- vPT(c, _, c, h), !escaped(c, h).
neededSyncs(c, v)          :- syncs(v), vPT(c, v, ch, h), escaped(ch, h).
`

// ModRefQuerySrc is the Section 5.4 context-sensitive mod-ref analysis,
// appended to Algorithm 5's program. The base case quantifies over
// every context of the enclosing method — domC again makes the
// paper's implicit universal context explicit.
const ModRefQuerySrc = `
.relation mI (method : M, invoke : I, name : N) input
.relation mV (method : M, var : V) input
.relation domC (context : C) input
.relation mVC (c1 : C, m : M, c2 : C, v : V)
.relation mod (c : C, m : M, h : H, f : F) output
.relation ref (c : C, m : M, h : H, f : F) output

mVC(c, m, c, v)        :- mV(m, v), domC(c).
mVC(c1, m1, c3, v3)    :- mI(m1, i, _), IEC(c1, i, c2, m2), mVC(c2, m2, c3, v3).
mod(c, m, h, f)        :- mVC(c, m, cv, v), store(v, f, _), vPC(cv, v, h).
ref(c, m, h, f)        :- mVC(c, m, cv, v), load(v, f, _), vPC(cv, v, h).
`

// TypeRefinementSrc computes the Section 5.3 / Figure 6 metrics over an
// exact-type relation that the variant-specific prefix defines:
// varExactTypes(v, t). It needs the eqT diagonal to express td != tc.
const TypeRefinementSrc = `
.relation eqT (a : T, b : T) input
.relation notVarType (v : V, t : T)
.relation varSuperTypes (v : V, t : T) output
.relation refinable (v : V, t : T) output
.relation multiType (v : V) output
.relation typedVar (v : V) output

notVarType(v, t)      :- varExactTypes(v, tv), !aT(t, tv).
varSuperTypes(v, t)   :- !notVarType(v, t).
typedVar(v)           :- varExactTypes(v, _).
refinable(v, tc)      :- vT(v, td), varSuperTypes(v, tc), aT(td, tc), !eqT(td, tc), typedVar(v).
multiType(v)          :- varExactTypes(v, t1), varExactTypes(v, t2), !eqT(t1, t2).
`
