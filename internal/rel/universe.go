// Package rel provides finite relations with named, typed attributes
// stored as BDDs — the data model of the paper's bddbddb system. A
// relation like vP(variable:V, heap:H) is a boolean function over the
// BDD variables of the physical domains its attributes are bound to.
//
// Logical domains (V, H, F, ...) describe value spaces; physical
// domains (V0, V1, ...) are blocks of BDD variables. A relation binds
// each attribute to one physical instance of its logical domain; joins
// require shared attributes to share a physical instance, and Rename
// moves an attribute between instances (a BDD replace).
package rel

import (
	"fmt"
	"strconv"
	"strings"

	"bddbddb/internal/bdd"
)

// LogicalDomain is a named finite value space, e.g. the paper's V
// (variables), H (heap objects), C (contexts).
type LogicalDomain struct {
	Name string
	Size uint64

	elemNames []string
	insts     []*bdd.Domain
}

// SetElemNames attaches human-readable names to the domain's elements
// (the paper's ".map" files). Missing entries print as ordinals.
func (d *LogicalDomain) SetElemNames(names []string) { d.elemNames = names }

// ElemName returns the display name of element i.
func (d *LogicalDomain) ElemName(i uint64) string {
	if i < uint64(len(d.elemNames)) && d.elemNames[i] != "" {
		return d.elemNames[i]
	}
	return d.Name + "#" + strconv.FormatUint(i, 10)
}

// ElemNames returns the element-name table set by SetElemNames (nil if
// none). The slice is shared, not copied; callers must not mutate it.
func (d *LogicalDomain) ElemNames() []string { return d.elemNames }

// Instances returns how many physical instances the domain has.
func (d *LogicalDomain) Instances() int { return len(d.insts) }

// InstanceIndex returns the index of phys among the domain's physical
// instances, or -1 if phys is not an instance of this domain.
func (d *LogicalDomain) InstanceIndex(phys *bdd.Domain) int {
	for i, p := range d.insts {
		if p == phys {
			return i
		}
	}
	return -1
}

// Universe owns the BDD manager, the logical domains, and their
// physical instances. Declare domains and instance counts first, then
// Finalize with a variable order; relations can be created afterwards.
type Universe struct {
	M        *bdd.Manager
	logical  map[string]*LogicalDomain
	order    []string // declaration order of logical domains
	requests map[string]int
	final    bool

	blockOrder []string       // finalized block order of logical domains
	primary    map[string]int // per-domain instance count inside the main blocks

	// stampc is the monotone modification-stamp counter relations draw
	// from (see Relation.Stamp). Single-threaded like the BDD manager.
	stampc uint64
	// ops counts the relational ops executed (see Ops).
	ops int64
}

func (u *Universe) nextStamp() uint64 {
	u.stampc++
	return u.stampc
}

func (u *Universe) noteOp() { u.ops++ }

// Ops returns how many relational ops (joins, projections, renames,
// selections, unions, differences, complements) ran in this universe.
func (u *Universe) Ops() int64 { return u.ops }

// NewUniverse creates an empty universe.
func NewUniverse() *Universe {
	return &Universe{
		logical:  make(map[string]*LogicalDomain),
		requests: make(map[string]int),
	}
}

// Declare registers a logical domain. At least one physical instance is
// always allocated.
func (u *Universe) Declare(name string, size uint64) *LogicalDomain {
	if u.final {
		panic("rel: Declare after Finalize")
	}
	if _, dup := u.logical[name]; dup {
		panic(fmt.Sprintf("rel: duplicate domain %q", name))
	}
	d := &LogicalDomain{Name: name, Size: size}
	u.logical[name] = d
	u.order = append(u.order, name)
	if u.requests[name] < 1 {
		u.requests[name] = 1
	}
	return d
}

// Domain returns the logical domain with the given name, or nil.
func (u *Universe) Domain(name string) *LogicalDomain { return u.logical[name] }

// Domains returns the logical domains in declaration order.
func (u *Universe) Domains() []*LogicalDomain {
	out := make([]*LogicalDomain, len(u.order))
	for i, n := range u.order {
		out[i] = u.logical[n]
	}
	return out
}

// EnsureInstances requests at least n physical instances of the named
// logical domain. Call before Finalize; the Datalog compiler uses this
// while planning rules.
func (u *Universe) EnsureInstances(name string, n int) {
	if u.final {
		panic("rel: EnsureInstances after Finalize")
	}
	if _, ok := u.logical[name]; !ok {
		panic(fmt.Sprintf("rel: EnsureInstances of unknown domain %q", name))
	}
	if u.requests[name] < n {
		u.requests[name] = n
	}
}

// FinalizeOptions configures universe finalization.
type FinalizeOptions struct {
	// Order lists logical domain names from the top of the BDD variable
	// order downward; instances of one logical domain are interleaved
	// within a single block (V0xV1x...). An entry may group several
	// logical domains with "+" (e.g. "C+HC"): all their instances share
	// one bitwise-interleaved block, which is what the O(k) arithmetic
	// primitives (bdd.AddConst, bdd.Equals) require to relate values
	// *across* the grouped domains — the paper's VC2xVC1xVC0 spec for
	// heap contexts next to calling contexts. Omitted domains follow in
	// declaration order. Nil means declaration order throughout.
	Order []string
	// NodeSize and CacheSize size the BDD manager (rounded to powers of
	// two; zero picks defaults).
	NodeSize, CacheSize int
	// ExtraInstances allocates additional physical instances of the named
	// logical domains *after* the main blocks, as trailing blocks at the
	// bottom of the variable order. Unlike EnsureInstances, this leaves
	// the levels of every main-block variable unchanged, so a BDD dump
	// (bdd.WriteDAG) taken in a universe without the extras hydrates
	// bit-for-bit in one that has them — the serving layer uses this to
	// give query evaluation scratch instances on top of a snapshot.
	ExtraInstances map[string]int
}

// Finalize allocates the BDD manager and all physical domains and
// freezes the variable order.
func (u *Universe) Finalize(opts FinalizeOptions) error {
	if u.final {
		return fmt.Errorf("rel: Finalize called twice")
	}
	nodeSize := opts.NodeSize
	if nodeSize == 0 {
		nodeSize = 1 << 16
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 1 << 14
	}
	u.M = bdd.New(nodeSize, cacheSize)

	var blockOrder []string
	seen := make(map[string]bool)
	for _, entry := range opts.Order {
		for _, n := range splitGroup(entry) {
			if _, ok := u.logical[n]; !ok {
				return fmt.Errorf("rel: order names unknown domain %q", n)
			}
			if seen[n] {
				return fmt.Errorf("rel: order names domain %q twice", n)
			}
			seen[n] = true
		}
		blockOrder = append(blockOrder, entry)
	}
	for _, n := range u.order {
		if !seen[n] {
			blockOrder = append(blockOrder, n)
		}
	}

	spec := ""
	u.primary = make(map[string]int, len(blockOrder))
	for _, entry := range blockOrder {
		names := splitGroup(entry)
		maxInst := 0
		for _, name := range names {
			u.primary[name] = u.requests[name]
			if u.requests[name] > maxInst {
				maxInst = u.requests[name]
			}
		}
		// Instances of every domain in the group join one interleaved
		// block, instance-major (C0xHC0xC1x...): FinalizeOrder then
		// round-robins the *bits* of all listed domains, so any two
		// equal-width domains in the block end up bitwise aligned.
		block := ""
		for i := 0; i < maxInst; i++ {
			for _, name := range names {
				if i >= u.requests[name] {
					continue
				}
				d := u.logical[name]
				phys := u.M.DeclareDomain(physName(name, i), d.Size)
				d.insts = append(d.insts, phys)
				if block != "" {
					block += "x"
				}
				block += physName(name, i)
			}
		}
		if spec != "" {
			spec += "_"
		}
		spec += block
	}
	// Extra instances trail the main blocks so they never perturb the
	// levels the main blocks were assigned.
	for _, entry := range blockOrder {
		for _, name := range splitGroup(entry) {
			extra := opts.ExtraInstances[name]
			if extra <= 0 {
				continue
			}
			d := u.logical[name]
			for i := 0; i < extra; i++ {
				idx := len(d.insts)
				phys := u.M.DeclareDomain(physName(name, idx), d.Size)
				d.insts = append(d.insts, phys)
				spec += "_" + physName(name, idx)
			}
		}
	}
	for name := range opts.ExtraInstances {
		if _, ok := u.logical[name]; !ok {
			return fmt.Errorf("rel: ExtraInstances names unknown domain %q", name)
		}
	}
	if err := u.M.FinalizeOrder(spec); err != nil {
		return err
	}
	u.blockOrder = blockOrder
	u.final = true
	return nil
}

// splitGroup splits a "+"-joined order entry into its constituent
// logical domain names ("C+HC" -> C, HC; plain names pass through).
func splitGroup(entry string) []string {
	if !strings.Contains(entry, "+") {
		return []string{entry}
	}
	return strings.Split(entry, "+")
}

// BlockOrder returns the finalized block order (every declared domain
// appears in exactly one entry; grouped domains keep their "C+HC"
// entry verbatim). It is only valid after Finalize; a snapshot records
// it so replicas can reproduce the exact variable levels.
func (u *Universe) BlockOrder() []string {
	out := make([]string, len(u.blockOrder))
	copy(out, u.blockOrder)
	return out
}

// PrimaryInstances returns how many instances of the named domain were
// allocated in the main interleaved blocks at Finalize — excluding any
// ExtraInstances trailing blocks. Hydrating a snapshot must request
// exactly this many via EnsureInstances to reproduce the levels.
func (u *Universe) PrimaryInstances(name string) int { return u.primary[name] }

func physName(logical string, i int) string {
	return logical + strconv.Itoa(i)
}

// Phys returns physical instance i of the named logical domain.
func (u *Universe) Phys(name string, i int) *bdd.Domain {
	d := u.logical[name]
	if d == nil {
		panic(fmt.Sprintf("rel: unknown domain %q", name))
	}
	if i >= len(d.insts) {
		panic(fmt.Sprintf("rel: domain %q has %d instances; asked for #%d (EnsureInstances before Finalize)",
			name, len(d.insts), i))
	}
	return d.insts[i]
}

// GC runs a BDD garbage collection and returns surviving node count.
func (u *Universe) GC() int { return u.M.GC() }
