package bdd

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
)

// Domain is a finite domain encoded over a block of BDD variables — the
// "fdd" layer of BuDDy that the paper's Datalog attributes map onto.
// Elements are integers in [0, Size). Bits are stored least-significant
// first; within a domain, less significant bits sit higher in the
// variable order (smaller level).
type Domain struct {
	Name string
	Size uint64

	m      *Manager
	levels []int32 // levels[i] = level of bit i (LSB = bit 0); nil until FinalizeOrder
	varset Node    // conjunction of this domain's variables, kept referenced
}

func bitsFor(size uint64) int {
	if size < 2 {
		return 1
	}
	b := 0
	for v := size - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// DeclareDomain registers a finite domain of the given size. Bits are
// allocated only when FinalizeOrder is called; until then the domain
// cannot be used to build BDDs.
func (m *Manager) DeclareDomain(name string, size uint64) *Domain {
	if size == 0 {
		panic(fmt.Sprintf("bdd: domain %q declared with size 0; sizes must be positive", name))
	}
	for _, d := range m.domains {
		if d.Name == name {
			panic(fmt.Sprintf("bdd: duplicate domain %q", name))
		}
	}
	d := &Domain{Name: name, Size: size, m: m}
	m.domains = append(m.domains, d)
	return d
}

// Domains returns the declared domains in declaration order.
func (m *Manager) Domains() []*Domain { return m.domains }

// DomainByName returns the declared domain with the given name, or nil.
func (m *Manager) DomainByName(name string) *Domain {
	for _, d := range m.domains {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Bits returns the number of BDD variables encoding the domain.
func (d *Domain) Bits() int { return bitsFor(d.Size) }

// Levels returns the variable levels of the domain's bits, LSB first.
// Only valid after FinalizeOrder.
func (d *Domain) Levels() []int32 {
	d.checkFinalized()
	return d.levels
}

func (d *Domain) checkFinalized() {
	if d.levels == nil {
		panic(fmt.Sprintf("bdd: domain %q used before FinalizeOrder", d.Name))
	}
}

// FinalizeOrder assigns BDD variables to every declared domain according
// to an order specification, then freezes the variable order.
//
// The spec lists domain names separated by '_' (blocks, top to bottom of
// the order) where a block may interleave several domains with 'x', e.g.
// "C1xC2_IxM_V1xV2_F_H1xH2_T". Interleaving places same-significance
// bits adjacently, which is what makes the rename between e.g. V1 and V2
// cheap and keeps equality/shift relations linear-size. Domains not
// mentioned in the spec are appended afterwards, each as its own block,
// in declaration order. An empty spec orders all domains by declaration.
func (m *Manager) FinalizeOrder(spec string) error {
	if m.nvars != 0 {
		return fmt.Errorf("bdd: FinalizeOrder called twice")
	}
	var blocks [][]*Domain
	seen := make(map[string]bool)
	if spec != "" {
		for _, blk := range strings.Split(spec, "_") {
			var ds []*Domain
			for _, name := range strings.Split(blk, "x") {
				d := m.DomainByName(name)
				if d == nil {
					return fmt.Errorf("bdd: order spec names unknown domain %q", name)
				}
				if seen[name] {
					return fmt.Errorf("bdd: order spec names domain %q twice", name)
				}
				seen[name] = true
				ds = append(ds, d)
			}
			blocks = append(blocks, ds)
		}
	}
	for _, d := range m.domains {
		if !seen[d.Name] {
			blocks = append(blocks, []*Domain{d})
		}
	}
	next := int32(0)
	for _, blk := range blocks {
		maxBits := 0
		for _, d := range blk {
			d.levels = make([]int32, 0, d.Bits())
			if d.Bits() > maxBits {
				maxBits = d.Bits()
			}
		}
		for bit := 0; bit < maxBits; bit++ {
			for _, d := range blk {
				if bit < d.Bits() {
					d.levels = append(d.levels, next)
					next++
				}
			}
		}
	}
	m.AddVars(int(next))
	for _, d := range m.domains {
		d.varset = m.MakeSet(d.levels)
	}
	return nil
}

// Set returns the varset of the domain's variables for use with Exist
// and AndExist. The node is owned by the domain; do not Deref it.
func (d *Domain) Set() Node {
	d.checkFinalized()
	return d.varset
}

// Eq returns the BDD for "this domain's value == val". Referenced.
func (d *Domain) Eq(val uint64) Node {
	d.checkFinalized()
	if val >= d.Size {
		panic(fmt.Sprintf("bdd: value %d outside domain %s of size %d", val, d.Name, d.Size))
	}
	// Build bottom-up: visit bits by descending level.
	idx := levelOrderDesc(d.levels)
	res := True
	for _, bit := range idx {
		lv := d.levels[bit]
		if val&(1<<uint(bit)) != 0 {
			res = d.m.makeNode(lv, False, res)
		} else {
			res = d.m.makeNode(lv, res, False)
		}
	}
	return d.m.Ref(res)
}

// levelOrderDesc returns bit indices sorted by descending level.
func levelOrderDesc(levels []int32) []int {
	idx := make([]int, len(levels))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && levels[idx[j-1]] < levels[idx[j]]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return idx
}

// DomainConstraint returns the BDD accepting exactly the valid encodings
// of the domain (value < Size). Referenced for the caller.
func (d *Domain) DomainConstraint() Node {
	return d.Range(0, d.Size-1)
}

// Value decodes the domain's value from an AllSat assignment covering
// vars, where vals[i] corresponds to vars[i] (ascending levels). A
// caller decoding many assignments over the same vars computes
// Positions once and decodes each with ValueAt.
func (d *Domain) Value(vars []int32, vals []bool) uint64 {
	return ValueAt(d.Positions(vars), vals)
}

// Positions returns, for each bit of the domain from the least
// significant, the index of that bit's level in vars, or -1 when vars
// does not hold it (the bit then decodes as 0).
func (d *Domain) Positions(vars []int32) []int {
	d.checkFinalized()
	pos := make([]int, len(d.levels))
	for bit, lv := range d.levels {
		pos[bit] = slices.Index(vars, lv)
	}
	return pos
}

// ValueAt decodes a domain value from an AllSat assignment, given the
// domain's Positions in the assignment's vars.
func ValueAt(pos []int, vals []bool) uint64 {
	var v uint64
	for bit, i := range pos {
		if i >= 0 && vals[i] {
			v |= 1 << uint(bit)
		}
	}
	return v
}

// Count returns the number of domain elements in the set a, which must
// be a BDD whose support lies within this domain's variables.
func (d *Domain) Count(a Node) *big.Int {
	d.checkFinalized()
	vars := make([]int32, len(d.levels))
	copy(vars, d.levels)
	sortInt32(vars)
	return d.m.SatCountIn(a, vars)
}
