package order

// The shipped default variable orders, found the way Section 2.4.2
// prescribes — empirically, with Search (see BenchmarkAblationVarOrder)
// — and promoted to the single table every runner and command reads.
// The decisive property mirrors the ordering bddbddb shipped for this
// analysis: the variable instances (V0xV1) sit directly above the
// interleaved context instances, with the heap domains at the very
// bottom. Putting the context domain on top instead looks natural but
// is catastrophically slower (>1000x on the larger benchmarks).
//
// An entry may group logical domains with "+" (rel.FinalizeOptions
// order-group syntax): "C+HC" interleaves the calling-context and
// heap-context domains bitwise in one block, which the O(k) arithmetic
// primitives behind Algorithm 8's vcH diagonal require. Search treats
// a group entry as one atomic token, so transpositions never split it.

// Mode names for Default.
const (
	ModeCI     = "ci"      // Algorithms 1-3, context-insensitive
	ModeCS     = "cs"      // Algorithms 5/6, call-path cloning
	ModeCT     = "ct"      // Algorithm 7, thread contexts
	ModeHeapCS = "heap-cs" // Algorithm 8, heap cloning
)

var defaults = map[string][]string{
	ModeCI:     {"N", "F", "I", "M", "Z", "V", "T", "H"},
	ModeCS:     {"N", "F", "I", "M", "Z", "V", "C", "T", "H"},
	ModeCT:     {"N", "F", "I", "M", "Z", "V", "CT", "T", "H"},
	ModeHeapCS: {"N", "F", "I", "M", "Z", "V", "C+HC", "T", "H"},
}

// Default returns a copy of the shipped variable order for the named
// analysis mode, or nil for an unknown mode.
func Default(mode string) []string {
	d, ok := defaults[mode]
	if !ok {
		return nil
	}
	return append([]string(nil), d...)
}
