package bdd

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// benchSetup builds a manager and a batch of random 14-variable
// functions to operate on.
func benchSetup(b *testing.B, nvars, nfuncs int) (*Manager, []Node) {
	b.Helper()
	m := New(1<<18, 1<<14)
	m.AddVars(int(int32(nvars)))
	rng := rand.New(rand.NewSource(7))
	funcs := make([]Node, nfuncs)
	for i := range funcs {
		// Random conjunction/disjunction mix of literals.
		f := m.Ref(True)
		for j := 0; j < nvars/2; j++ {
			v := int32(rng.Intn(nvars))
			var lit Node
			if rng.Intn(2) == 0 {
				lit = m.Var(v)
			} else {
				lit = m.NVar(v)
			}
			var next Node
			if rng.Intn(2) == 0 {
				next = m.And(f, lit)
			} else {
				next = m.Or(f, lit)
			}
			m.Deref(f)
			m.Deref(lit)
			f = next
		}
		funcs[i] = f
	}
	return m, funcs
}

func BenchmarkApplyAnd(b *testing.B) {
	m, fs := benchSetup(b, 20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := m.And(fs[i%len(fs)], fs[(i+1)%len(fs)])
		m.Deref(x)
	}
}

func BenchmarkApplyOr(b *testing.B) {
	m, fs := benchSetup(b, 20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := m.Or(fs[i%len(fs)], fs[(i+1)%len(fs)])
		m.Deref(x)
	}
}

func BenchmarkAndExist(b *testing.B) {
	m, fs := benchSetup(b, 20, 64)
	vs := m.MakeSet([]int32{2, 5, 8, 11, 14})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := m.AndExist(fs[i%len(fs)], fs[(i+1)%len(fs)], vs)
		m.Deref(x)
	}
}

func BenchmarkReplace(b *testing.B) {
	m, fs := benchSetup(b, 20, 64)
	p := m.NewPair()
	for v := int32(0); v < 10; v++ {
		p.Set(v, v+10)
	}
	// Functions over the lower half only, so the rename moves them up.
	lower := make([]Node, len(fs))
	vsUp := m.MakeSet([]int32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	for i, f := range fs {
		lower[i] = m.Exist(f, vsUp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := m.Replace(lower[i%len(lower)], p)
		m.Deref(x)
	}
}

func BenchmarkSatCount(b *testing.B) {
	m, fs := benchSetup(b, 20, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SatCount(fs[i%len(fs)])
	}
}

var satSink *big.Int

// BenchmarkSatCountIn counts a context-sensitive-shaped relation
// C×V×H over 152 support bits: random (v, h) pairs, each group of them
// valid over one random range of contexts, as contiguous context
// numbering makes them. Counts span three words.
func BenchmarkSatCountIn(b *testing.B) {
	m := New(1<<18, 1<<14)
	c := m.DeclareDomain("C", 1<<60)
	v := m.DeclareDomain("V", 1<<46)
	h := m.DeclareDomain("H", 1<<46)
	if err := m.FinalizeOrder("C_VxH"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := m.Ref(False)
	for g := 0; g < 40; g++ {
		rows := make([][]uint64, 100)
		for i := range rows {
			rows[i] = []uint64{uint64(rng.Int63n(1 << 46)), uint64(rng.Int63n(1 << 46))}
		}
		vh := m.TupleSet([]*Domain{v, h}, rows)
		lo := uint64(rng.Int63n(1 << 59))
		ctx := c.Range(lo, lo+uint64(rng.Int63n(1<<59)))
		part := m.And(vh, ctx)
		next := m.Or(r, part)
		for _, n := range []Node{vh, ctx, part, r} {
			m.Deref(n)
		}
		r = next
	}
	var vars []int32
	for _, d := range []*Domain{c, v, h} {
		vars = append(vars, d.Levels()...)
	}
	sortInt32(vars)
	nodes := m.NodeCount(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		satSink = m.SatCountIn(r, vars)
	}
	b.ReportMetric(float64(nodes), "nodes")
}

func BenchmarkGC(b *testing.B) {
	m, fs := benchSetup(b, 20, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Churn garbage, then collect.
		x := m.Xor(fs[i%len(fs)], fs[(i+3)%len(fs)])
		m.Deref(x)
		m.GC()
	}
}

func BenchmarkRangeConstruction(b *testing.B) {
	for _, bits := range []int{16, 32, 48} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			m := New(1<<16, 1<<12)
			d := m.DeclareDomain("D", 1<<uint(bits))
			if err := m.FinalizeOrder(""); err != nil {
				b.Fatal(err)
			}
			lo := uint64(1)<<uint(bits-2) - 3
			hi := uint64(1)<<uint(bits-1) + 5
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := d.Range(lo, hi)
				m.Deref(r)
			}
		})
	}
}

func BenchmarkAddConstConstruction(b *testing.B) {
	m := New(1<<16, 1<<12)
	s := m.DeclareDomain("S", 1<<40)
	d := m.DeclareDomain("D", 1<<40)
	if err := m.FinalizeOrder("SxD"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.AddConst(s, d, 12345, 1, 1<<39)
		if err != nil {
			b.Fatal(err)
		}
		m.Deref(r)
	}
}

// BenchmarkAndExistOutOfCache joins two random relations R(A,B) and
// S(B,C) on B. The operands and the result's construction fill a table
// of several million nodes (over 100 MB with the unique table), far past
// a last-level cache, so every makeNode probe and op-cache lookup pays
// memory latency. The benchmarks above use a 2^18-node table and stay
// in cache. Each iteration starts from cold op caches.
func BenchmarkAndExistOutOfCache(b *testing.B) {
	m := New(1<<22, 1<<19)
	da := m.DeclareDomain("A", 1<<20)
	db := m.DeclareDomain("B", 1<<12)
	dc := m.DeclareDomain("C", 1<<20)
	if err := m.FinalizeOrder("B_A_C"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rows := func(n int, x, y *Domain) [][]uint64 {
		out := make([][]uint64, n)
		for i := range out {
			out[i] = []uint64{uint64(rng.Int63n(int64(x.Size))), uint64(rng.Int63n(int64(y.Size)))}
		}
		return out
	}
	r := m.TupleSet([]*Domain{da, db}, rows(1<<17, da, db))
	s := m.TupleSet([]*Domain{db, dc}, rows(1<<17, db, dc))
	vs := db.Set()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := m.AndExist(r, s, vs)
		b.StopTimer()
		b.ReportMetric(float64(m.LiveNodes()), "live-nodes")
		m.Deref(x)
		m.GC()
		b.StartTimer()
	}
}
