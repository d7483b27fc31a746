package bdd

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// refSatCountIn is the independent reference for the word-slab
// counter: a memoized big.Int recursion over the same positions.
func refSatCountIn(m *Manager, a Node, vars []int32) *big.Int {
	pos := make(map[int32]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	n := len(vars)
	posOf := func(x Node) int {
		if x <= 1 {
			return n
		}
		return pos[m.nodes[x].level()]
	}
	memo := make(map[Node]*big.Int)
	var rec func(x Node) *big.Int
	rec = func(x Node) *big.Int {
		if x == False {
			return big.NewInt(0)
		}
		if x == True {
			return big.NewInt(1)
		}
		if c, ok := memo[x]; ok {
			return c
		}
		nd := m.nodes[x]
		p := posOf(x)
		lo := new(big.Int).Lsh(rec(nd.low), uint(posOf(nd.low)-p-1))
		hi := new(big.Int).Lsh(rec(nd.high), uint(posOf(nd.high)-p-1))
		c := new(big.Int).Add(lo, hi)
		memo[x] = c
		return c
	}
	if a == False {
		return big.NewInt(0)
	}
	if a == True {
		return new(big.Int).Lsh(big.NewInt(1), uint(n))
	}
	return new(big.Int).Lsh(rec(a), uint(posOf(a)))
}

// cube returns the conjunction of literals over levels: each level is
// kept with probability keep, with a random polarity.
func cube(m *Manager, rng *rand.Rand, levels []int32, keep float64) Node {
	c := m.Ref(True)
	for _, lv := range levels {
		if rng.Float64() >= keep {
			continue
		}
		var lit Node
		if rng.Intn(2) == 0 {
			lit = m.NVar(lv)
		} else {
			lit = m.Var(lv)
		}
		next := m.And(c, lit)
		m.Deref(c)
		m.Deref(lit)
		c = next
	}
	return c
}

// randFunc returns a random function over levels: a disjunction of
// cubes, cut by a random clause and possibly complemented, so counts
// fall anywhere between 0 and 2^len(levels).
func randFunc(m *Manager, rng *rand.Rand, levels []int32) Node {
	keep := 4.0 / float64(len(levels))
	if keep > 0.5 {
		keep = 0.5
	}
	f := m.Ref(False)
	for i := 0; i < 1+rng.Intn(12); i++ {
		c := cube(m, rng, levels, keep)
		next := m.Or(f, c)
		m.Deref(f)
		m.Deref(c)
		f = next
	}
	if rng.Intn(2) == 0 {
		clause := cube(m, rng, levels, keep)
		neg := m.Not(clause)
		next := m.And(f, neg)
		for _, n := range []Node{f, clause, neg} {
			m.Deref(n)
		}
		f = next
	}
	if rng.Intn(2) == 0 {
		next := m.Not(f)
		m.Deref(f)
		f = next
	}
	return f
}

// TestSatCountInMatchesReference compares the counter with the big.Int
// reference on random functions over supports on both sides of every
// word boundary. Support levels are every other manager level, so
// positions and levels differ, and each function is also counted over
// a superset of its support.
func TestSatCountInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, k := range []int{1, 63, 64, 65, 127, 128, 200} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			m := New(1<<12, 1<<10)
			m.AddVars(2*k + 1)
			levels := make([]int32, k)
			all := make([]int32, 2*k+1)
			for i := range levels {
				levels[i] = int32(2*i + 1)
			}
			for i := range all {
				all[i] = int32(i)
			}
			full := m.Ref(True)
			for _, lv := range levels {
				next := m.And(full, m.Var(lv))
				m.Deref(full)
				full = next
			}
			notFull := m.Not(full)
			// True, False, one full cube (count 1) and its complement
			// (2^k - 1, every word all ones), then random functions.
			fs := []Node{True, False, full, notFull}
			for i := 0; i < 30; i++ {
				fs = append(fs, randFunc(m, rng, levels))
			}
			for i, f := range fs {
				for _, vars := range [][]int32{levels, all} {
					got, want := m.SatCountIn(f, vars), refSatCountIn(m, f, vars)
					if got.Cmp(want) != 0 {
						t.Fatalf("function %d over %d vars: SatCountIn = %s, reference %s", i, len(vars), got, want)
					}
				}
				if got, want := m.SatCount(f), refSatCountIn(m, f, all); got.Cmp(want) != 0 {
					t.Fatalf("function %d: SatCount = %s, reference %s", i, got, want)
				}
			}
			want := new(big.Int).Lsh(big.NewInt(1), uint(k))
			if got := m.SatCountIn(True, levels); got.Cmp(want) != 0 {
				t.Fatalf("SatCountIn(True) = %s, want 2^%d", got, k)
			}
			if got := m.SatCountIn(notFull, levels); got.Cmp(want.Sub(want, big.NewInt(1))) != 0 {
				t.Fatalf("SatCountIn(¬cube) = %s, want 2^%d-1", got, k)
			}
			if got := m.SatCountIn(False, levels); got.Sign() != 0 {
				t.Fatalf("SatCountIn(False) = %s", got)
			}
		})
	}
}

// TestSatCountInMatchesAllSat checks counts against enumeration on
// supports small enough to list.
func TestSatCountInMatchesAllSat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 1; k <= 10; k++ {
		m := New(0, 0)
		m.AddVars(k + 2)
		levels := make([]int32, k)
		for i := range levels {
			levels[i] = int32(i + 1)
		}
		for trial := 0; trial < 10; trial++ {
			f := randFunc(m, rng, levels)
			var n int64
			m.AllSat(f, levels, func([]bool) bool { n++; return true })
			if got := m.SatCountIn(f, levels); got.Cmp(big.NewInt(n)) != 0 {
				t.Fatalf("k=%d trial %d: SatCountIn = %s, AllSat enumerates %d", k, trial, got, n)
			}
			m.Deref(f)
		}
	}
}

func TestSatCountInPanics(t *testing.T) {
	m := New(0, 0)
	m.AddVars(6)
	v3 := m.Var(3)
	for _, c := range []struct {
		name string
		vars []int32
		want string
	}{
		{"unsorted", []int32{3, 1}, "sorted ascending and unique"},
		{"duplicate", []int32{1, 3, 3}, "sorted ascending and unique"},
		{"outside support", []int32{1, 2}, "depends on level 3 outside vars"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, c.want) {
					t.Fatalf("panic = %v, want one mentioning %q", r, c.want)
				}
			}()
			m.SatCountIn(v3, c.vars)
		})
	}
}
