package extract_test

import (
	"os"
	"path/filepath"
	"testing"

	"bddbddb/internal/extract"
	"bddbddb/internal/frontend/gofront"
	"bddbddb/internal/program"
	"bddbddb/internal/synth"
)

// TestVP0PairsShareAMethod: vP0(v, h) pairs a variable only with an
// allocation site of its own method (v = new h), plus the global
// variable with the global object. The context-sensitive analyses seed
// an allocation in the contexts of the variable's method; that equals
// the contexts of the site's method only because of this. Checked on
// every synthetic benchmark and on the Go frontend's lowered fixtures.
func TestVP0PairsShareAMethod(t *testing.T) {
	type input struct {
		name string
		prog *program.Program
	}
	inputs := []input{{"quick", synth.Generate(synth.Quick)}}
	for _, b := range synth.Benchmarks {
		inputs = append(inputs, input{b.Params.Name, synth.Generate(b.Params)})
	}
	fixtures := filepath.Join("..", "frontend", "gofront", "testdata", "src")
	ents, err := os.ReadDir(fixtures)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no Go frontend fixtures (%v)", err)
	}
	for _, e := range ents {
		res, err := gofront.Lower([]string{filepath.Join(fixtures, e.Name())}, gofront.Options{})
		if err != nil {
			t.Fatalf("lowering %s: %v", e.Name(), err)
		}
		inputs = append(inputs, input{"gofront/" + e.Name(), res.Prog})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			f, err := extract.Extract(in.prog, extract.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range f.VP0 {
				v, h := tp[0], tp[1]
				if v == extract.GlobalVarIdx && h == extract.GlobalObjIdx {
					continue
				}
				if vm := f.VarMethod[v]; vm < 0 || vm != f.AllocMethod[h] {
					t.Errorf("vP0(%s, %s) crosses methods: variable in %d, site in %d",
						f.Vars[v], f.Heaps[h], vm, f.AllocMethod[h])
				}
			}
		})
	}
}
