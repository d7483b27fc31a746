package program

import (
	"reflect"
	"testing"
)

func TestFormatRoundTrip(t *testing.T) {
	p1 := MustParse(sampleJP)
	text := Format(p1)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if p1.Stats() != p2.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", p1.Stats(), p2.Stats())
	}
	if !reflect.DeepEqual(p1.Entries, p2.Entries) {
		t.Fatalf("entries differ")
	}
	for _, c1 := range p1.Classes {
		c2 := p2.Class(c1.Name)
		if c2 == nil {
			t.Fatalf("class %s lost", c1.Name)
		}
		if c1.Super != c2.Super || c1.IsInterface != c2.IsInterface {
			t.Fatalf("class %s header changed", c1.Name)
		}
		if !reflect.DeepEqual(c1.Fields, c2.Fields) {
			t.Fatalf("class %s fields changed: %v vs %v", c1.Name, c1.Fields, c2.Fields)
		}
		for _, m1 := range c1.Methods {
			m2 := c2.Method(m1.Name)
			if m2 == nil {
				t.Fatalf("method %s lost", m1.QName())
			}
			if len(m1.Stmts) != len(m2.Stmts) {
				t.Fatalf("method %s stmts %d vs %d", m1.QName(), len(m1.Stmts), len(m2.Stmts))
			}
			for i := range m1.Stmts {
				if m1.Stmts[i].Kind != m2.Stmts[i].Kind {
					t.Fatalf("%s stmt %d kind changed", m1.QName(), i)
				}
			}
			if m1.Static != m2.Static || m1.Abstract != m2.Abstract {
				t.Fatalf("method %s modifiers changed", m1.QName())
			}
		}
	}
}

func TestFormatOmitsImplicitRoots(t *testing.T) {
	p := MustParse("entry A.m\nclass A {\n method m() {\n }\n}\n")
	text := Format(p)
	if contains(text, "java.lang.Object") || contains(text, "java.lang.Thread") {
		t.Fatalf("implicit roots leaked into output:\n%s", text)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestQualifiedFieldLoadRoundTrip pins the load/store split on
// qualified field names (as gofront emits them): both sides split at
// the first dot, so a formatted load reparses to the same base and field.
func TestQualifiedFieldLoadRoundTrip(t *testing.T) {
	p := MustParse(`entry A.m
class A {
    field A.f
    method m() {
        var x: A
        var y: A
        x = new A
        x.A.f = x
        y = x.A.f
    }
}
`)
	stmts := p.Class("A").Method("m").Stmts
	for _, want := range []Stmt{
		{Kind: StStore, Dst: "x", Field: "A.f", Src: "x"},
		{Kind: StLoad, Dst: "y", Src: "x", Field: "A.f"},
	} {
		found := false
		for _, s := range stmts {
			found = found || reflect.DeepEqual(s, want)
		}
		if !found {
			t.Errorf("no statement %+v in %+v", want, stmts)
		}
	}
}
