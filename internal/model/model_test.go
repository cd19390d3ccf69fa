package model

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// figure1 builds the semistructured instance of Figure 1 in the paper.
func figure1(t *testing.T) *Instance {
	t.Helper()
	s := NewInstance("R")
	if err := s.RegisterType(NewType("title-type", "VQDB", "Lore")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterType(NewType("institution-type", "Stanford", "UMD")); err != nil {
		t.Fatal(err)
	}
	type edge struct{ from, to, l string }
	for _, e := range []edge{
		{"R", "B1", "book"}, {"R", "B2", "book"}, {"R", "B3", "book"},
		{"B1", "T1", "title"}, {"B1", "A1", "author"}, {"B1", "A2", "author"},
		{"B2", "A1", "author"}, {"B2", "A2", "author"}, {"B2", "A3", "author"},
		{"B3", "T2", "title"}, {"B3", "A3", "author"},
		{"A1", "I1", "institution"}, {"A2", "I1", "institution"},
		{"A2", "I2", "institution"}, {"A3", "I2", "institution"},
	} {
		if err := s.AddEdge(e.from, e.to, e.l); err != nil {
			t.Fatal(err)
		}
	}
	for _, lv := range []struct{ o, tn, v string }{
		{"T1", "title-type", "VQDB"}, {"T2", "title-type", "Lore"},
		{"I1", "institution-type", "Stanford"}, {"I2", "institution-type", "UMD"},
	} {
		if err := s.SetLeaf(lv.o, lv.tn, lv.v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestFigure1Valid(t *testing.T) {
	s := figure1(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumObjects() != 11 {
		t.Errorf("objects = %d, want 11", s.NumObjects())
	}
	if got := s.LCh("B1", "author"); len(got) != 2 {
		t.Errorf("lch(B1,author) = %v", got)
	}
	if v, ok := s.ValueOf("T1"); !ok || v != "VQDB" {
		t.Errorf("val(T1) = %q,%v", v, ok)
	}
	if ty, ok := s.TypeOf("I2"); !ok || ty.Name != "institution-type" {
		t.Errorf("τ(I2) = %v,%v", ty, ok)
	}
	if _, ok := s.TypeOf("B1"); ok {
		t.Error("B1 should be untyped")
	}
}

func TestTypeValidation(t *testing.T) {
	if err := (Type{Name: "", Domain: []Value{"x"}}).Validate(); err == nil {
		t.Error("empty type name accepted")
	}
	if err := (Type{Name: "t"}).Validate(); err == nil {
		t.Error("empty domain accepted")
	}
	ty := NewType("t", "b", "a", "b")
	if len(ty.Domain) != 2 || ty.Domain[0] != "a" {
		t.Errorf("domain not canonical: %v", ty.Domain)
	}
	if !ty.Has("a") || ty.Has("c") {
		t.Error("Has misbehaves")
	}
}

func TestRegisterTypeConflicts(t *testing.T) {
	s := NewInstance("R")
	if err := s.RegisterType(NewType("t", "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterType(NewType("t", "a")); err != nil {
		t.Errorf("identical re-registration should succeed: %v", err)
	}
	if err := s.RegisterType(NewType("t", "b")); err == nil {
		t.Error("conflicting re-registration accepted")
	}
}

func TestSetLeafErrors(t *testing.T) {
	s := NewInstance("R")
	if err := s.SetLeaf("X", "missing", "v"); err == nil {
		t.Error("unknown type accepted")
	}
	_ = s.RegisterType(NewType("t", "a", "b"))
	if err := s.SetLeaf("X", "t", "z"); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if err := s.SetLeaf("X", "t", "a"); err != nil {
		t.Errorf("valid SetLeaf failed: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	// Unreachable object.
	s := NewInstance("R")
	s.AddObject("orphan")
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("unreachable object: err=%v", err)
	}

	// Root with a parent.
	s2 := NewInstance("R")
	_ = s2.AddEdge("R", "X", "l")
	_ = s2.AddEdge("X", "R", "l")
	if err := s2.Validate(); err == nil {
		t.Error("root with parent accepted")
	}

	// Non-leaf carrying a leaf type.
	s3 := NewInstance("R")
	_ = s3.RegisterType(NewType("t", "a"))
	_ = s3.SetLeaf("X", "t", "a")
	_ = s3.AddEdge("R", "X", "l")
	_ = s3.AddEdge("X", "Y", "l")
	if err := s3.Validate(); err == nil || !strings.Contains(err.Error(), "non-leaf") {
		t.Errorf("typed non-leaf: err=%v", err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := figure1(t)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	_ = c.AddEdge("B1", "A3", "author")
	if s.Equal(c) {
		t.Error("mutation of clone should break equality")
	}
	if slices.Contains(s.Graph().Children("B1"), "A3") {
		t.Error("clone shares graph with original")
	}
}

func TestCanonicalKeyDistinguishesValues(t *testing.T) {
	a := NewInstance("R")
	_ = a.RegisterType(NewType("t", "x", "y"))
	_ = a.AddEdge("R", "L", "leaf")
	_ = a.SetLeaf("L", "t", "x")

	b := NewInstance("R")
	_ = b.RegisterType(NewType("t", "x", "y"))
	_ = b.AddEdge("R", "L", "leaf")
	_ = b.SetLeaf("L", "t", "y")

	if a.CanonicalKey() == b.CanonicalKey() {
		t.Error("instances differing only in leaf value share a key")
	}

	// Differ only by edge label.
	c := NewInstance("R")
	_ = c.AddEdge("R", "L", "one")
	d := NewInstance("R")
	_ = d.AddEdge("R", "L", "two")
	if c.CanonicalKey() == d.CanonicalKey() {
		t.Error("instances differing only in edge label share a key")
	}
}

func TestStringRendering(t *testing.T) {
	s := figure1(t)
	out := s.String()
	for _, want := range []string{"root=R", "B1 -author-> A1", "T1 : title-type = VQDB"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestAddEdgeRelabelFails(t *testing.T) {
	s := NewInstance("a")
	if err := s.AddEdge("a", "b", "x"); err != nil {
		t.Fatalf("first AddEdge: %v", err)
	}
	if err := s.AddEdge("a", "b", "x"); err != nil {
		t.Fatalf("idempotent AddEdge: %v", err)
	}
	if err := s.AddEdge("a", "b", "y"); err == nil {
		t.Fatal("expected error when relabeling existing edge")
	}
	if l, ok := s.Graph().Label("a", "b"); !ok || l != "x" {
		t.Errorf("Label(a,b) = %q,%v after the refused relabel", l, ok)
	}
}

// TestCloneIndependence: a clone grows apart from its original, and a graph
// taken before a mutation is not changed by it.
func TestCloneIndependence(t *testing.T) {
	s := figure1(t)
	g := s.Graph()
	c := s.Clone()
	if !reflect.DeepEqual(s.Edges(), c.Edges()) || !reflect.DeepEqual(s.Objects(), c.Objects()) {
		t.Fatal("clone differs from original")
	}
	if err := c.AddEdge("B1", "T9", "title"); err != nil {
		t.Fatal(err)
	}
	if s.HasObject("T9") || slices.Contains(s.Graph().Children("B1"), "T9") {
		t.Error("mutating clone affected original")
	}
	if !slices.Contains(c.Graph().Children("B1"), "T9") {
		t.Error("the clone's graph lacks its new edge")
	}
	if err := s.AddEdge("B1", "T8", "title"); err != nil {
		t.Fatal(err)
	}
	if g.HasNode("T8") || slices.Contains(g.Children("B1"), "T8") || !slices.Contains(s.Graph().Children("B1"), "T8") {
		t.Error("a graph taken before AddEdge sees the new edge, or the next one does not")
	}
}
