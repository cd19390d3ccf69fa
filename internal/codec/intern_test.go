package codec

import (
	"testing"

	"pxml/internal/core"
)

func internTestInstance(t *testing.T) *core.ProbInstance {
	t.Helper()
	ld := core.NewLoader("r", 8)
	r, a, b := ld.Number("r"), ld.Number("a"), ld.Number("b")
	ld.Declare(a)
	ld.Declare(b)
	ld.SetEdges(r, "child", []int32{a, b}, 1, 2)
	pi, err := ld.Instance()
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return pi
}

func TestCheckBinary(t *testing.T) {
	pi := internTestInstance(t)
	rec := AppendBinary(nil, pi)
	if err := CheckBinary(rec); err != nil {
		t.Fatalf("CheckBinary on valid record: %v", err)
	}
	// Flip a body byte: frame CRC must catch it without decoding.
	bad := append([]byte(nil), rec...)
	bad[len(bad)/2] ^= 0xff
	if err := CheckBinary(bad); err == nil {
		t.Fatal("CheckBinary accepted corrupt record")
	}
	if err := CheckBinary(rec[:3]); err == nil {
		t.Fatal("CheckBinary accepted truncated record")
	}
}

func TestDecodeBinaryInterned(t *testing.T) {
	pi := internTestInstance(t)
	rec := AppendBinary(nil, pi)
	in := NewInterner()
	a, err := DecodeBinaryBytesInterned(rec, in)
	if err != nil {
		t.Fatalf("interned decode: %v", err)
	}
	b, err := DecodeBinaryBytesInterned(rec, in)
	if err != nil {
		t.Fatalf("second interned decode: %v", err)
	}
	if a.Root() != b.Root() || a.NumObjects() != b.NumObjects() {
		t.Fatal("interned decodes disagree")
	}
	if in.Len() == 0 {
		t.Fatal("interner saw no strings")
	}
	// Same text must resolve to the same canonical allocation.
	if s1, s2 := in.Intern([]byte("child")), in.InternString("child"); s1 != s2 {
		t.Fatal("intern mismatch")
	}
	// Interned output must equal the plain decode byte for byte.
	plain, err := DecodeBinaryBytes(rec)
	if err != nil {
		t.Fatalf("plain decode: %v", err)
	}
	if got, want := string(AppendBinary(nil, a)), string(AppendBinary(nil, plain)); got != want {
		t.Fatal("interned decode round-trip differs from plain decode")
	}
}
