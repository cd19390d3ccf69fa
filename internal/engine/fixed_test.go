package engine

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// fixed9Cases are the values the differential starts from: zeros, the
// fast path's edges, powers of ten and their neighbours, ties at the ninth
// decimal (odd multiples of 2^-10) and values that round up into the next
// power of ten.
func fixed9Cases() []float64 {
	cs := []float64{0, math.Copysign(0, -1), 1, 0.5, 0.25, 1.0 / 1024, 3.0 / 1024, 1023.0 / 1024,
		0.9999999995, 0.99999999949, 0.9999999996, 9.9999999996, 99999999.9999999996, 1e8, 1e8 - 1e-7,
		5e-10, 4.9e-10, 9.5e-9, 9.4e-9, 1e-9, 1.5e-9, 2.5e-9, -0.5, -1e-12, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 0.2, 0.3, 0.56, 0.8}
	for e := -12; e <= 10; e++ {
		x := math.Pow(10, float64(e))
		cs = append(cs, x, math.Nextafter(x, 0), math.Nextafter(x, 2*x), x-x*5e-11, x-x*4e-11)
	}
	return cs
}

func checkFixed9(t *testing.T, p float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, p, 'f', 9, 64)
	if got := appendFixed9([]byte("x"), p); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("appendFixed9(%v) [%016x] = %q, AppendFloat 'f' 9 = %q", p, math.Float64bits(p), got[1:], want)
	}
}

// FuzzWithProbDifferential holds appendFixed9, which renders every
// probability the engine answers with, to strconv.AppendFloat(p, 'f', 9,
// 64) byte for byte on any float64 bit pattern and on the result of
// scaling it into the fast path's range.
func FuzzWithProbDifferential(f *testing.F) {
	for _, p := range fixed9Cases() {
		f.Add(math.Float64bits(p))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		p := math.Float64frombits(bits)
		checkFixed9(t, p)
		if _, exp := math.Frexp(p); !math.IsInf(p, 0) && !math.IsNaN(p) && p != 0 {
			checkFixed9(t, math.Ldexp(p, -exp-int(bits%40))) // into [2^-40, 1)
		}
	})
}

// TestWithProbMillion: a million random probabilities — uniform, products
// of a few (as chain and path probabilities are), near ties at the ninth
// decimal and near powers of ten — render as AppendFloat renders them.
func TestWithProbMillion(t *testing.T) {
	for _, p := range fixed9Cases() {
		checkFixed9(t, p)
	}
	r := rand.New(rand.NewSource(49))
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		var p float64
		switch i % 5 {
		case 0:
			p = r.Float64()
		case 1:
			p = r.Float64() * r.Float64() * r.Float64() * r.Float64()
		case 2: // within a few ulps of a tie k.5e-9
			p = (float64(r.Intn(2_000_000_000)) + 0.5) * 1e-9
			p = math.Float64frombits(math.Float64bits(p) + uint64(r.Intn(5)) - 2)
		case 3: // within a few ulps of 10^e or just under its rounding
			x := math.Pow(10, float64(r.Intn(20)-10))
			if r.Intn(2) == 0 {
				x -= 5e-10
			}
			p = math.Float64frombits(math.Float64bits(x) + uint64(r.Intn(9)) - 4)
		default:
			p = math.Ldexp(r.Float64(), r.Intn(60)-33)
		}
		checkFixed9(t, p)
	}
}

func BenchmarkWithProb(b *testing.B) {
	ps := []float64{0.56, 0.8, 0.000123456789, 0.9999999996, 1}
	var buf [32]byte
	b.Run("appendFixed9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			appendFixed9(buf[:0], ps[i%len(ps)])
		}
	})
	b.Run("AppendFloat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strconv.AppendFloat(buf[:0], ps[i%len(ps)], 'f', 9, 64)
		}
	})
}
