package codec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// fastFloat converts the longest prefix of b of the form
// digits[.digits][(e|E)[±]digits], and returns its value and length, when
// the prefix has at least one mantissa digit, at most 19 significant digits
// and at most three exponent digits and its decimal exponent lies in the
// table's range. ok is false for any other prefix and for the rare value
// whose rounding Eisel–Lemire cannot settle (a halfway case). When ok is
// true, f is the correctly rounded value of the prefix, which is what
// strconv.ParseFloat returns for it (DESIGN §34). The text encoder writes
// probabilities with strconv.FormatFloat(p, 'g', -1, 64): 16 to 18
// significant digits, an exponent only below 1e-4.
func fastFloat(b []byte) (f float64, n int, ok bool) {
	i, man, sig := mantissaDigits(b, 0, 0, 0)
	digits, frac := i, 0 // mantissa digits, and those after the point
	if i < len(b) && b[i] == '.' {
		var j int
		j, man, sig = mantissaDigits(b, i+1, man, sig)
		frac = j - i - 1
		digits += frac
		i = j
	}
	if digits == 0 || sig > 19 {
		return 0, 0, false
	}
	exp := 0
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		start := i
		for ; i < len(b) && i-start < 4 && b[i]-'0' < 10; i++ {
			exp = exp*10 + int(b[i]-'0')
		}
		if i == start || i-start > 3 {
			return 0, 0, false
		}
		if neg {
			exp = -exp
		}
	}
	f, ok = eiselLemire(man, exp-frac)
	return f, i, ok
}

// mantissaDigits reads the digits of b from i on into man, eight at a time
// while eight are there, and returns where they end. sig counts the
// significant digits taken; past 19 man has overflowed and only sig means
// anything.
func mantissaDigits(b []byte, i int, man uint64, sig int) (int, uint64, int) {
	for ; i+8 <= len(b); i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		d := v - 0x3030303030303030
		if sig == 0 {
			// The first byte is the lowest: trailing zero bytes are
			// leading '0's, which are not significant.
			sig = 8 - bits.TrailingZeros64(d)/8
		} else {
			sig += 8
		}
		man = man*1e8 + eightDigitsValue(d)
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d >= 10 {
			break
		}
		if sig > 0 || d > 0 {
			sig++
			man = man*10 + uint64(d)
		}
	}
	return i, man, sig
}

// eightDigits reports whether all eight bytes of v are ASCII digits: no
// byte exceeds '9' once 0x46 is added, and none is below '0'.
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// eightDigitsValue returns the number the eight digit values of d spell,
// its lowest byte the most significant digit: neighbouring digits are
// combined into two-digit, then four-digit, then the eight-digit value with
// three multiplications.
func eightDigitsValue(d uint64) uint64 {
	d = d*10 + d>>8
	const mask = 0x000000FF000000FF
	d = ((d&mask)*(100+1000000<<32) + (d>>16&mask)*(1+10000<<32)) >> 32
	return uint64(uint32(d))
}

// The range of decimal exponents pow10 covers. A probability written by
// FormatFloat has a decimal exponent near -17, -21 below 1e-4.
const (
	minPow10 = -96
	maxPow10 = 32
)

// pow10[e-minPow10] is 10^e as a 128-bit mantissa {lo, hi}, normalized to
// [2^127, 2^128) and rounded down: the table Eisel–Lemire multiplies by.
var pow10 = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	for e := minPow10; e <= maxPow10; e++ {
		m := new(big.Int)
		if e >= 0 {
			p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
			m.Rsh(m.Lsh(p, 128), uint(p.BitLen()))
		} else {
			// 2^(127+bitlen) / 10^-e lies in (2^127, 2^128).
			p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
			m.Quo(m.Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		}
		var buf [16]byte
		m.FillBytes(buf[:])
		t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	return t
}()

// eiselLemire returns man × 10^exp10 correctly rounded, or ok false when
// exp10 is outside the table or the 128-bit product cannot decide the
// rounding (Lemire, "Number Parsing at a Gigabyte per Second", 2021; the
// steps follow strconv's own eiselLemire64).
func eiselLemire(man uint64, exp10 int) (f float64, ok bool) {
	if man == 0 {
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := pow10[exp10-minPow10]
	// Normalize man and estimate the binary exponent: 217706/2^16 is
	// log2(10) to the precision the table's range needs.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The low bits may carry into the kept ones: widen to the
		// table's full 128 bits.
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		// Exactly halfway between two floats: left to ParseFloat.
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		// Subnormal, infinite or NaN territory.
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}
