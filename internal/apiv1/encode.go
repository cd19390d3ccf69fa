package apiv1

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// QueryResponse is the body of a successful query. AppendQueryResponse
// writes it; the struct is what that output is defined by (the server's
// fuzz test holds the two together) and what a client decodes into.
type QueryResponse struct {
	Text   string   `json:"text"`
	Prob   *float64 `json:"prob,omitempty"`
	Stored string   `json:"stored,omitempty"`
}

// AppendQueryResponse appends to dst exactly the bytes
// json.NewEncoder(w).Encode(QueryResponse{text, prob, stored}) writes —
// HTML-safe string escaping, the float format and its exponent thresholds,
// the trailing newline — without reflection, boxing or an encoder per
// response. A NaN or infinite prob appends nothing, as Encode then fails
// before writing.
func AppendQueryResponse(dst []byte, text string, prob *float64, stored string) []byte {
	n := len(dst)
	dst = appendJSONString(append(dst, `{"text":`...), text)
	if prob != nil {
		f := *prob
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst[:n]
		}
		// encoding/json's floatEncoder: %f, but %e outside [1e-6, 1e21), with
		// a two-digit exponent's leading zero dropped.
		dst = append(dst, `,"prob":`...)
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
			if e := len(dst) - 4; dst[e] == 'e' && dst[e+2] == '0' {
				dst[e+2] = dst[e+3]
				dst = dst[:e+3]
			}
		} else {
			dst = strconv.AppendFloat(dst, f, 'f', -1, 64)
		}
	}
	if stored != "" {
		dst = appendJSONString(append(dst, `,"stored":`...), stored)
	}
	return append(dst, '}', '\n')
}

// appendJSONString appends s quoted as encoding/json quotes a string with
// HTML escaping on: ", \, control bytes, <, > and & escaped, invalid UTF-8
// replaced by U+FFFD, U+2028 and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, to be copied as it is
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			if c == utf8.RuneError && size == 1 {
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			} else if c == '\u2028' || c == '\u2029' {
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		i++
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			continue
		}
		dst = append(dst, s[start:i-1]...)
		start = i
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
	}
	return append(append(dst, s[start:]...), '"')
}
