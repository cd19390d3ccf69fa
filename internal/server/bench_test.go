package server

import (
	"bytes"
	"fmt"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/govern"
	"pxml/internal/pathexpr"
)

// putBody is the text-codec body of a generated FR tree of the given depth
// at branch 4: depth 4 is ingest_mix's 341-object instance, depth 6 the
// 5 461-object tree point_hot serves.
func putBody(tb testing.TB, depth int) []byte {
	tb.Helper()
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: 4, Labeling: gen.FR, LeafDomainSize: 2, Seed: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeText(&buf, in.PI); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var (
	benchProfile govern.Profile
	benchIndex   *pathexpr.Index
	benchRecord  []byte
)

// BenchmarkPutPipeline times what one served PUT and the first query after
// it ask of the library, stage by stage and end to end, on one instance per
// iteration (every timed stage starts from a fresh decode, so nothing a
// previous iteration memoized is measured as free): the text decode,
// ValidateLite, the binary record the store appends, and the governor
// profile plus path index the engine builds on first use. No store, no
// fsync, no HTTP: those are the end-to-end harness's (e2ebench).
func BenchmarkPutPipeline(b *testing.B) {
	decode := func(b *testing.B, body []byte) *core.ProbInstance {
		pi, err := codec.DecodeText(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		return pi
	}
	validate := func(b *testing.B, pi *core.ProbInstance) {
		if err := pi.ValidateLite(); err != nil {
			b.Fatal(err)
		}
	}
	profileIndex := func(pi *core.ProbInstance) {
		benchProfile = govern.Measure(pi)
		benchIndex = pathexpr.NewIndex(pi.WeakInstance.Graph())
	}
	// untimed runs fn outside the clock and the allocation count.
	untimed := func(b *testing.B, fn func()) {
		b.StopTimer()
		fn()
		b.StartTimer()
	}
	for _, depth := range []int{4, 6} {
		body := putBody(b, depth)
		n := decode(b, body).NumObjects()
		stages := []struct {
			name string
			run  func(b *testing.B)
		}{
			{"decode", func(b *testing.B) { decode(b, body) }},
			{"validate", func(b *testing.B) {
				var pi *core.ProbInstance
				untimed(b, func() { pi = decode(b, body) })
				validate(b, pi)
			}},
			{"encode", func(b *testing.B) {
				var pi *core.ProbInstance
				untimed(b, func() { pi = decode(b, body); validate(b, pi) })
				benchRecord = codec.AppendBinary(benchRecord[:0], pi)
			}},
			{"profile+index", func(b *testing.B) {
				var pi *core.ProbInstance
				untimed(b, func() { pi = decode(b, body); validate(b, pi) })
				profileIndex(pi)
			}},
			{"whole", func(b *testing.B) {
				pi := decode(b, body)
				validate(b, pi)
				benchRecord = codec.AppendBinary(benchRecord[:0], pi)
				profileIndex(pi)
			}},
		}
		for _, st := range stages {
			b.Run(fmt.Sprintf("%s/objects=%d", st.name, n), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.run(b)
				}
			})
		}
	}
}
