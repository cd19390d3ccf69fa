package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pxml/internal/codec"
	"pxml/internal/core"
	"pxml/internal/gen"
	"pxml/internal/model"
)

func genTree(t testing.TB, depth, branch int, seed int64) *gen.Instance {
	t.Helper()
	in, err := gen.Generate(gen.Config{Depth: depth, Branch: branch, Labeling: gen.FR, LeafDomainSize: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSelectChainSurvivesEveryConsumer: the result of SELECT of SELECT of
// SELECT — an overlay taken from an overlay taken from an overlay — goes
// through the text and binary codecs, a fresh engine, ValidateLite and
// Rename exactly as its flattened deep copy does.
func TestSelectChainSurvivesEveryConsumer(t *testing.T) {
	ctx := context.Background()
	in := genTree(t, 3, 3, 5)
	r := rand.New(rand.NewSource(5))
	cur := in.PI
	var stmts []string
	for steps := 0; steps < 3; {
		p, o, ok := in.RandomSelection(r)
		if !ok {
			t.Fatal("no selection")
		}
		stmts = []string{fmt.Sprintf("PROB %s = %s", p, o), fmt.Sprintf("COUNT %s", p), "STATS", "MARGINALS"}
		res, err := New(cur).Run(ctx, fmt.Sprintf("SELECT %s = %s", p, o))
		if err != nil {
			continue // contradicts an earlier step; draw again
		}
		cur = res.Instance
		steps++
	}
	flat := cur.Clone()

	if err := cur.ValidateLite(); err != nil {
		t.Fatalf("ValidateLite: %v", err)
	}
	var text bytes.Buffer
	if err := codec.EncodeText(&text, cur); err != nil {
		t.Fatal(err)
	}
	fromText, err := codec.DecodeText(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("text round trip: %v", err)
	}
	bin := codec.AppendBinary(nil, cur)
	fromBin, err := codec.DecodeBinaryBytes(bin)
	if err != nil {
		t.Fatalf("binary round trip: %v", err)
	}
	if !core.Equal(fromText, flat, 0) || !core.Equal(fromBin, flat, 0) {
		t.Error("codec round trip of σσσ differs from its deep copy")
	}
	if !bytes.Equal(bin, codec.AppendBinary(nil, flat)) {
		t.Error("binary encoding of σσσ differs from its deep copy's")
	}
	ren := map[model.ObjectID]model.ObjectID{"n1": "x1", "n5": "x5"}
	if !core.Equal(cur.Rename(ren), flat.Rename(ren), 0) {
		t.Error("Rename of σσσ differs from Rename of its deep copy")
	}
	for _, stmt := range stmts {
		got, gerr := New(cur).Run(ctx, stmt)
		want, werr := New(flat).Run(ctx, stmt)
		if (gerr == nil) != (werr == nil) || (gerr == nil && got.Text != want.Text) {
			t.Errorf("%s on σσσ: %v / %v, on its deep copy: %v / %v", stmt, got, gerr, want, werr)
		}
	}
}

// TestConcurrentAlgebraStatements: many goroutines run SELECT, PROJECT,
// PROB and COUNT against one fresh engine. The first calls race the graph
// and tree-verdict memo and the instance's shared flags; every answer must
// equal the single-threaded one and the input must come out untouched
// (meaningful under -race).
func TestConcurrentAlgebraStatements(t *testing.T) {
	ctx := context.Background()
	in := genTree(t, 4, 3, 9)
	r := rand.New(rand.NewSource(9))
	p, o, ok := in.RandomSelection(r)
	if !ok {
		t.Fatal("no selection")
	}
	stmts := []string{
		fmt.Sprintf("SELECT %s = %s", p, o),
		fmt.Sprintf("PROJECT %s", p),
		fmt.Sprintf("PROB %s = %s", p, o),
		fmt.Sprintf("COUNT %s", p),
	}
	type answer struct {
		text string
		prob uint64
		inst []byte
	}
	read := func(eng *Engine, stmt string) (answer, error) {
		res, err := eng.Run(ctx, stmt)
		if err != nil {
			return answer{}, err
		}
		a := answer{text: res.Text}
		if res.Prob != nil {
			a.prob = math.Float64bits(*res.Prob)
		}
		if res.Instance != nil {
			a.inst = codec.AppendBinary(nil, res.Instance)
		}
		return a, nil
	}
	before := codec.AppendBinary(nil, in.PI)
	want := make([]answer, len(stmts))
	ref := New(in.PI.Clone())
	for i, s := range stmts {
		var err error
		if want[i], err = read(ref, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}

	eng := New(in.PI) // fresh: nothing memoized yet
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(stmts)
				got, err := read(eng, stmts[k])
				if err != nil {
					t.Errorf("%s: %v", stmts[k], err)
					return
				}
				if got.text != want[k].text || got.prob != want[k].prob || !bytes.Equal(got.inst, want[k].inst) {
					t.Errorf("%s: concurrent answer differs from the single-threaded one", stmts[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(codec.AppendBinary(nil, in.PI), before) {
		t.Error("concurrent statements changed the engine's instance")
	}
}
