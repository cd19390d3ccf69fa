package pathexpr

import (
	"pxml/internal/graph"
	"pxml/internal/model"
)

// Index is the label-partitioned successor table path evaluation reads: per
// object, the out-edges of each label as one run in child order. It is the
// weak instance graph's own table (graph.Successors), which the graph builds
// once and keeps, so every evaluation over one instance version — through
// the engine's cached handle or straight from the graph — reads the same
// one and a step touches only the edges of its label.
type Index = graph.Successors

// NewIndex returns g's index, building it if this is its first use.
func NewIndex(g *graph.Graph) *Index { return g.Successors() }

// TargetsIndexed is Path.Targets for a caller already holding the index.
func (p Path) TargetsIndexed(idx *Index) []model.ObjectID {
	return p.Targets(idx.Graph())
}
