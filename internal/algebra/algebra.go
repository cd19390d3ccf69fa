// Package algebra implements the probabilistic semistructured algebra of
// Section 5 of the PXML paper with the efficient local algorithms of
// Section 6: ancestor projection (Definitions 5.2–5.3, Section 6.1),
// selection with object, value and cardinality conditions (Definitions
// 5.4–5.6), and Cartesian product (Definition 5.7). It also provides the
// extension operators the paper defers to its longer version — descendant
// and single projection, and join as product-plus-selection — and
// global-semantics ("naive") counterparts of each operation built on the
// enumeration engine, which serve as the correctness oracle and the
// baseline for the ablation benchmarks.
//
// The Section 6 fast paths assume the weak instance graph is a tree, as the
// paper does ("we give an efficient algorithm with the assumption that all
// compatible instances are tree-structured"). Non-tree instances are
// rejected with ErrNotTree; the global-semantics functions handle DAGs.
package algebra

import (
	"errors"
	"time"
)

// ErrNotTree is returned by the Section 6 fast algorithms when the weak
// instance graph is not a tree. Use the *Global variants (or the bayes
// package for point queries) on DAG-structured instances.
var ErrNotTree = errors.New("algebra: weak instance graph is not a tree; use the global-semantics variant")

// ErrZeroProbability is returned by selection when the selection condition
// has probability zero (Definition 5.6's normalization is undefined).
var ErrZeroProbability = errors.New("algebra: selection condition has zero probability")

// ErrNotRepresentable is returned when an operation's exact result is not
// expressible as a probabilistic instance (the conditional distribution
// does not factor into per-object local functions). The global-semantics
// variants still compute the exact distribution over worlds.
var ErrNotRepresentable = errors.New("algebra: result distribution does not factor into a probabilistic instance; use the global-semantics variant")

// Timings records the per-phase costs the paper's Figure 7 breaks out: the
// experiments report the total query time (copy + locate + structure
// update + ℘ update + write) and, separately, the ℘-update time, which
// dominates ancestor projection.
type Timings struct {
	// Copy is the time selection spends giving its result the input's
	// content. The paper's implementation copies the instance; ours sets
	// up a core.ProbInstance.Overlay that shares it, so this is
	// independent of the instance's size. Projection builds its result
	// directly and records nothing here.
	Copy time.Duration
	// Locate is the time to evaluate the path expression (and prune to the
	// ancestor-projection plan).
	Locate time.Duration
	// Structure is the time to build the result's weak instance.
	Structure time.Duration
	// Update is the time to update the local interpretation ℘ — the
	// quantity plotted in Figure 7(b).
	Update time.Duration
}

// Total returns the sum of the recorded phases (excluding serialization,
// which the bench harness measures around the codec).
func (t Timings) Total() time.Duration {
	return t.Copy + t.Locate + t.Structure + t.Update
}

// stopwatch charges the time between laps to the phases of an optional
// Timings sink. With a nil sink it never reads the clock, which is how every
// served statement runs.
type stopwatch struct {
	sink *Timings
	last time.Time
}

func newStopwatch(sink *Timings) *stopwatch {
	sw := &stopwatch{sink: sink}
	if sink != nil {
		sw.last = time.Now()
	}
	return sw
}

// phase names the Timings field a lap is charged to. A lap names its phase
// rather than pointing into the sink, so the sink may be nil.
type phase int

const (
	phaseCopy phase = iota
	phaseLocate
	phaseStructure
	phaseUpdate
)

func (sw *stopwatch) lap(ph phase) {
	if sw.sink == nil {
		return
	}
	now := time.Now()
	d := now.Sub(sw.last)
	sw.last = now
	switch ph {
	case phaseCopy:
		sw.sink.Copy += d
	case phaseLocate:
		sw.sink.Locate += d
	case phaseStructure:
		sw.sink.Structure += d
	case phaseUpdate:
		sw.sink.Update += d
	}
}
