package govern

import (
	"math"

	"pxml/internal/core"
	"pxml/internal/sets"
)

// Profile is the upfront width/cost estimate for one probabilistic
// instance: the structural quantities that determine how expensive
// inference can get, computed in O(objects + OPF entries) without
// allocating any factor tables. MaxCPTCells mirrors bayes.Compile's
// CPT construction cell for cell, so "Profile says it fits" and "the
// compile's own pre-allocation guard passes" agree.
//
// Cell counts are float64 on purpose: a width-bomb's CPT size overflows
// int64 long before it overflows float64's exponent, and the estimator
// must refuse such instances, not wrap around into a plausible number.
type Profile struct {
	// Objects reachable from the root (only those enter the BN).
	Objects int
	// Tree reports whether the weak instance graph is a tree (the
	// ε-algorithms apply; no BN compile needed for path queries).
	Tree bool
	// MaxFanout is the largest potential child set in any OPF entry.
	MaxFanout int
	// MaxOPFEntries is the entry count of the widest local distribution
	// (an OPF over b optional children holds up to 2^b entries).
	MaxOPFEntries int
	// TotalOPFEntries sums OPF and VPF entries over reachable objects —
	// the dominant per-sample and per-ε-pass scan cost.
	TotalOPFEntries int64
	// MaxCPTCells is the cell count of the largest conditional
	// probability table bayes.Compile would materialize.
	MaxCPTCells float64
	// TotalCPTCells sums predicted CPT cells over the compiled network —
	// a lower bound on exact-inference work before elimination even starts.
	TotalCPTCells float64
	// WorldsFloor is a lower bound on |Domain(I)|: each positive root
	// child set yields at least one distinct possible world.
	WorldsFloor float64
	// WidestObject names the object owning MaxCPTCells (diagnostics).
	WidestObject string
}

// Measure computes the Profile for pi. It never allocates proportional
// to the predicted cost — that is the point.
func Measure(pi *core.ProbInstance) Profile {
	p := Profile{Tree: pi.IsTree(), WorldsFloor: 1}
	g := pi.WeakInstance.Graph()
	root := pi.Root()
	// states holds, by object number, each BN variable's state count; 0
	// marks an object outside the network. Only objects reachable from the
	// root enter it. The shape pass behind IsTree has usually shown that to
	// be all of V already; only otherwise is the graph walked for the
	// reachable set.
	states := make([]int, len(pi.Ranks()))
	var reached []bool
	if !pi.AllReachable() {
		reached = make([]bool, len(states))
		for _, o := range g.ReachableFrom(root) {
			if v, ok := g.Vertex(o); ok {
				reached[v] = true
			}
		}
	}

	// First pass: per-object BN state counts, mirroring bayes.Compile
	// (positive OPF entries for interior objects, positive VPF entries
	// or a single "present" state for leaves, +1 absent for non-roots).
	pi.EachObject(func(ob core.Object) {
		if reached != nil && !reached[ob.Num] {
			return
		}
		p.Objects++
		n := 0
		if !ob.Leaf {
			if opf := ob.OPF; opf != nil {
				k := opf.Len()
				if k > p.MaxOPFEntries {
					p.MaxOPFEntries = k
				}
				p.TotalOPFEntries += int64(k)
				opf.Each(func(c sets.Set, pr float64) {
					if len(c) > p.MaxFanout {
						p.MaxFanout = len(c)
					}
					if pr > 0 {
						n++
					}
				})
				if ob.ID == root && n > 1 {
					p.WorldsFloor = float64(n)
				}
			}
		} else if vpf := ob.VPF; vpf != nil {
			p.TotalOPFEntries += int64(vpf.Len())
			vpf.Each(func(_ string, pr float64) {
				if pr > 0 {
					n++
				}
			})
		} else {
			n = 1
		}
		if ob.ID != root {
			n++
		}
		// A zero-state variable is invalid input, not a cost blowup; count
		// it as 1 so products stay meaningful.
		states[ob.Num] = max(n, 1)
	})

	// Second pass: predicted CPT cells per object — its own cardinality
	// times the product of its kept (reachable) parents' cardinalities.
	// Objects come in sorted order, so of several equally wide the
	// smallest id is the one named.
	pi.EachObject(func(ob core.Object) {
		if states[ob.Num] == 0 {
			return
		}
		cells := float64(states[ob.Num])
		for _, par := range g.Pred(ob.Num) {
			if n := states[par]; n > 0 {
				cells *= float64(n)
			}
		}
		p.TotalCPTCells += cells
		if cells > p.MaxCPTCells {
			p.MaxCPTCells = cells
			p.WidestObject = ob.ID
		}
	})
	return p
}

// ClampSteps converts a float64 cell/step count to an int64 suitable
// for Governor bookkeeping without overflow.
func ClampSteps(f float64) int64 {
	if f >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	if f < 0 {
		return 0
	}
	return int64(f)
}
