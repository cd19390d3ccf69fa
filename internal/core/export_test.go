package core

// RebuildChildSets drops pi's bitset view and reads every row of a new
// one, for BenchmarkChildSets: what readers that between them visit every
// object of a version pay.
func RebuildChildSets(pi *ProbInstance) *ChildSets {
	pi.dropChildSets()
	cs := pi.ChildSets()
	for v := range cs.n {
		if cs.OPF(v) != nil {
			cs.row(v)
		}
	}
	return cs
}

// RowsRead returns how many objects' rows pi's current view has read, and
// how many of them it kept; 0 and 0 when it has none.
func RowsRead(pi *ProbInstance) (read, kept int) {
	pi.graphMu.Lock()
	cs := pi.memo.childSets
	pi.graphMu.Unlock()
	if cs != nil && cs.interp == pi.interp {
		for i := range cs.rows {
			if c := cs.rows[i].Load(); c != nil {
				for j := range c {
					if r := c[j].Load(); r != nil {
						read++
						if r != once {
							kept++
						}
					}
				}
			}
		}
	}
	return read, kept
}
