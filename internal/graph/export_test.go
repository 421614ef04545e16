package graph

// GlobalOrderWith is GlobalOrder with an explicit worker request, for
// the external tests; radix reports whether the packed radix path ran.
func GlobalOrderWith(g *Graph, workers int) (order []EdgeID, radix bool) {
	return g.globalOrder(workers)
}

// SortGlobalWith is SortGlobal reporting, for the external tests,
// whether the packed radix path ran.
func SortGlobalWith(g *Graph, workers int, es []EdgeID) (radix bool) {
	return g.sortGlobal(workers, es)
}
