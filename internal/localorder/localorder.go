// Package localorder provides the edge-ordering computations that decoder
// nodes perform on their local views. It mirrors, on the node side, the
// orders defined centrally in package graph:
//
//   - the local order (weight, port), computable from a node's own input
//     alone (used by zero- and one-round decoders);
//   - the global intrinsic order (weight, smaller endpoint ID, port at that
//     endpoint), computable once a node has learned each neighbour's ID and
//     far-side port number (one exchange round).
//
// Keeping this logic in one place guarantees the oracle (which uses the
// graph methods) and the decoders (which use these helpers) agree bit for
// bit; the package tests check the two implementations against each other.
//
// See DESIGN.md §1 for the two edge orders and why canonical
// tie-breaking makes the MST unique.
package localorder

import (
	"mstadvice/internal/graph"
	"slices"
)

// PortsByLocal returns the ports 0..deg-1 sorted by the local order
// (weight, then port number). portW[p] is the weight of the edge at port p.
func PortsByLocal(portW []graph.Weight) []int {
	ports := make([]int, len(portW))
	for i := range ports {
		ports[i] = i
	}
	slices.SortFunc(ports, func(a, b int) int {
		wa, wb := portW[a], portW[b]
		if wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
		return a - b
	})
	return ports
}

// LocalRankToPort maps a 0-based local rank to the port holding it.
func LocalRankToPort(portW []graph.Weight, rank int) (int, bool) {
	if rank < 0 || rank >= len(portW) {
		return 0, false
	}
	return PortsByLocal(portW)[rank], true
}

// KeyAt computes the global order key of the edge at a port, given what
// the node knows after the ID exchange: its own ID and port, and the
// neighbour's ID and far-side port.
func KeyAt(w graph.Weight, selfID int64, selfPort int, nbrID int64, nbrPort int) graph.GlobalKey {
	if selfID <= nbrID {
		return graph.GlobalKey{W: w, MinID: selfID, PortAtMin: selfPort}
	}
	return graph.GlobalKey{W: w, MinID: nbrID, PortAtMin: nbrPort}
}

// PortsByGlobal returns the ports sorted by the global order. far(p)
// gives the far side of the edge at port p, as the ID exchange reports
// it: the neighbour's identifier and its port there.
func PortsByGlobal(portW []graph.Weight, selfID int64, far func(p int) (int64, int)) []int {
	keys := make([]graph.GlobalKey, len(portW))
	for p := range portW {
		nbrID, nbrPort := far(p)
		keys[p] = KeyAt(portW[p], selfID, p, nbrID, nbrPort)
	}
	ports := make([]int, len(portW))
	for i := range ports {
		ports[i] = i
	}
	slices.SortFunc(ports, func(a, b int) int {
		switch {
		case keys[a].Less(keys[b]):
			return -1
		case keys[b].Less(keys[a]):
			return 1
		default:
			return 0
		}
	})
	return ports
}

// GlobalRankToPort maps a 0-based global rank to its port; far is as
// for PortsByGlobal.
func GlobalRankToPort(portW []graph.Weight, selfID int64, far func(p int) (int64, int), rank int) (int, bool) {
	if rank < 0 || rank >= len(portW) {
		return 0, false
	}
	return PortsByGlobal(portW, selfID, far)[rank], true
}
