package bipartite

// GreedyOrderedMatchingInto scans edge indices in the given order and keeps an
// edge exactly when it saturates a previously unmatched left vertex and a
// previously unmatched right vertex. This is the greedy edge-selection rule
// of Section 4.2: the caller encodes the policy (internal communications
// first, then non-decreasing weight) in the order.
//
// The returned matching may be imperfect if the greedy order dead-ends; the
// boolean reports whether every left vertex was saturated. For the replica
// graphs built by MC-FTSA the greedy order always completes (forced internal
// edges are vertex-disjoint and the residual graph is complete bipartite),
// but callers should still check ok.
//
// matchL and usedR are caller scratch, reused when they have the capacity
// (their contents need not be initialized) and allocated otherwise; pass nil
// for fresh storage. MC-FTSA runs one matching per precedence edge of every
// task, and reusing the scratch keeps that loop allocation-free.
func (g *Graph) GreedyOrderedMatchingInto(order []int, matchL Matching, usedR []bool) (Matching, bool) {
	if cap(matchL) < g.nLeft {
		matchL = make(Matching, g.nLeft)
	}
	matchL = matchL[:g.nLeft]
	for i := range matchL {
		matchL[i] = -1
	}
	if cap(usedR) < g.nRight {
		usedR = make([]bool, g.nRight)
	}
	usedR = usedR[:g.nRight]
	clear(usedR)
	for _, ei := range order {
		e := g.edges[ei]
		if matchL[e.L] == -1 && !usedR[e.R] {
			matchL[e.L] = e.R
			usedR[e.R] = true
		}
	}
	return matchL, matchL.Size() == g.nLeft
}
