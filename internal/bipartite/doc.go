// Package bipartite implements bipartite graphs and the matching algorithms
// the scheduler relies on: Hopcroft–Karp maximum matching, bottleneck-optimal
// perfect matching (binary search over edge weights, Section 4.2 of the
// paper) and the greedy robust matching used by MC-FTSA.
//
// A graph from New(nLeft, nRight) has left vertices [0, nLeft) and right
// vertices [0, nRight). MC-FTSA builds one such graph per precedence edge —
// left nodes are the predecessor's replicas, right nodes the successor's —
// and the extracted perfect matching is what cuts the edge's message count
// from (ε+1)² to ε+1 while preserving the fault-tolerance guarantee.
package bipartite
