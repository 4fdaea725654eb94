// The classical greedy (2k-1)-spanner of Althöfer, Das, Dobkin, Joseph and
// Soares (row [4] of the paper's Fig. 1). Scan the edges in a fixed order;
// keep (u,v) iff the current spanner distance between u and v exceeds 2k-1.
// The result has girth > 2k, hence size O(n^{1+1/k}) by the Moore bound —
// for k = log n this is the textbook linear-size, O(log n)-stretch skeleton
// whose distributed infeasibility motivates Section 2 of the paper (a vertex
// would have to survey its whole Theta(log n)-neighborhood).
#pragma once

#include "graph/graph.h"
#include "spanner/spanner.h"

namespace ultra::baselines {

// Sequential; one bidirectional dist <= 2k-1 search per candidate edge
// (baselines/hop_reach.h), O(m * ball(2k-1)) time in the worst case.
[[nodiscard]] spanner::Spanner greedy_spanner(const graph::Graph& g,
                                              unsigned k);

}  // namespace ultra::baselines
