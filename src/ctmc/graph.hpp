// Graph algorithms on the sparsity pattern of a transition matrix.
//
// Qualitative model-checking steps (the Prob0/Prob1 precomputations for
// unbounded until, and the bottom-strongly-connected-component analysis
// behind the steady-state operator) only depend on which transitions exist,
// not on their rates.  These routines treat a square CsrMatrix as a
// directed graph: edge s -> s' iff a non-zero entry (s, s') is stored.
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/csr.hpp"
#include "util/state_set.hpp"

namespace csrl {

/// States reachable from `from` (inclusive) along stored edges.
StateSet forward_reachable(const CsrMatrix& adjacency, const StateSet& from);

/// States that can reach `targets` along a path whose intermediate states
/// (i.e. all states before the target is hit, including the start state)
/// lie in `through`.  Targets themselves are always included in the result.
/// This is the classic Prob0-style backward search of PCTL/CSL checking.
StateSet backward_reachable(const CsrMatrix& adjacency, const StateSet& targets,
                            const StateSet& through);

/// Strongly connected components in reverse topological order of the
/// condensation (Tarjan); each component lists its member states.
std::vector<std::vector<std::size_t>> strongly_connected_components(
    const CsrMatrix& adjacency);

/// Bottom strongly connected components: SCCs with no edge leaving them.
/// Every infinite CTMC path eventually settles in one of these, which is
/// what grounds the steady-state operator's semantics.
std::vector<StateSet> bottom_sccs(const CsrMatrix& adjacency);

}  // namespace csrl
