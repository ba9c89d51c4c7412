// The Id-oblivious structure verifier for G(M, r) — property (P2) and the
// Appendix-A checklist, adapted to the plain-grid mode.
//
// Horizon-2 checks performed at every node:
//  1. all labels share the same (M, r) and decode to a valid machine;
//  2. cell-cell edges carry a consistent (mod 3) grid relation, and the
//     radius-2 relative geometry is rigid (BFS position assignment closes);
//  3. every cell agrees with the 2x3 window rules of M: interior windows
//     are forced, left/right edges follow the wall / natural-side /
//     glued-boundary semantics, rows without a row above must be the blank
//     initial configuration (table row 0) or be glued to the pivot
//     (fragment top rows), rows without a row below must be head-free
//     unless glued (natural bottoms / frozen table bottoms);
//  4. the pivot (start cell with glue degree >= 2) groups its glued
//     neighbours into fragment borders, rebuilds every fragment via the
//     Border property, and checks the resulting set EQUALS C(M, r)
//     generated by Lemma 2 from the machine description — the paper's
//     step 6.
//
// Every check reads B(v, 2) in two parts. A radius-1 fact of each node x
// of N[v] covers step 1, the plain-grid mode gate and the pivot's glue
// degree: whether x decodes and every neighbour shares its (M, r), whether
// x or a neighbour has the pyramid role, and x's glue degree. Every member
// of B(v, 2) is x or a neighbour of some such x. Steps 2-4 walk the
// centre's grid patch, a
// constant-size window except at the pivot. evaluate(ball) runs both parts
// on an extracted radius-2 ball, the semantic definition. evaluate_all(g)
// runs the same functions on the host: facts once per node, then one check
// per centre. It extracts no ball, so a hub's degree is paid by its own
// fact and by the few centres whose grid patch reaches it, not by every
// ball around it.
//
// Known gap (documented in docs/ARCHITECTURE.md): exact global rigidity of the grids
// is what Appendix A's quadtree pyramids provide; in plain-grid mode a
// torus-like quotient of a (hypothetical) wrap-consistent execution would
// pass the local checks. Tests cross-validate the verifier against the
// reconstruction oracle on both valid and mutated instances.
#pragma once

#include <memory>

#include "halting/gmr.h"
#include "local/algorithm.h"

namespace locald::halting {

std::unique_ptr<local::LocalAlgorithm> make_gmr_verifier(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget);

}  // namespace locald::halting
