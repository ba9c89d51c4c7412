// Local deciders for the Section-2 property.
//
//  - The P' verifier is Id-oblivious with horizon 1: it accepts exactly the
//    patch instances and T_r ("the input is small, or large — never in
//    between"), implementing the paper's coordinate checks plus the pivot's
//    border reconstruction.
//  - The P decider reads identifiers: gated on the P' verifier, it
//    additionally rejects at any node whose identifier is at least
//    R(r) = f(2^{r+1} + 1). Under assumption (B) every patch instance keeps
//    all ids below R(r) while T_r, having 2^{R+1} - 1 nodes, must contain an
//    id >= R(r) under ANY one-to-one assignment — this is how identifiers
//    leak n (Section 2).
#pragma once

#include <memory>

#include "local/algorithm.h"
#include "trees/construction.h"

namespace locald::trees {

// Id-oblivious, horizon 1. Decides P' = patches + { T_r }.
std::unique_ptr<local::LocalAlgorithm> make_P_prime_verifier(
    const TreeParams& p);

// Id-aware, horizon 1. Decides P = patches under assumption (B) with
// bound f. (Not correct under unbounded identifiers — that is the point.)
std::unique_ptr<local::LocalAlgorithm> make_P_decider(const TreeParams& p);

}  // namespace locald::trees
