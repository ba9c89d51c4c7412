// The example labelled-graph property of Section 1.2 (proper colouring) with
// its global oracle and Id-oblivious local decider.
//
// It is the quickstart material for the library, the LD* baseline of the
// Section-1.1 matrix — a property where identifiers are provably
// unnecessary — and a sample Id-oblivious decider for tests.
//
// The decider is Id-oblivious and has horizon 1 (a radius-1 ball includes
// the edges among the centre's neighbours).
#pragma once

#include <memory>

#include "local/algorithm.h"
#include "local/property.h"

namespace locald::props {

// (G, x) with x(v) = colour in field 0. Member iff x is a proper colouring
// with colours in [0, k).
std::unique_ptr<local::Property> proper_coloring_property(int k);
std::unique_ptr<local::LocalAlgorithm> proper_coloring_decider(int k);

}  // namespace locald::props
