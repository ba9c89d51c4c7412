// Section-2 walkthrough: why identifiers matter under assumption (B).
//
// Builds the layered tree T_r and a small instance H+, shows that the
// Id-oblivious verifier accepts both (they are locally indistinguishable),
// and that the id-based decider separates them because T_r must contain an
// identifier >= R(r).
//
//   $ ./identifiers_matter
#include <iostream>

#include "core/locald.h"

using namespace locald;

int main() {
  trees::TreeParams p;
  p.r = 2;
  p.f = local::IdBound::linear_plus(1);
  const auto R = p.capital_R();
  std::cout << "r = " << p.r << ", f(n) = " << p.f.name()
            << ", R(r) = f(2^{r+1} + r + 1) = " << R << "\n";

  const local::LabeledGraph T = trees::build_T(p);
  const local::LabeledGraph H =
      trees::build_patch_instance(p, trees::subtree_patch(p, 1, 2));
  std::cout << "T_r: " << T.node_count() << " nodes (the \"large\" instance)\n";
  std::cout << "H+:  " << H.node_count() << " nodes (a \"small\" instance)\n\n";

  // The Id-oblivious verifier for P' accepts both: without identifiers the
  // two are locally consistent with the same structure.
  const auto verifier = trees::make_P_prime_verifier(p);
  std::cout << verifier->name() << " on H+: "
            << (local::run_oblivious(*verifier, H).accepted ? "accept"
                                                            : "reject")
            << "\n";
  std::cout << verifier->name() << " on T_r: "
            << (local::run_oblivious(*verifier, T).accepted ? "accept"
                                                            : "reject")
            << "\n\n";

  // The id-based decider for P rejects T_r under EVERY bounded assignment:
  // with 2^{R+1}-1 nodes and one-to-one ids, some id reaches R(r).
  const auto decider = trees::make_P_decider(p);
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    const auto idsH = local::make_random_bounded(H.node_count(), p.f, rng);
    const auto idsT = local::make_random_bounded(T.node_count(), p.f, rng);
    std::cout << "trial " << trial << ": decider on H+ -> "
              << (local::run_local_algorithm(*decider, H, idsH).accepted
                      ? "accept"
                      : "reject")
              << ", on T_r -> "
              << (local::run_local_algorithm(*decider, T, idsT).accepted
                      ? "accept"
                      : "reject")
              << "\n";
  }

  // The indistinguishability audit behind "P not in LD*": every radius-1
  // ball of T_3 occurs in some yes-instance.
  trees::TreeParams p3;
  p3.r = 3;
  const auto audit = trees::audit_tree_coverage(p3, 10'000, 25, rng);
  std::cout << "\naudit (r=3): " << audit.patch_covered << "/"
            << audit.nodes_audited
            << " balls covered by yes-instances; canonical spot-checks: "
            << audit.canonical_checked << " compared, "
            << audit.canonical_mismatch << " mismatches\n";
  std::cout << "aligned-subtree reading covers only "
            << fixed(100.0 * audit.subtree_fraction(), 1)
            << "% (the reproduction finding documented in docs/ARCHITECTURE.md)\n";
  return 0;
}
