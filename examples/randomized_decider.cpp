// Corollary 1: randomness replaces identifiers for the Section-3 property.
//
// Each node draws n_v = 4^{coin tosses until heads} and simulates M for n_v
// steps — no identifiers needed, success with probability 1 - o(1).
//
//   $ ./randomized_decider
#include <iostream>

#include "core/locald.h"

using namespace locald;

int main() {
  tm::FragmentPolicy policy;
  policy.max_fragments = 100;
  const auto decider = halting::make_randomized_gmr_decider(3, policy, false,
                                                            4096);

  halting::GmrParams yes{tm::halt_after(2, 0), 1, 3, policy, false, 4096};
  halting::GmrParams no{tm::zigzag_halt(2, 1), 1, 3, policy, false, 4096};
  const auto yes_inst = halting::build_gmr(yes).graph;
  const auto no_inst = halting::build_gmr(no).graph;

  const int trials = 30;
  const auto p_yes =
      local::estimate_acceptance(decider, yes_inst, trials, {{}, 99});
  const auto p_no =
      local::estimate_acceptance(decider, no_inst, trials, {{}, 100});

  std::cout << "randomized Id-oblivious decider: " << decider.name() << "\n";
  std::cout << "yes-instance G(" << yes.machine.name() << "): accepted "
            << p_yes.accepted << "/" << p_yes.trials
            << " (completeness p = 1)\n";
  std::cout << "no-instance  G(" << no.machine.name() << "): accepted "
            << p_no.accepted << "/" << p_no.trials
            << " (soundness q = 1 - o(1))\n\n";

  std::cout << "the paper's failure bound (1 - 1/sqrt(n))^n:\n";
  for (double n : {16.0, 64.0, 256.0, 1024.0, 4096.0}) {
    std::cout << "  n = " << n << ": "
              << halting::corollary1_failure_bound(n) << "\n";
  }
  return 0;
}
