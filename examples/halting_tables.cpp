// Section-3 walkthrough: execution tables, fragments, G(M, r), and the
// deciders with and without identifiers.
//
//   $ ./halting_tables
#include <iostream>

#include "core/locald.h"

using namespace locald;

int main() {
  const tm::TuringMachine m0 = tm::halt_after(2, 0);  // in L0
  const tm::TuringMachine m1 = tm::halt_after(2, 1);  // in L1

  // The execution table of m0, padded to a power of two.
  const tm::ExecutionTable table = tm::ExecutionTable::build_padded_pow2(
      m0, 100);
  std::cout << "execution table of " << m0.name() << " ("
            << table.width() << "x" << table.height() << ", halts at step "
            << *table.halting_step() << "):\n"
            << table.to_string() << "\n";

  // The fragment collection C(M, r): all syntactically possible windows.
  tm::FragmentPolicy policy;
  policy.max_fragments = 200;
  const auto count = tm::count_fragments(m0, 3);
  std::cout << "|C(M, r)| exact count (3x3): " << count << "\n";

  // G(M, r) for both machines.
  for (const tm::TuringMachine* m : {&m0, &m1}) {
    halting::GmrParams params{*m, 1, 3, policy, false, 4096};
    const auto inst = halting::build_gmr(params);
    std::cout << "G(" << m->name() << ", 1): " << inst.graph.node_count()
              << " nodes, " << inst.fragment_count
              << " fragments glued to the pivot (exhaustive: "
              << (inst.fragments_exhaustive ? "yes" : "no") << ")\n";

    // The decider is gated on the verifier: one panel verifies each ball
    // once and runs the decider's id-dependent simulation on top.
    const std::shared_ptr<const local::LocalAlgorithm> verifier =
        halting::make_gmr_verifier(3, policy, false, 4096);
    const auto decider = halting::make_gmr_decider(verifier);
    const auto ids = local::make_consecutive(inst.graph.node_count());
    const auto runs =
        local::run_panel({verifier.get(), decider.get()}, inst.graph, &ids);
    std::cout << "  structure verifier (Id-oblivious): "
              << (runs[0].accepted ? "accept" : "reject") << "\n";
    std::cout << "  LD decider (simulates M for Id(v) steps): "
              << (runs[1].accepted ? "accept" : "reject")
              << "  (membership in P requires output 0)\n";
  }

  // The separation algorithm R fooling a bounded candidate.
  std::cout << "\nseparation algorithm R with candidate simulate-2:\n";
  const auto candidate =
      halting::candidate_bounded_simulation(3, policy, false, 4096, 2);
  for (const tm::TuringMachine& n :
       {tm::halt_after(1, 1), tm::halt_after(4, 1), tm::bouncer()}) {
    halting::GmrParams params{n, 1, 3, policy, false, 4096};
    std::cout << "  R(" << n.name() << ") = "
              << (halting::separation_accepts(*candidate, params)
                      ? "accept"
                      : "reject")
              << "\n";
  }
  std::cout << "halt_after(4,1) outlasts the budget and fools the candidate "
               "— Lemma 1 in action.\n";
  return 0;
}
