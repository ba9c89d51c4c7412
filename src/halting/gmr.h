// Assembly of G(M, r) (Section 3.2, Figure 2).
//
// The instance contains the padded execution table T of M and the fragment
// collection C(M, r); every node of a non-natural fragment border is glued
// to the pivot — the table's top-left start cell. Each node carries
// (M, r) in its label (the machine description is embedded verbatim), plus
// its role: a table/fragment cell with (x mod 3, y mod 3) orientation and
// cell code, or a pyramid node (Appendix A mode).
//
// Two documented deviations from the paper, chosen for tractability and
// recorded in docs/ARCHITECTURE.md:
//  - fragments are glued with orientation offset (0, 0) instead of all nine
//    (mod 3) offset variants; the offsets carry no information about M's
//    execution, and builder, verifier and neighbourhood generator share the
//    convention;
//  - the quadtree pyramids of Appendix A are available as an option whose
//    structure is validated by the global oracle and degree checks; the
//    fully label-free local quadtree verifier the paper asserts "by design"
//    is out of scope (the plain-grid mode documents the grid/torus caveat).
#pragma once

#include <optional>

#include "local/labeled_graph.h"
#include "local/property.h"
#include "tm/fragments.h"

namespace locald::halting {

inline constexpr std::int64_t kGmrTag = 10;
// Roles distinguish the execution table's grid from fragment grids, which
// makes the pivot's glue edges locally recognizable (the paper's
// "inter-grid edges"): an edge is a glue edge iff its endpoints' grids
// differ. The role carries no information about M's execution.
inline constexpr std::int64_t kRoleTableCell = 0;
inline constexpr std::int64_t kRolePyramid = 1;
inline constexpr std::int64_t kRoleFragmentCell = 2;

struct GmrParams {
  tm::TuringMachine machine;
  int r = 1;
  int fragment_size = 3;  // k >= 3; must be 2^h in pyramidal mode
  tm::FragmentPolicy policy;
  bool pyramidal = false;
  long long step_budget = 4096;  // build-time halting budget
};

// Cell label: [kGmrTag, r, role, x%3, y%3, code, M-encoding...].
local::Label cell_label(const tm::TuringMachine& m, int r, int x, int y,
                        int code, std::int64_t role = kRoleTableCell);
local::Label pyramid_label(const tm::TuringMachine& m, int r);

// Decoded label contents.
struct DecodedLabel {
  int r = 0;
  std::int64_t role = kRoleTableCell;
  bool is_cell() const { return role != kRolePyramid; }
  int xm3 = 0;
  int ym3 = 0;
  int code = 0;
  std::vector<std::int64_t> machine_encoding;
};
std::optional<DecodedLabel> decode_label(const local::Label& l);
// The same validation without copying M: machine_encoding stays empty.
std::optional<DecodedLabel> decode_header(const local::Label& l);
// Whether two labels carry the same M-encoding, compared in place.
bool same_machine(const local::Label& a, const local::Label& b);

struct GmrInstance {
  local::LabeledGraph graph;
  graph::NodeId pivot = 0;   // the table's start cell (0, 0)
  int table_side = 0;        // padded table is table_side x table_side
  long long halting_step = 0;
  std::size_t fragment_count = 0;
  unsigned long long exact_fragment_count = 0;  // DP count (pre-cap)
  bool fragments_exhaustive = false;
};

// Builds G(M, r). The machine must halt within params.step_budget.
GmrInstance build_gmr(const GmrParams& params);

// Low-level assembly from an explicit table and fragment collection; used
// by build_gmr and by the neighbourhood generator's prefix construction
// (which glues C to a table prefix of a possibly non-halting machine).
GmrInstance assemble_gmr(const tm::TuringMachine& m, int r,
                         const tm::ExecutionTable& table,
                         const tm::FragmentCollection& collection,
                         bool pyramidal);

// Property P = { G(M, r) : M outputs 0 } for instances built with the given
// structural parameters (k, policy, pyramidal). The oracle decodes M from
// the labels, rebuilds the expected instance, and compares size, label
// multiset, edge count — a reconstruction oracle adequate for the
// controlled experiment families (documented in docs/ARCHITECTURE.md).
std::unique_ptr<local::Property> property_gmr_outputs0(
    int fragment_size, tm::FragmentPolicy policy, bool pyramidal,
    long long step_budget);

}  // namespace locald::halting
