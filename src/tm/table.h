// Execution tables: the grid representation of a machine run (Section 3.2).
//
// Row y holds the configuration before step y; rows repeat the halted
// configuration once the machine halts ("frozen" halting semantics), which
// is what allows padding a table to a power-of-two height for the pyramid
// augmentation of Appendix A. Cells are stored as the machine's cell codes
// (plain symbol, or head+state+symbol).
#pragma once

#include <optional>
#include <vector>

#include "tm/machine.h"
#include "tm/run.h"

namespace locald::tm {

class ExecutionTable {
 public:
  // Builds a height x width table. Requires width >= height so the head
  // (which moves at most one cell per step) cannot leave the grid. Works for
  // non-halting machines too: only `height - 1` steps are ever simulated.
  static ExecutionTable build(const TuringMachine& m, int height, int width);

  // Natural table of a halting machine: runs it, takes s+1 rows, and pads
  // both dimensions to the next power of two (>= minimum_size).
  static ExecutionTable build_padded_pow2(const TuringMachine& m,
                                          long long max_steps,
                                          int minimum_size = 1);

  int width() const { return width_; }
  int height() const { return height_; }
  const TuringMachine& machine() const { return *machine_; }

  int cell(int x, int y) const;

  // Step at which the machine halted, if it did within the table.
  std::optional<long long> halting_step() const { return halting_step_; }

  std::string to_string() const;  // ASCII art for debugging/examples

 private:
  ExecutionTable(const TuringMachine& m, int width, int height)
      : machine_(&m), width_(width), height_(height) {}

  const TuringMachine* machine_;
  int width_;
  int height_;
  std::vector<int> cells_;  // row-major
  std::optional<long long> halting_step_;
};

}  // namespace locald::tm
