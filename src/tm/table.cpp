#include "tm/table.h"

#include <bit>
#include <sstream>

namespace locald::tm {

ExecutionTable ExecutionTable::build(const TuringMachine& m, int height,
                                     int width) {
  LOCALD_CHECK(height >= 1 && width >= 1, "table dimensions must be positive");
  LOCALD_CHECK(width >= height,
               "width must cover the head's maximal excursion (>= height)");
  ExecutionTable t(m, width, height);
  t.cells_.resize(static_cast<std::size_t>(width) * height);
  Configuration c;
  for (int y = 0; y < height; ++y) {
    LOCALD_ASSERT(c.head < width, "head escaped the table");
    for (int x = 0; x < width; ++x) {
      const int symbol =
          x < static_cast<int>(c.tape.size()) ? c.tape[static_cast<std::size_t>(x)] : 0;
      const int code = (x == c.head) ? m.head_cell(c.state, symbol)
                                     : m.plain_cell(symbol);
      t.cells_[static_cast<std::size_t>(y) * width + x] = code;
    }
    if (m.is_halting(c.state)) {
      if (!t.halting_step_.has_value()) {
        t.halting_step_ = y;
      }
      continue;  // frozen: next row copies this one
    }
    if (y + 1 < height) {
      step(m, c);
    }
  }
  return t;
}

ExecutionTable ExecutionTable::build_padded_pow2(const TuringMachine& m,
                                                 long long max_steps,
                                                 int minimum_size) {
  const RunOutcome out = run_machine(m, max_steps);
  LOCALD_CHECK(out.halted, "machine '" + m.name() +
                               "' did not halt within the step budget");
  const long long rows = out.steps + 1;
  std::uint64_t size = std::bit_ceil(static_cast<std::uint64_t>(
      std::max<long long>(rows, minimum_size)));
  return build(m, static_cast<int>(size), static_cast<int>(size));
}

int ExecutionTable::cell(int x, int y) const {
  LOCALD_CHECK(x >= 0 && x < width_ && y >= 0 && y < height_,
               "table coordinate out of range");
  return cells_[static_cast<std::size_t>(y) * width_ + x];
}

std::string ExecutionTable::to_string() const {
  std::ostringstream os;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      os << machine_->cell_to_string(cell(x, y));
      os << " ";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace locald::tm
