#include "graph/io.h"

#include <sstream>

namespace locald::graph {

std::string to_edge_list(const CsrGraph& g) {
  std::ostringstream os;
  for (const auto& [u, v] : g.edges()) {
    os << u << " " << v << "\n";
  }
  return os.str();
}

}  // namespace locald::graph
