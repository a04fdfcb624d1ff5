#include "homme/local_state.hpp"

namespace homme {

State gather_local(std::span<const int> elems, const State& global) {
  State local;
  local.reserve(elems.size());
  for (int ge : elems) {
    local.push_back(global[static_cast<std::size_t>(ge)]);
  }
  return local;
}

void scatter_local(std::span<const int> elems, const State& local,
                   State& global) {
  for (std::size_t le = 0; le < elems.size(); ++le) {
    global[static_cast<std::size_t>(elems[le])] = local[le];
  }
}

}  // namespace homme
