#include "sw/cg_pool.hpp"

#include <stdexcept>

namespace sw {

CgPool::CgPool(int ngroups) {
  if (ngroups < 1) {
    throw std::invalid_argument("CgPool: ngroups must be >= 1, got " +
                                std::to_string(ngroups));
  }
  groups_.reserve(static_cast<std::size_t>(ngroups));
  locks_.reserve(static_cast<std::size_t>(ngroups));
  for (int i = 0; i < ngroups; ++i) {
    groups_.push_back(std::make_unique<CoreGroup>());
    groups_.back()->set_contention(&mc_);
    locks_.push_back(std::make_unique<std::mutex>());
  }
}

void CgPool::set_tracer(obs::Tracer* t, int pid_base,
                        const std::string& prefix) {
  for (int i = 0; i < size(); ++i) {
    auto guard = lock(i);
    const std::string label =
        (prefix.empty() ? std::string() : prefix + "/") + "cg:" +
        std::to_string(i);
    group(i).set_tracer(t, pid_base + i, label);
  }
}

}  // namespace sw
