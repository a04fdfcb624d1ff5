#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

/// \file perfbench.hpp
/// Shared pieces of the perfbench program: command-line arguments, the
/// wall/CPU measurement window, the drift probe, and the raw-record JSON
/// writer. The program measures and checks; perfbench/run.py derives the
/// reported metrics from the raw record it writes.

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< raw.json, trace.json and scratch files go here
};

/// Steady-clock seconds since an arbitrary epoch.
double now_s();
/// Process CPU time, user + system, all threads (getrusage).
double cpu_s();
/// ru_maxrss of this process, kilobytes.
long peak_rss_kb();
/// Wall seconds of a fixed benchmark-owned loop (drift probe).
double host_ref_s();

/// Accumulates wall and process-CPU time over one or more segments, so
/// untimed checks in the middle of a run stay out of the totals.
class Window {
 public:
  void start() {
    wall0_ = now_s();
    cpu0_ = cpu_s();
  }
  void stop() {
    wall_ += now_s() - wall0_;
    cpu_ += cpu_s() - cpu0_;
  }
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }
  /// Wall / CPU seconds of the closed segments plus the open one.
  double elapsed() const { return wall_ + (now_s() - wall0_); }
  double cpu_elapsed() const { return cpu_ + (cpu_s() - cpu0_); }

 private:
  double wall0_ = 0.0, cpu0_ = 0.0, wall_ = 0.0, cpu_ = 0.0;
};

/// Minimal compact JSON writer for the raw record. Keys and values are
/// appended in call order; the caller keeps objects/arrays balanced.
class JsonOut {
 public:
  JsonOut& begin_object(std::string_view key = {});
  JsonOut& end_object();
  JsonOut& begin_array(std::string_view key = {});
  JsonOut& end_array();
  JsonOut& num(std::string_view key, double v);
  JsonOut& num(double v);
  JsonOut& integer(std::string_view key, std::int64_t v);
  JsonOut& str(std::string_view key, std::string_view v);
  JsonOut& str(std::string_view v);
  JsonOut& boolean(std::string_view key, bool v);
  /// Insert an already-serialized JSON value.
  JsonOut& raw(std::string_view key, std::string_view json);
  JsonOut& numbers(std::string_view key, const std::vector<double>& v);
  const std::string& text() const { return s_; }

 private:
  void sep(std::string_view key);
  std::string s_;
  bool first_ = true;
};

/// An obs::Summary rendered as the obs::Report "phases" array.
std::string phases_json(const obs::Summary& s);

/// Failed/attempted operation counts and the correctness verdict.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< why `correct` is false
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void write(JsonOut& out) const;
};

/// Deterministic 64-bit generator for everything the workload derives
/// from --seed (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t x_;
};

void run_hero(const Args& args, JsonOut& out, Outcome& outcome);
void run_ensemble(const Args& args, JsonOut& out, Outcome& outcome);

}  // namespace perfbench
