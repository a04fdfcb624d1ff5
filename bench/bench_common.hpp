#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/registry.hpp"

/// \file bench_common.hpp
/// The one bench CLI parser. Every bench used to hand-roll (or skip) the
/// same flag extraction; BenchOptions::parse pulls the shared flags out
/// of argc/argv — before google-benchmark sees the rest — in one place:
///   --json <path>    machine-readable obs::Report (also --json=<path>)
///   --trace <path>   Chrome trace-event timeline (also --trace=<path>)
///   --small          reduced problem size (CI smoke)
///   --steps <n>      override the bench's step count
///   --ne <n>         override the bench's mesh resolution
///   --workers <n>    engine worker-pool size (ensemble benches)
///   --members <n>    ensemble member count
///   --latency-us <n> modeled per-step coupler/ingest stall, microseconds
///   --ckpt-interval <k> full checkpoint image every k saves (deltas between)
///   --core-groups <n> core groups per processor/pool. Every bench accepts
///                    it uniformly; it only affects pipeline-backend runs —
///                    host-backend (and analytic) benches parse and ignore
///                    it, so one CI matrix drives all binaries.
///   --scenario <name> run the named scenario:: registry workload
///                    (strict: an unknown name exits 2 with the known list)
///   --list-scenarios  print the registered workload table and exit 0
///
/// Parsing is strict: every value is read with strtol and must be a
/// complete decimal integer within [min, 1e9] — a missing, non-numeric,
/// trailing-junk or below-minimum value aborts with a message on stderr
/// (exit 2). String flags are validated the same way (a path must be
/// present, --scenario must name a registered workload). Each flag is
/// taken once; whatever is left that google-benchmark does not own (its
/// flags start with --benchmark_) — a typo, a repeat, a stray value —
/// exits 2 as well. The unset sentinel is -1 everywhere, and every _or
/// accessor tests `>= 0`, so an explicit "--steps 0" really means zero
/// steps rather than "use the default".

namespace bench {

struct BenchOptions {
  std::string json_path;   ///< --json
  std::string trace_path;  ///< --trace
  bool small = false;      ///< --small
  int steps = -1;          ///< --steps; -1 = bench default
  int ne = -1;             ///< --ne; -1 = bench default
  int workers = -1;        ///< --workers; -1 = bench default
  int members = -1;        ///< --members; -1 = bench default
  int latency_us = -1;     ///< --latency-us; -1 = bench default
  int ckpt_interval = -1;  ///< --ckpt-interval; -1 = bench default
  int core_groups = -1;    ///< --core-groups; -1 = bench default
  std::string scenario;    ///< --scenario; empty = bench default

  int steps_or(int fallback) const { return steps >= 0 ? steps : fallback; }
  int ne_or(int fallback) const { return ne >= 0 ? ne : fallback; }
  int workers_or(int fallback) const {
    return workers >= 0 ? workers : fallback;
  }
  int members_or(int fallback) const {
    return members >= 0 ? members : fallback;
  }
  int latency_us_or(int fallback) const {
    return latency_us >= 0 ? latency_us : fallback;
  }
  int ckpt_interval_or(int fallback) const {
    return ckpt_interval >= 0 ? ckpt_interval : fallback;
  }
  int core_groups_or(int fallback) const {
    return core_groups >= 0 ? core_groups : fallback;
  }
  std::string scenario_or(const char* fallback) const {
    return scenario.empty() ? fallback : scenario;
  }

  /// The shared flags, one line each — printed on every parse error and
  /// kept in sync with the doc comment above.
  static const char* usage() {
    return
        "shared bench flags:\n"
        "  --json <path>       machine-readable obs::Report\n"
        "  --trace <path>      Chrome trace-event timeline\n"
        "  --small             reduced problem size (CI smoke)\n"
        "  --steps <n>         override the bench's step count\n"
        "  --ne <n>            override the bench's mesh resolution\n"
        "  --workers <n>       engine worker-pool size (ensemble benches)\n"
        "  --members <n>       ensemble member count\n"
        "  --latency-us <n>    modeled per-step coupler stall, microseconds\n"
        "  --ckpt-interval <k> full checkpoint every k saves\n"
        "  --core-groups <n>   core groups per processor/pool; accepted by\n"
        "                      every bench, only affects pipeline-backend\n"
        "                      runs (host-backend benches parse + ignore)\n"
        "  --scenario <name>   run the named scenario:: registry workload\n"
        "  --list-scenarios    print the registered workloads and exit\n"
        "  --benchmark_*       left to google-benchmark\n";
  }

  /// Print the registry as a table (what --list-scenarios shows).
  static void print_scenarios(std::FILE* out) {
    std::fprintf(out, "%-22s %-11s %s\n", "name", "kind", "title");
    for (const auto& name : scenario::names()) {
      const scenario::Scenario& sc = scenario::get(name);
      std::fprintf(out, "%-22s %-11s %s\n", sc.name.c_str(), sc.kind.c_str(),
                   sc.title.c_str());
    }
  }

  /// Extract (and remove) the shared flags so benchmark::Initialize only
  /// sees what it understands.
  static BenchOptions parse(int& argc, char** argv) {
    BenchOptions opts;
    auto die = [](const char* flag, const char* what, const char* got) {
      std::fprintf(stderr, "bench: %s %s (got \"%s\")\n%s", flag, what, got,
                   usage());
      std::exit(2);
    };
    auto drop = [&](int i, int n) {
      for (int j = i; j + n < argc; ++j) argv[j] = argv[j + n];
      argc -= n;
    };
    // "--flag <path>" or "--flag=<path>"; the path may not be empty or
    // another flag.
    auto take_path = [&](const char* flag, std::string& out) {
      const std::size_t n = std::strlen(flag);
      for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], flag, n) != 0) continue;
        const char* value = nullptr;
        int used = 1;
        if (argv[i][n] == '=') {
          value = argv[i] + n + 1;
        } else if (argv[i][n] == '\0') {
          value = i + 1 < argc ? argv[i + 1] : "";
          used = 2;
        } else {
          continue;  // a longer flag that shares the prefix
        }
        if (*value == '\0' || std::strncmp(value, "--", 2) == 0) {
          die(flag, "requires a path", value);
        }
        out = value;
        drop(i, used);
        return;
      }
    };
    take_path("--json", opts.json_path);
    take_path("--trace", opts.trace_path);
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--small") != 0) continue;
      opts.small = true;
      drop(i, 1);
      break;
    }
    auto take_int = [&](const char* flag, int& out, long min_value) {
      for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0) continue;
        if (i + 1 >= argc) die(flag, "requires a value", "");
        const char* text = argv[i + 1];
        errno = 0;
        char* end = nullptr;
        const long v = std::strtol(text, &end, 10);
        if (end == text || *end != '\0') {
          die(flag, "expects an integer", text);
        }
        if (errno == ERANGE || v < min_value || v > 1000000000L) {
          die(flag, "value out of range", text);
        }
        out = static_cast<int>(v);
        drop(i, 2);
        return;
      }
    };
    take_int("--steps", opts.steps, 0);
    take_int("--ne", opts.ne, 1);
    take_int("--workers", opts.workers, 1);
    take_int("--members", opts.members, 1);
    take_int("--latency-us", opts.latency_us, 0);
    take_int("--ckpt-interval", opts.ckpt_interval, 1);
    take_int("--core-groups", opts.core_groups, 1);

    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--list-scenarios") != 0) continue;
      print_scenarios(stdout);
      std::exit(0);
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--scenario") != 0) continue;
      if (i + 1 >= argc) die("--scenario", "requires a value", "");
      const char* name = argv[i + 1];
      if (scenario::find(name) == nullptr) {
        std::string known;
        for (const auto& n : scenario::names()) {
          known += known.empty() ? n : ", " + n;
        }
        std::fprintf(stderr, "bench: --scenario names an unknown workload "
                             "(got \"%s\"; known: %s)\n%s",
                     name, known.c_str(), usage());
        std::exit(2);
      }
      opts.scenario = name;
      drop(i, 2);
      break;
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
        die("unexpected", "argument", argv[i]);
      }
    }
    return opts;
  }
};

}  // namespace bench
