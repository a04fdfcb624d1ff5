#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "perfbench.hpp"

/// \file main.cpp
/// perfbench — runs one benchmark workload and writes its raw record.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --out <dir>
///
/// Workloads: climate-physics, offload-remap, rank-exchange,
/// ensemble-service. The record (<dir>/raw.json) holds the samples,
/// counters and check results; perfbench/run.py turns it into metrics.
/// Exit status: 0 when the workload ran (its checks are in the record),
/// 2 on a usage error, 1 when the workload itself threw.

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("--seed needs an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace needs 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload.empty() || a.out_dir.empty()) usage("--workload and --out are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  const bool hero = args.workload == "climate-physics" ||
                    args.workload == "offload-remap" ||
                    args.workload == "rank-exchange";
  if (!hero && args.workload != "ensemble-service") usage("unknown workload");

  perfbench::JsonOut out;
  perfbench::Outcome outcome;
  out.begin_object()
      .str("workload", args.workload)
      .integer("seed", static_cast<std::int64_t>(args.seed))
      .num("seconds", args.seconds)
      .boolean("trace", args.trace);
  try {
    const double ref_before = perfbench::host_ref_s();
    if (hero) {
      perfbench::run_hero(args, out, outcome);
    } else {
      perfbench::run_ensemble(args, out, outcome);
    }
    out.numbers("host_ref_s", {ref_before, perfbench::host_ref_s()});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  outcome.write(out);
  out.end_object();

  const std::string path = args.out_dir + "/raw.json";
  std::ofstream f(path);
  f << out.text() << '\n';
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}
