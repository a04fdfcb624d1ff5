// Inspect a SW-CAM history file: header dimensions, the field
// directory with shapes, and per-field summary statistics — the small
// utility a downstream user reaches for first.
//
//   ./history_inspect <file.bin> [field]

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "io/model_io.hpp"

namespace {

void summarize(const io::Field& f) {
  double mn = 1e300, mx = -1e300, sum = 0.0;
  for (double v : f.data) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += v;
  }
  const double mean = f.data.empty() ? 0.0 : sum / f.data.size();
  double var = 0.0;
  for (double v : f.data) var += (v - mean) * (v - mean);
  const double sd =
      f.data.empty() ? 0.0 : std::sqrt(var / static_cast<double>(f.data.size()));
  std::printf("  %-12s shape [", f.name.c_str());
  for (std::size_t i = 0; i < f.shape.size(); ++i) {
    std::printf("%s%lld", i ? " x " : "",
                static_cast<long long>(f.shape[i]));
  }
  std::printf("]  n=%zu  min=%.6g  mean=%.6g  max=%.6g  sd=%.3g\n",
              f.data.size(), mn, mean, mx, sd);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <file.bin> [field]\n", argv[0]);
    return 2;
  }
  try {
    io::HistoryReader r(argv[1]);
    std::printf("%s: ne=%d nlev=%d qsize=%d, %zu fields\n", argv[1], r.ne(),
                r.nlev(), r.qsize(), r.names().size());
    if (argc >= 3) {
      summarize(r.get(argv[2]));
    } else {
      for (const auto& name : r.names()) summarize(r.get(name));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
