#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench.hpp"
#include "obs/report.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double host_ref_s() {
  // A 3-point smoothing sweep over 64 Ki doubles (512 KiB, cache-resident
  // on any current x86 core), repeated a fixed number of times. It does
  // not touch the model, so a change in its time is the host's doing.
  std::vector<double> a(1 << 16), b(1 << 16);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = std::sin(0.001 * static_cast<double>(i));
  }
  const double t0 = now_s();
  for (int rep = 0; rep < 2000; ++rep) {
    for (std::size_t i = 1; i + 1 < a.size(); ++i) {
      b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    a.swap(b);
  }
  const double dt = now_s() - t0;
  // Keep the sweep observable so it cannot be optimized away.
  if (!std::isfinite(a[a.size() / 2])) std::fputs("host_ref: non-finite\n", stderr);
  return dt;
}

// -- JsonOut -----------------------------------------------------------------

namespace {

void append_escaped(std::string& s, std::string_view v) {
  s += '"';
  for (char c : v) {
    switch (c) {
      case '"': s += "\\\""; break;
      case '\\': s += "\\\\"; break;
      case '\n': s += "\\n"; break;
      case '\t': s += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          s += buf;
        } else {
          s += c;
        }
    }
  }
  s += '"';
}

void append_number(std::string& s, double v) {
  if (!std::isfinite(v)) {
    s += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

}  // namespace

void JsonOut::sep(std::string_view key) {
  if (!first_) s_ += ',';
  first_ = false;
  if (!key.empty()) {
    append_escaped(s_, key);
    s_ += ':';
  }
}

JsonOut& JsonOut::begin_object(std::string_view key) {
  sep(key);
  s_ += '{';
  first_ = true;
  return *this;
}

JsonOut& JsonOut::end_object() {
  s_ += '}';
  first_ = false;
  return *this;
}

JsonOut& JsonOut::begin_array(std::string_view key) {
  sep(key);
  s_ += '[';
  first_ = true;
  return *this;
}

JsonOut& JsonOut::end_array() {
  s_ += ']';
  first_ = false;
  return *this;
}

JsonOut& JsonOut::num(std::string_view key, double v) {
  sep(key);
  append_number(s_, v);
  return *this;
}

JsonOut& JsonOut::num(double v) { return num({}, v); }

JsonOut& JsonOut::integer(std::string_view key, std::int64_t v) {
  sep(key);
  s_ += std::to_string(v);
  return *this;
}

JsonOut& JsonOut::str(std::string_view key, std::string_view v) {
  sep(key);
  append_escaped(s_, v);
  return *this;
}

JsonOut& JsonOut::str(std::string_view v) { return str({}, v); }

JsonOut& JsonOut::boolean(std::string_view key, bool v) {
  sep(key);
  s_ += v ? "true" : "false";
  return *this;
}

JsonOut& JsonOut::raw(std::string_view key, std::string_view json) {
  sep(key);
  s_ += json;
  return *this;
}

JsonOut& JsonOut::numbers(std::string_view key, const std::vector<double>& v) {
  begin_array(key);
  for (double x : v) num(x);
  return end_array();
}

std::string phases_json(const obs::Summary& s) {
  obs::Report r("perfbench_phases");
  r.add_summary(s);
  return r.json();
}

void Outcome::write(JsonOut& out) const {
  out.integer("attempted", attempted)
      .integer("failed", failed)
      .boolean("correct", failures.empty());
  out.begin_array("failures");
  for (const auto& f : failures) out.str(f);
  out.end_array();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
