#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "obs/trace.hpp"

/// \file report.hpp
/// Shared machine-readable bench reporting: a small insertion-ordered JSON
/// document builder (obs::Report) that replaces the hand-rolled fprintf
/// writers previously duplicated across benches.

namespace obs {

/// A JSON value node: object, array, or scalar. Object keys keep insertion
/// order so reports diff cleanly run-to-run.
class Json {
 public:
  Json() : kind_(Kind::kObject) {}

  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  // -- object interface -----------------------------------------------------

  Json& set(std::string_view key, double v);
  Json& set(std::string_view key, std::int64_t v);
  Json& set(std::string_view key, std::uint64_t v);
  Json& set(std::string_view key, int v) {
    return set(key, static_cast<std::int64_t>(v));
  }
  Json& set(std::string_view key, bool v);
  Json& set(std::string_view key, std::string_view v);
  Json& set(std::string_view key, const char* v) {
    return set(key, std::string_view(v));
  }
  /// Get-or-create the nested object at \p key.
  Json& obj(std::string_view key);
  /// Get-or-create the nested array at \p key.
  Json& arr(std::string_view key);

  // -- array interface ------------------------------------------------------

  /// Append a new object element and return a reference to it.
  Json& push();

  std::size_t size() const { return children_.size(); }

  /// Serialize with two-space indentation.
  std::string dump(int indent = 0) const;

  /// Flatten every numeric/bool leaf into "path value" lines: object keys
  /// are dot-joined onto \p prefix, array elements indexed by position,
  /// bools emitted as 0/1. Strings are skipped — a scrape target wants
  /// numbers, and string labels already live in the JSON form.
  void flatten(const std::string& prefix, std::string& out) const;

 private:
  enum class Kind { kObject, kArray, kNumber, kInteger, kUnsigned, kBool,
                    kString };
  explicit Json(Kind k) : kind_(k) {}
  Json& child(std::string_view key, Kind kind);
  void dump_to(std::string& out, int indent) const;

  Kind kind_;
  std::variant<double, std::int64_t, std::uint64_t, bool, std::string>
      scalar_{0.0};
  // Object entries carry their key; array entries an empty key.
  std::vector<std::pair<std::string, std::unique_ptr<Json>>> children_;
};

/// One bench report: a named JSON document written to a --json path.
class Report {
 public:
  explicit Report(std::string bench_name);

  /// The document root (already carries a "bench" field).
  Json& root() { return root_; }
  Json& config() { return root_.obj("config"); }

  /// Append the tracer's per-phase summary as a "phases" array:
  /// [{"name", "count", "total_us", "max_us", "self_us", <counters...>}].
  void add_summary(const Summary& s);

  std::string json() const { return root_.dump(); }
  /// Scrape-friendly flat key/value rendering of the whole document, one
  /// "path value" line per numeric/bool leaf (see Json::flatten). An
  /// optional \p prefix namespaces every line ("svc." -> "svc.queue_depth").
  std::string flat(std::string_view prefix = "") const;
  /// Write to \p path; returns false (and prints to stderr) on I/O error.
  bool write(const std::string& path) const;

 private:
  Json root_;
};

}  // namespace obs
