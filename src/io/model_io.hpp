#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "homme/state.hpp"

/// \file model_io.hpp
/// Model I/O: a self-describing binary history format. The paper reports
/// its results "on basis of whole application with I/O"; this is the
/// history half of that subsystem — a small netCDF-like container (named,
/// dimensioned, versioned records) without the external dependency.
/// Restart state is a model::Session checkpoint chain (homme/checkpoint.hpp).
///
/// Format (little-endian, doubles):
///   header:  magic "SWCAMIO1", int64 ne, nlev, qsize, nelem
///   records: [name-length, name bytes, int64 count, count doubles] ...
///   trailer: record directory is implicit (stream is scanned on open).

namespace io {

/// A named block of doubles with its logical shape.
struct Field {
  std::string name;
  std::vector<std::int64_t> shape;
  std::vector<double> data;
};

/// Write-side: accumulate fields, then write one file per snapshot.
class HistoryWriter {
 public:
  HistoryWriter(int ne, int nlev, int qsize);

  void add(Field f) { fields_.push_back(std::move(f)); }
  /// Convenience: surface pressure and lowest-level temperature of a
  /// state (the Figure 4 / Figure 9 diagnostics).
  void add_surface_diagnostics(const homme::Dims& d, const homme::State& s);

  /// Write everything added so far; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  int ne_, nlev_, qsize_;
  std::vector<Field> fields_;
};

/// Read-side: open a history file and fetch fields by name.
class HistoryReader {
 public:
  /// Throws std::runtime_error on malformed files.
  explicit HistoryReader(const std::string& path);

  int ne() const { return ne_; }
  int nlev() const { return nlev_; }
  int qsize() const { return qsize_; }
  bool has(const std::string& name) const { return fields_.count(name) > 0; }
  const Field& get(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  int ne_ = 0, nlev_ = 0, qsize_ = 0;
  std::map<std::string, Field> fields_;
};

}  // namespace io
