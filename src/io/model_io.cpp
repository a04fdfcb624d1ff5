#include "io/model_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace io {

namespace {

constexpr char kMagic[8] = {'S', 'W', 'C', 'A', 'M', 'I', 'O', '1'};

void put_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::int64_t get_i64(std::istream& is) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void put_field(std::ostream& os, const Field& f) {
  put_i64(os, static_cast<std::int64_t>(f.name.size()));
  os.write(f.name.data(), static_cast<std::streamsize>(f.name.size()));
  put_i64(os, static_cast<std::int64_t>(f.shape.size()));
  for (auto d : f.shape) put_i64(os, d);
  put_i64(os, static_cast<std::int64_t>(f.data.size()));
  os.write(reinterpret_cast<const char*>(f.data.data()),
           static_cast<std::streamsize>(f.data.size() * sizeof(double)));
}

Field get_field(std::istream& is) {
  Field f;
  const std::int64_t name_len = get_i64(is);
  if (name_len < 0 || name_len > 4096) {
    throw std::runtime_error("model_io: corrupt field name length");
  }
  f.name.resize(static_cast<std::size_t>(name_len));
  is.read(f.name.data(), name_len);
  const std::int64_t rank = get_i64(is);
  if (rank < 0 || rank > 8) {
    throw std::runtime_error("model_io: corrupt field rank");
  }
  f.shape.resize(static_cast<std::size_t>(rank));
  for (auto& d : f.shape) d = get_i64(is);
  const std::int64_t count = get_i64(is);
  if (count < 0) throw std::runtime_error("model_io: corrupt field size");
  f.data.resize(static_cast<std::size_t>(count));
  is.read(reinterpret_cast<char*>(f.data.data()),
          static_cast<std::streamsize>(f.data.size() * sizeof(double)));
  if (!is) throw std::runtime_error("model_io: truncated field " + f.name);
  return f;
}

}  // namespace

HistoryWriter::HistoryWriter(int ne, int nlev, int qsize)
    : ne_(ne), nlev_(nlev), qsize_(qsize) {}

void HistoryWriter::add_surface_diagnostics(const homme::Dims& d,
                                            const homme::State& s) {
  const int nelem = static_cast<int>(s.size());
  Field ps{"ps", {nelem, mesh::kNpp}, {}};
  Field ts{"t_surface", {nelem, mesh::kNpp}, {}};
  ps.data.reserve(static_cast<std::size_t>(nelem) * mesh::kNpp);
  ts.data.reserve(static_cast<std::size_t>(nelem) * mesh::kNpp);
  for (const auto& es : s) {
    for (int k = 0; k < mesh::kNpp; ++k) {
      double p = homme::kPtop;
      for (int lev = 0; lev < d.nlev; ++lev) p += es.dp[homme::fidx(lev, k)];
      ps.data.push_back(p);
      ts.data.push_back(es.T[homme::fidx(d.nlev - 1, k)]);
    }
  }
  add(std::move(ps));
  add(std::move(ts));
}

bool HistoryWriter::write(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os.write(kMagic, sizeof(kMagic));
  put_i64(os, ne_);
  put_i64(os, nlev_);
  put_i64(os, qsize_);
  put_i64(os, static_cast<std::int64_t>(fields_.size()));
  for (const auto& f : fields_) put_field(os, f);
  return static_cast<bool>(os);
}

HistoryReader::HistoryReader(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("model_io: cannot open " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("model_io: bad magic in " + path);
  }
  ne_ = static_cast<int>(get_i64(is));
  nlev_ = static_cast<int>(get_i64(is));
  qsize_ = static_cast<int>(get_i64(is));
  const std::int64_t nfields = get_i64(is);
  if (nfields < 0 || nfields > 1'000'000) {
    throw std::runtime_error("model_io: corrupt field count");
  }
  for (std::int64_t i = 0; i < nfields; ++i) {
    Field f = get_field(is);
    fields_.emplace(f.name, std::move(f));
  }
}

const Field& HistoryReader::get(const std::string& name) const {
  auto it = fields_.find(name);
  if (it == fields_.end()) {
    throw std::runtime_error("model_io: no field '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> HistoryReader::names() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const auto& [name, f] : fields_) out.push_back(name);
  return out;
}

}  // namespace io
