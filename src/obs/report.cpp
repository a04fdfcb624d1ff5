#include "obs/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_indent(std::string& out, int indent) {
  for (int i = 0; i < indent; ++i) out += "  ";
}

}  // namespace

Json& Json::child(std::string_view key, Kind kind) {
  for (auto& [k, v] : children_) {
    if (k == key) return *v;
  }
  children_.emplace_back(std::string(key),
                         std::unique_ptr<Json>(new Json(kind)));
  return *children_.back().second;
}

Json& Json::set(std::string_view key, double v) {
  Json& c = child(key, Kind::kNumber);
  c.kind_ = Kind::kNumber;
  c.scalar_ = v;
  return *this;
}

Json& Json::set(std::string_view key, std::int64_t v) {
  Json& c = child(key, Kind::kInteger);
  c.kind_ = Kind::kInteger;
  c.scalar_ = v;
  return *this;
}

Json& Json::set(std::string_view key, std::uint64_t v) {
  Json& c = child(key, Kind::kUnsigned);
  c.kind_ = Kind::kUnsigned;
  c.scalar_ = v;
  return *this;
}

Json& Json::set(std::string_view key, bool v) {
  Json& c = child(key, Kind::kBool);
  c.kind_ = Kind::kBool;
  c.scalar_ = v;
  return *this;
}

Json& Json::set(std::string_view key, std::string_view v) {
  Json& c = child(key, Kind::kString);
  c.kind_ = Kind::kString;
  c.scalar_ = std::string(v);
  return *this;
}

Json& Json::obj(std::string_view key) { return child(key, Kind::kObject); }

Json& Json::arr(std::string_view key) { return child(key, Kind::kArray); }

Json& Json::push() {
  children_.emplace_back(std::string(),
                         std::unique_ptr<Json>(new Json(Kind::kObject)));
  return *children_.back().second;
}

void Json::dump_to(std::string& out, int indent) const {
  char buf[64];
  switch (kind_) {
    case Kind::kNumber: {
      const double v = std::get<double>(scalar_);
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += buf;
      break;
    }
    case Kind::kInteger:
      std::snprintf(buf, sizeof(buf), "%" PRId64,
                    std::get<std::int64_t>(scalar_));
      out += buf;
      break;
    case Kind::kUnsigned:
      std::snprintf(buf, sizeof(buf), "%" PRIu64,
                    std::get<std::uint64_t>(scalar_));
      out += buf;
      break;
    case Kind::kBool:
      out += std::get<bool>(scalar_) ? "true" : "false";
      break;
    case Kind::kString:
      out += '"';
      append_escaped(out, std::get<std::string>(scalar_));
      out += '"';
      break;
    case Kind::kObject: {
      if (children_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        append_indent(out, indent + 1);
        out += '"';
        append_escaped(out, children_[i].first);
        out += "\": ";
        children_[i].second->dump_to(out, indent + 1);
        if (i + 1 < children_.size()) out += ',';
        out += '\n';
      }
      append_indent(out, indent);
      out += '}';
      break;
    }
    case Kind::kArray: {
      if (children_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        append_indent(out, indent + 1);
        children_[i].second->dump_to(out, indent + 1);
        if (i + 1 < children_.size()) out += ',';
        out += '\n';
      }
      append_indent(out, indent);
      out += ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  out += '\n';
  return out;
}

void Json::flatten(const std::string& prefix, std::string& out) const {
  char buf[64];
  auto line = [&out, &prefix](const char* value) {
    out += prefix;
    out += ' ';
    out += value;
    out += '\n';
  };
  switch (kind_) {
    case Kind::kNumber:
      std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(scalar_));
      line(buf);
      break;
    case Kind::kInteger:
      std::snprintf(buf, sizeof(buf), "%" PRId64,
                    std::get<std::int64_t>(scalar_));
      line(buf);
      break;
    case Kind::kUnsigned:
      std::snprintf(buf, sizeof(buf), "%" PRIu64,
                    std::get<std::uint64_t>(scalar_));
      line(buf);
      break;
    case Kind::kBool:
      line(std::get<bool>(scalar_) ? "1" : "0");
      break;
    case Kind::kString:
      break;  // labels live in the JSON form; a scrape line wants a number
    case Kind::kObject:
      for (const auto& [key, child] : children_) {
        child->flatten(prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case Kind::kArray:
      for (std::size_t i = 0; i < children_.size(); ++i) {
        children_[i].second->flatten(
            (prefix.empty() ? std::string() : prefix + ".") +
                std::to_string(i),
            out);
      }
      break;
  }
}

Report::Report(std::string bench_name) {
  root_.set("bench", bench_name);
}

void Report::add_summary(const Summary& s) {
  Json& phases = root_.arr("phases");
  for (const auto& [name, p] : s) {
    Json& rec = phases.push();
    rec.set("name", name);
    rec.set("count", p.count);
    rec.set("total_us", p.total_us);
    rec.set("max_us", p.max_us);
    rec.set("self_us", p.self_us);
    for (const auto& [cname, v] : p.counters) rec.set(cname, v);
  }
}

std::string Report::flat(std::string_view prefix) const {
  std::string out;
  root_.flatten(std::string(prefix), out);
  return out;
}

bool Report::write(const std::string& path) const {
  const std::string doc = json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs::Report: cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return ok;
}

}  // namespace obs
