// Shared table-printing helpers for the experiment harnesses.
//
// Every experiment binary prints (a) the paper's claim for the quantity
// it reproduces and (b) a fixed-width table of measured rows, so
// EXPERIMENTS.md can quote the output directly.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <type_traits>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dprbg::bench {

// --json flips every harness from the human-readable tables to one JSON
// object per table row on stdout (keys = column names, plus any context
// keys the harness sets). Text stays the default so EXPERIMENTS.md can
// keep quoting the binaries verbatim.
inline bool& json_mode_ref() {
  static bool on = false;
  return on;
}

inline bool json_mode() { return json_mode_ref(); }

// Call at the top of main(); recognises --json, ignores everything else.
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") json_mode_ref() = true;
  }
}

// The CPU model from /proc/cpuinfo ("unknown" where there is none), for
// the host-facts context of throughput tables: the same bench gives
// different rates on different hosts, so rows must say where they ran.
inline std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

inline void json_escape_to(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch; break;
    }
  }
}

// Emits a cell as a bare JSON number when it is one, else as a string.
inline void json_value_to(std::string& out, const std::string& s) {
  if (!s.empty()) {
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    if (end == s.c_str() + s.size()) {
      out += s;
      return;
    }
  }
  out += '"';
  json_escape_to(out, s);
  out += '"';
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  if (json_mode()) {
    std::string line = "{\"experiment\": ";
    json_value_to(line, experiment);
    line += ", \"claim\": ";
    json_value_to(line, claim);
    line += "}";
    std::printf("%s\n", line.c_str());
    return;
  }
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  // Context keys are repeated in every JSON row (e.g. the n/t printed as
  // prose above a text table); ignored in text mode.
  void context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  void print() const {
    if (json_mode()) {
      print_json();
      return;
    }
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      width[c] = columns_[c].size();
      for (const auto& r : rows_) {
        if (c < r.size()) width[c] = std::max(width[c], r[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::string rule;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      rule += std::string(width[c], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  void print_json() const {
    for (const auto& r : rows_) {
      std::string line = "{";
      bool first = true;
      for (const auto& [key, value] : context_) {
        if (!first) line += ", ";
        first = false;
        line += '"';
        json_escape_to(line, key);
        line += "\": ";
        json_value_to(line, value);
      }
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (!first) line += ", ";
        first = false;
        line += '"';
        json_escape_to(line, columns_[c]);
        line += "\": ";
        json_value_to(line, c < r.size() ? r[c] : std::string());
      }
      line += "}";
      std::printf("%s\n", line.c_str());
    }
  }

  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v) {
  char buf[64];
  if (v != 0 && (v < 0.01 || v >= 1e7)) {
    std::snprintf(buf, sizeof(buf), "%.3g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

// Any integer type (size_t/uint64_t/int/unsigned collapse here; the
// double overload above wins only for floating-point arguments).
template <typename T>
  requires std::is_integral_v<T>
std::string fmt(T v) {
  return std::to_string(v);
}

}  // namespace dprbg::bench
