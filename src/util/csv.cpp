#include "util/csv.hpp"

#include <stdexcept>

namespace gs::util {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path, std::ios::trunc) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quoting = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string quoted;
  quoted.reserve(field.size() + 2);
  quoted.push_back('"');
  for (char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (const std::string_view field : fields) {
    if (!first) out_ << ',';
    first = false;
    out_ << escape(field);
  }
  out_ << '\n';
}

}  // namespace gs::util
