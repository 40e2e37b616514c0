// CSV emission for bench results (consumed by plotting scripts).
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>

namespace gs::util {

/// Writes RFC-4180-ish CSV: fields containing comma/quote/newline are quoted
/// with doubled inner quotes.  The writer owns the output stream.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates).  Throws std::runtime_error on
  /// failure so benches fail loudly rather than silently dropping results.
  explicit CsvWriter(const std::string& path);

  /// Writes a header or data row.
  void write_row(std::initializer_list<std::string_view> fields);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Escapes one field per the quoting rules above (exposed for tests).
  [[nodiscard]] static std::string escape(std::string_view field);

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace gs::util
