// Tiny command-line flag parser for benches and examples.
//
// Supports --name=value, --name value, and bare --name for booleans.
// Unknown flags are an error (typos in sweep scripts should fail fast).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gs::util {

class Flags {
 public:
  /// Registers a flag with its default and help text.  Must be called before
  /// parse().  Returns *this for chaining.
  Flags& define(std::string name, std::string default_value, std::string help);
  Flags& define_int(std::string name, std::int64_t default_value, std::string help);
  Flags& define_double(std::string name, double default_value, std::string help);
  Flags& define_bool(std::string name, bool default_value, std::string help);

  /// Parses argv.  On --help prints usage and returns false (caller should
  /// exit 0).  Throws std::runtime_error on unknown flags or bad values.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;
  /// A comma-separated list of non-negative integers ("100,500").
  [[nodiscard]] std::vector<std::size_t> get_sizes(std::string_view name) const;

  /// True when argv set the flag (false for an undefined one).
  [[nodiscard]] bool given(std::string_view name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
    bool given = false;
  };

  const Entry& find(std::string_view name) const;

  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::string> positional_;
};

}  // namespace gs::util
