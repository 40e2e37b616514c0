// The configuration schema: one row per scalar setting of Config,
// EngineConfig and PriorityParams, with its flag, help text (with the unit)
// and valid range.  Config::validate() checks every row, and every CLI
// defines and reads its setting flags through the rows, so a setting is one
// field plus one row.
//
// Not rows: switch_times (a list), the bandwidth samplers (structs), and
// EngineConfig's membership_degree and seed, which make_engine copies from
// neighbor_target and seed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/config.hpp"
#include "util/flags.hpp"

namespace gs::exp {

/// The values a numeric setting accepts: [min, max], or (min, max] when
/// `min_open`.  A real setting must also be finite.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
};

struct Setting {
  enum class Kind : std::uint8_t { kReal, kCount, kSwitch, kChoice, kText };

  /// Rows sharing a flag are set together (`--churn` sets both churn
  /// fractions); the first of them carries the help.
  std::string_view flag;
  std::string_view help;
  Kind kind;
  Range range;  ///< kReal and kCount rows only
  /// The field's value as flag text; reals round-trip exactly.
  std::string (*text)(const Config& config);
  /// Parses the flag's value into the field; throws on a malformed value.
  void (*read)(const util::Flags& flags, std::string_view flag, Config& config);
  /// The field as a number for the range check (null for other kinds).
  double (*number)(const Config& config);
};

[[nodiscard]] std::span<const Setting> settings();

/// Throws std::invalid_argument naming the first row out of its range.
void check_ranges(const Config& config);

/// Defines one flag per row, defaulting to the row's value in `config` (the
/// caller's recipe, which --help then shows), except the `owned` flags,
/// whose fields the caller sets itself.
void define_settings(util::Flags& flags, const Config& config,
                     const std::vector<std::string_view>& owned = {});

/// Writes every setting whose flag argv gave into `config`.
void read_settings(const util::Flags& flags, Config& config);

}  // namespace gs::exp
