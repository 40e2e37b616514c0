#include "util/flags.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace gs::util {

Flags& Flags::define(std::string name, std::string default_value, std::string help) {
  Entry entry;
  entry.value = default_value;
  entry.default_value = std::move(default_value);
  entry.help = std::move(help);
  entries_.insert_or_assign(std::move(name), std::move(entry));
  return *this;
}

Flags& Flags::define_int(std::string name, std::int64_t default_value, std::string help) {
  return define(std::move(name), std::to_string(default_value), std::move(help));
}

Flags& Flags::define_double(std::string name, double default_value, std::string help) {
  std::ostringstream out;
  out << default_value;
  return define(std::move(name), out.str(), std::move(help));
}

Flags& Flags::define_bool(std::string name, bool default_value, std::string help) {
  return define(std::move(name), default_value ? "true" : "false", std::move(help));
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    const auto it = entries_.find(name);
    if (it == entries_.end()) throw std::runtime_error("unknown flag --" + name);
    if (!value) {
      // Booleans may be bare; other types consume the next argv element.
      const bool is_bool =
          it->second.default_value == "true" || it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw std::runtime_error("flag --" + name + " expects a value");
      }
    }
    it->second.value = *value;
    it->second.given = true;
  }
  return true;
}

const Flags::Entry& Flags::find(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) throw std::runtime_error("flag not defined: " + std::string(name));
  return it->second;
}

std::string Flags::get(std::string_view name) const { return find(name).value; }

std::int64_t Flags::get_int(std::string_view name) const {
  const auto& entry = find(name);
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(entry.value, &pos);
    if (pos != entry.value.size()) throw std::invalid_argument(entry.value);
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("flag --" + std::string(name) + ": not an integer: " + entry.value);
  }
}

double Flags::get_double(std::string_view name) const {
  const auto& entry = find(name);
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(entry.value, &pos);
    if (pos != entry.value.size()) throw std::invalid_argument(entry.value);
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("flag --" + std::string(name) + ": not a number: " + entry.value);
  }
}

bool Flags::get_bool(std::string_view name) const {
  const auto& value = find(name).value;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::runtime_error("flag --" + std::string(name) + ": not a boolean: " + value);
}

std::vector<std::size_t> Flags::get_sizes(std::string_view name) const {
  std::vector<std::size_t> sizes;
  std::istringstream list(find(name).value);
  for (std::string token; std::getline(list, token, ',');) {
    if (!token.empty()) sizes.push_back(static_cast<std::size_t>(std::stoull(token)));
  }
  return sizes;
}

bool Flags::given(std::string_view name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.given;
}

std::string Flags::usage(std::string_view program) const {
  std::ostringstream out;
  out << "Usage: " << program << " [flags]\n";
  for (const auto& [name, entry] : entries_) {
    out << "  --" << name << " (default: " << entry.default_value << ")  " << entry.help << "\n";
  }
  return out.str();
}

}  // namespace gs::util
