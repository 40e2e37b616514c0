#include "util/meminfo.hpp"

#include <cstdio>
#include <cstring>

namespace gs::util {
namespace {

/// Reads a "<field>:  <kB> kB" line from /proc/self/status; 0 if absent.
std::uint64_t status_field_bytes(const char* field) noexcept {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  const std::size_t field_len = std::strlen(field);
  std::uint64_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) != 0 || line[field_len] != ':') continue;
    unsigned long long kb = 0;
    if (std::sscanf(line + field_len + 1, "%llu", &kb) == 1) {
      bytes = static_cast<std::uint64_t>(kb) * 1024;
    }
    break;
  }
  std::fclose(f);
  return bytes;
#else
  (void)field;
  return 0;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() noexcept { return status_field_bytes("VmHWM"); }

}  // namespace gs::util
