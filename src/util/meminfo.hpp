// Process memory probes for the scale benches and diagnostics.
#pragma once

#include <cstdint>

namespace gs::util {

/// Peak resident set size of this process in bytes (Linux: VmHWM from
/// /proc/self/status).  Returns 0 when the platform offers no probe.
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

}  // namespace gs::util
