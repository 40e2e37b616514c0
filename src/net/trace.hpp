// dss.clip2.com-style overlay trace records.
//
// The paper's topologies come from Gnutella crawls published on
// dss.clip2.com (offline since ~2001); each record held ID, IP, host name,
// port, ping time and speed, of which the paper uses ID, IP and ping time.
// This module defines a plain-text trace format able to carry those fields,
// a parser/serializer, and a synthesizer producing crawl-like traces
// (power-law degrees, long-tailed pings, modem-to-broadband speed mix) so
// the experiments run without the defunct data source.  Real crawls can be
// converted to this format and dropped in unchanged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "util/rng.hpp"

namespace gs::net {

/// One crawled peer.
struct TraceNode {
  NodeId id = 0;
  std::string ip;        ///< dotted quad (synthetic for generated traces)
  std::uint16_t port = 6346;  ///< Gnutella default
  double ping_ms = 0.0;  ///< crawl-time RTT to the peer
  double speed_kbps = 0.0;  ///< advertised link speed
};

/// A full crawl snapshot: peers plus overlay edges.
struct Trace {
  std::string name;
  std::vector<TraceNode> nodes;
  std::vector<std::pair<NodeId, NodeId>> edges;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges.size(); }

  /// Builds the overlay graph (ignores duplicate edges in the record list).
  [[nodiscard]] Graph to_graph() const;

  /// Average degree of the recorded overlay.
  [[nodiscard]] double average_degree() const noexcept;
};

/// Parses the text format; throws std::runtime_error with a line number on
/// malformed input.
[[nodiscard]] Trace parse_trace(std::istream& in);
[[nodiscard]] Trace parse_trace_file(const std::string& path);

/// Serializes in the same format parse_trace accepts (round-trips exactly).
void write_trace(const Trace& trace, std::ostream& out);
void write_trace_file(const Trace& trace, const std::string& path);

/// Parameters for crawl-like synthesis.  Defaults approximate the 2000-2001
/// Gnutella snapshots: sparse power-law overlay (avg degree ~3, "too small
/// for media streaming" per the paper), long-tailed pings, mixed dial-up /
/// DSL / LAN speed population.
struct TraceSynthesisOptions {
  std::size_t node_count = 1000;
  std::size_t attach = 2;        ///< preferential-attachment links per node
  double ping_min_ms = 10.0;     ///< Pareto scale
  double ping_shape = 1.6;       ///< Pareto shape (heavier tail = smaller)
  double ping_cap_ms = 800.0;    ///< crawl timeouts clip the tail
};

/// Deterministically synthesizes a crawl-like trace from `rng`.
[[nodiscard]] Trace synthesize_trace(const TraceSynthesisOptions& options, util::Rng& rng);

}  // namespace gs::net
