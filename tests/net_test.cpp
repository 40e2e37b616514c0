// Graph operations, topology generators, degree repair, traces, latency.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "net/graph.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "net/trace.hpp"
#include "util/rng.hpp"

namespace gs::net {
namespace {

std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> ids(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) ids[v] = v;
  return ids;
}

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(0, 1)) << "duplicate rejected";
  EXPECT_FALSE(g.add_edge(1, 0)) << "reverse duplicate rejected";
  EXPECT_FALSE(g.add_edge(2, 2)) << "self loop rejected";
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto n = g.neighbors(2);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 3u);
  EXPECT_EQ(n[2], 4u);
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(Graph, Isolate) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  g.isolate(0);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Graph, AddNode) {
  Graph g(2);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_TRUE(g.add_edge(v, 0));
}

TEST(Graph, ConnectivityAndBfs) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.connected(all_nodes(g)));
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  EXPECT_TRUE(g.connected(all_nodes(g)));
  const auto hops = g.bfs_hops(0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[4], 4u);
}

TEST(Graph, BfsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto hops = g.bfs_hops(0);
  EXPECT_EQ(hops[2], std::numeric_limits<std::size_t>::max());
}

TEST(Topology, PreferentialAttachmentBasics) {
  util::Rng rng(1);
  const Graph g = preferential_attachment(500, 2, rng);
  EXPECT_EQ(g.node_count(), 500u);
  // Every node attaches with >= 1 edge.
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_GE(g.degree(v), 1u);
  // Power-law-ish: some hub should greatly exceed the average degree.
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) max_degree = std::max(max_degree, g.degree(v));
  EXPECT_GE(max_degree, 15u);
}

TEST(Topology, ErdosRenyiEdgeCount) {
  util::Rng rng(2);
  const Graph g = erdos_renyi(100, 250, rng);
  EXPECT_EQ(g.edge_count(), 250u);
}

TEST(Topology, WattsStrogatzDegreePreserved) {
  util::Rng rng(3);
  const Graph g = watts_strogatz(100, 2, 0.2, rng);
  // Rewiring preserves the total edge count of the ring lattice.
  EXPECT_EQ(g.edge_count(), 200u);
}

TEST(Topology, RingWithChords) {
  util::Rng rng(4);
  const Graph g = ring_with_chords(50, 10, rng);
  EXPECT_EQ(g.edge_count(), 60u);
  EXPECT_TRUE(g.connected(all_nodes(g)));
}

TEST(Topology, ConnectComponents) {
  util::Rng rng(5);
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  const std::size_t added = connect_components(g, rng);
  EXPECT_EQ(added, 2u);
  EXPECT_TRUE(g.connected(all_nodes(g)));
}

class RepairTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RepairTest, ReachesMinDegreeAndConnectivity) {
  // The paper's repair step: after it, every node holds >= M=5 neighbours
  // and the overlay is connected, for any generator output.
  const std::size_t n = GetParam();
  util::Rng rng(n);
  Graph g = preferential_attachment(n, 2, rng);
  repair_min_degree(g, 5, rng);
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_GE(g.degree(v), 5u);
  EXPECT_TRUE(g.connected(all_nodes(g)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RepairTest, ::testing::Values(10, 50, 100, 500, 1000, 4000));

TEST(Repair, AddsFewEdges) {
  // Pairing deficient nodes keeps the augmentation near the lower bound of
  // sum(deficits)/2; allow 2x slack.
  util::Rng rng(7);
  Graph g = preferential_attachment(1000, 2, rng);
  std::size_t deficit = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    deficit += g.degree(v) < 5 ? 5 - g.degree(v) : 0;
  }
  const std::size_t added = repair_min_degree(g, 5, rng);
  EXPECT_LE(added, deficit);  // each edge fixes >= 1 deficit unit, usually 2
}

TEST(Trace, SynthesizeShape) {
  util::Rng rng(8);
  TraceSynthesisOptions options;
  options.node_count = 300;
  const Trace trace = synthesize_trace(options, rng);
  EXPECT_EQ(trace.node_count(), 300u);
  EXPECT_GT(trace.edge_count(), 298u);  // connected PA graph
  // Average degree "too small for media streaming" (paper: needs repair).
  EXPECT_LT(trace.average_degree(), 5.0);
  for (const auto& node : trace.nodes) {
    EXPECT_GE(node.ping_ms, 10.0);
    EXPECT_LE(node.ping_ms, 800.0);
    EXPECT_GT(node.speed_kbps, 0.0);
    EXPECT_FALSE(node.ip.empty());
  }
}

TEST(Trace, RoundTripSerialization) {
  util::Rng rng(9);
  TraceSynthesisOptions options;
  options.node_count = 50;
  const Trace trace = synthesize_trace(options, rng);
  std::stringstream buffer;
  write_trace(trace, buffer);
  const Trace back = parse_trace(buffer);
  EXPECT_EQ(back.name, trace.name);
  ASSERT_EQ(back.node_count(), trace.node_count());
  ASSERT_EQ(back.edge_count(), trace.edge_count());
  for (std::size_t i = 0; i < trace.nodes.size(); ++i) {
    EXPECT_EQ(back.nodes[i].ip, trace.nodes[i].ip);
    EXPECT_NEAR(back.nodes[i].ping_ms, trace.nodes[i].ping_ms, 1e-6);
  }
  EXPECT_EQ(back.edges, trace.edges);
}

TEST(Trace, ParseRejectsMalformed) {
  std::stringstream bad1("node 0 1.2.3.4 6346 10.0 56\nedge 0 5\n");
  EXPECT_THROW((void)parse_trace(bad1), std::runtime_error);
  std::stringstream bad2("frob 1 2\n");
  EXPECT_THROW((void)parse_trace(bad2), std::runtime_error);
  std::stringstream bad3("node 3 1.2.3.4 6346 10.0 56\n");
  EXPECT_THROW((void)parse_trace(bad3), std::runtime_error) << "ids must be dense";
}

TEST(Latency, LinkDelayFormula) {
  LatencyModel model({100.0, 200.0, 60.0});
  EXPECT_DOUBLE_EQ(model.ping_ms(1), 200.0);
  // (100 + 200) / 4 ms one way = 75 ms.
  EXPECT_DOUBLE_EQ(model.link_delay_s(0, 1), 0.075);
  EXPECT_DOUBLE_EQ(model.link_delay_s(1, 0), 0.075);
}

TEST(Latency, JitterBounded) {
  LatencyModel model({100.0, 100.0});
  util::Rng rng(10);
  const double base = model.link_delay_s(0, 1);
  for (int i = 0; i < 1000; ++i) {
    const double d = model.jittered_delay_s(0, 1, rng);
    EXPECT_GE(d, base * 0.8 - 1e-12);
    EXPECT_LE(d, base * 1.2 + 1e-12);
  }
}

TEST(Latency, AddNode) {
  LatencyModel model({50.0});
  model.add_node(150.0);
  EXPECT_EQ(model.node_count(), 2u);
  EXPECT_DOUBLE_EQ(model.link_delay_s(0, 1), 0.05);
}

}  // namespace
}  // namespace gs::net
