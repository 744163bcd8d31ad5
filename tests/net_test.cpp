#include "net/topology.hpp"
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace qosnp {
namespace {

StreamRequirements stream(std::int64_t bps, GuaranteeClass g = GuaranteeClass::kGuaranteed) {
  StreamRequirements req;
  req.max_bit_rate_bps = bps;
  req.avg_bit_rate_bps = bps / 2 > 0 ? bps / 2 : bps;
  req.guarantee = g;
  req.duration_s = 60.0;
  return req;
}

Topology line3(std::int64_t cap) {
  Topology t;
  t.add_node("a", NodeKind::kClient);
  t.add_node("b", NodeKind::kSwitch);
  t.add_node("c", NodeKind::kServer);
  (void)t.add_link("a", "b", cap, 1.0);
  (void)t.add_link("b", "c", cap, 1.0);
  return t;
}

TEST(Topology, AddNodeRejectsDuplicates) {
  Topology t;
  EXPECT_TRUE(t.add_node("x", NodeKind::kClient));
  EXPECT_FALSE(t.add_node("x", NodeKind::kServer));
  EXPECT_EQ(t.node_kind("x"), NodeKind::kClient);
  EXPECT_FALSE(t.node_kind("y").has_value());
}

TEST(Topology, AddLinkValidation) {
  Topology t;
  t.add_node("x", NodeKind::kClient);
  t.add_node("y", NodeKind::kServer);
  EXPECT_FALSE(t.add_link("x", "ghost", 1000).ok());
  EXPECT_FALSE(t.add_link("x", "x", 1000).ok());
  EXPECT_FALSE(t.add_link("x", "y", 0).ok());
  EXPECT_TRUE(t.add_link("x", "y", 1000).ok());
  EXPECT_EQ(t.link_count(), 1u);
}

TEST(Topology, ShortestPathFollowsDelay) {
  Topology t;
  for (const char* n : {"s", "m1", "m2", "d"}) t.add_node(n, NodeKind::kSwitch);
  (void)t.add_link("s", "m1", 1000, 1.0);
  (void)t.add_link("m1", "d", 1000, 1.0);   // total 2ms
  (void)t.add_link("s", "m2", 1000, 10.0);
  (void)t.add_link("m2", "d", 1000, 10.0);  // total 20ms
  auto path = t.shortest_path("s", "d");
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path.value().size(), 2u);
  EXPECT_EQ(t.link(path.value()[0]).b, "m1");
}

TEST(Topology, ShortestPathErrors) {
  Topology t;
  t.add_node("a", NodeKind::kClient);
  t.add_node("b", NodeKind::kServer);
  EXPECT_FALSE(t.shortest_path("a", "ghost").ok());
  EXPECT_FALSE(t.shortest_path("a", "b").ok());  // disconnected
  auto self = t.shortest_path("a", "a");
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self.value().empty());
}

TEST(Topology, EqualDelayTieBreakIsPinned) {
  // Parallel equal-delay links: the one added first wins (relaxation is
  // strict, and each node's links are scanned in insertion order).
  Topology parallel;
  parallel.add_node("a", NodeKind::kClient);
  parallel.add_node("b", NodeKind::kServer);
  const std::size_t first = parallel.add_link("a", "b", 1000, 2.0).value();
  (void)parallel.add_link("a", "b", 1000, 2.0);
  EXPECT_EQ(parallel.shortest_path("a", "b").value(), std::vector<std::size_t>{first});
  EXPECT_EQ(parallel.shortest_path("b", "a").value(), std::vector<std::size_t>{first});

  // Equal-delay two-hop paths: the intermediate node with the lower index
  // is settled first and wins, even when its link was added second.
  Topology diamond;
  for (const char* n : {"s", "m1", "m2", "d"}) diamond.add_node(n, NodeKind::kSwitch);
  (void)diamond.add_link("s", "m2", 1000, 1.0);
  const std::size_t s_m1 = diamond.add_link("s", "m1", 1000, 1.0).value();
  (void)diamond.add_link("m2", "d", 1000, 1.0);
  const std::size_t m1_d = diamond.add_link("m1", "d", 1000, 1.0).value();
  EXPECT_EQ(diamond.shortest_path("s", "d").value(), (std::vector<std::size_t>{s_m1, m1_d}));
  EXPECT_EQ(diamond.shortest_path("d", "s").value(), (std::vector<std::size_t>{m1_d, s_m1}));

  // A direct link ties with a two-hop detour: the direct link is relaxed
  // from the source first and keeps the destination.
  const std::size_t direct = diamond.add_link("s", "d", 1000, 2.0).value();
  EXPECT_EQ(diamond.shortest_path("s", "d").value(), std::vector<std::size_t>{direct});
}

TEST(Topology, DumbbellShape) {
  const Topology t = Topology::dumbbell(3, 2, 10'000'000, 100'000'000);
  EXPECT_EQ(t.node_count(), 2u + 3u + 2u);
  EXPECT_EQ(t.link_count(), 1u + 3u + 2u);
  auto path = t.shortest_path("client-0", "server-node-1");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().size(), 3u);  // access + backbone + access
}

TEST(Transport, ReserveAndRelease) {
  TransportService transport(line3(10'000'000));
  auto flow = transport.reserve("a", "c", stream(4'000'000));
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(transport.active_flows(), 1u);
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 4'000'000);
  EXPECT_EQ(transport.link_usage(1).reserved_bps, 4'000'000);
  EXPECT_TRUE(transport.release(flow.value()));
  EXPECT_FALSE(transport.release(flow.value()));  // double release is safe
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 0);
  EXPECT_EQ(transport.active_flows(), 0u);
}

TEST(Transport, AdmissionControlRefusesOverflow) {
  TransportService transport(line3(10'000'000));
  ASSERT_TRUE(transport.reserve("a", "c", stream(6'000'000)).ok());
  EXPECT_FALSE(transport.reserve("a", "c", stream(6'000'000)).ok());
  // But a smaller flow still fits.
  EXPECT_TRUE(transport.reserve("a", "c", stream(4'000'000)).ok());
}

TEST(Transport, BestEffortReservesAverageRate) {
  TransportService transport(line3(10'000'000));
  auto flow = transport.reserve("a", "c", stream(8'000'000, GuaranteeClass::kBestEffort));
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 4'000'000);  // avg = max/2
}

TEST(Transport, ConservationUnderChurn) {
  TransportService transport(line3(100'000'000));
  std::vector<FlowId> flows;
  for (int i = 0; i < 20; ++i) {
    auto f = transport.reserve("a", "c", stream(1'000'000));
    ASSERT_TRUE(f.ok());
    flows.push_back(f.value());
  }
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 20'000'000);
  for (std::size_t i = 0; i < flows.size(); i += 2) transport.release(flows[i]);
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 10'000'000);
  for (std::size_t i = 1; i < flows.size(); i += 2) transport.release(flows[i]);
  EXPECT_EQ(transport.link_usage(0).reserved_bps, 0);
}

TEST(Transport, RejectsUnroutableAndZeroRate) {
  TransportService transport(line3(1'000'000));
  EXPECT_FALSE(transport.reserve("a", "ghost", stream(1000)).ok());
  EXPECT_FALSE(transport.reserve("a", "c", stream(0)).ok());
}

TEST(Transport, DegradeReportsVictimsNewestFirst) {
  TransportService transport(line3(10'000'000));
  auto f1 = transport.reserve("a", "c", stream(4'000'000));
  auto f2 = transport.reserve("a", "c", stream(4'000'000));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  // Halve link 0: 8 Mbit/s reserved vs 5 Mbit/s effective -> one victim
  // (the newest flow) suffices to fit again.
  const auto victims = transport.degrade_link(0, 0.5);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], f2.value());
  EXPECT_EQ(transport.link_usage(0).effective_capacity_bps, 5'000'000);
}

TEST(Transport, DegradeBlocksNewAdmissions) {
  TransportService transport(line3(10'000'000));
  transport.degrade_link(0, 0.9);
  EXPECT_FALSE(transport.reserve("a", "c", stream(2'000'000)).ok());
  transport.restore_link(0);
  EXPECT_TRUE(transport.reserve("a", "c", stream(2'000'000)).ok());
}

TEST(Transport, MeanUtilization) {
  TransportService transport(line3(10'000'000));
  EXPECT_DOUBLE_EQ(transport.mean_utilization(), 0.0);
  ASSERT_TRUE(transport.reserve("a", "c", stream(5'000'000)).ok());
  EXPECT_NEAR(transport.mean_utilization(), 0.5, 1e-9);
}

TEST(Topology, ShortestPathHonoursExclusions) {
  const Topology t = Topology::dual_backbone(1, 1, 10'000'000, 10'000'000);
  // Links 0 (primary) and the last one (standby) join the two switches.
  auto primary = t.shortest_path("switch-client", "switch-server");
  ASSERT_TRUE(primary.ok());
  ASSERT_EQ(primary.value().size(), 1u);
  const std::size_t primary_link = primary.value()[0];
  const std::size_t excluded[] = {primary_link};
  auto standby = t.shortest_path("switch-client", "switch-server", excluded);
  ASSERT_TRUE(standby.ok());
  ASSERT_EQ(standby.value().size(), 1u);
  EXPECT_NE(standby.value()[0], primary_link);
}

TEST(Topology, ExclusionCanDisconnect) {
  const Topology t = Topology::dumbbell(1, 1, 10'000'000, 10'000'000);
  const std::size_t excluded[] = {0};  // the only backbone
  EXPECT_FALSE(t.shortest_path("client-0", "server-node-0", excluded).ok());
}

TEST(Transport, ReroutesOntoStandbyBackbone) {
  TransportService transport(Topology::dual_backbone(1, 1, 100'000'000, 10'000'000));
  // Two 8 Mbit/s flows: the second cannot share the 10 Mbit/s primary
  // backbone, so it must take the standby one.
  auto f1 = transport.reserve("client-0", "server-node-0", stream(8'000'000));
  auto f2 = transport.reserve("client-0", "server-node-0", stream(8'000'000));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok()) << f2.error();
  const auto p1 = transport.flow(f1.value())->path;
  const auto p2 = transport.flow(f2.value())->path;
  // The backbone link differs between the two paths.
  EXPECT_NE(p1, p2);
  // A third same-size flow finds no backbone with room.
  EXPECT_FALSE(transport.reserve("client-0", "server-node-0", stream(8'000'000)).ok());
}

TEST(Transport, ReroutesAroundCongestedLink) {
  TransportService transport(Topology::dual_backbone(1, 1, 100'000'000, 10'000'000));
  auto primary = transport.topology().shortest_path("switch-client", "switch-server");
  ASSERT_TRUE(primary.ok());
  transport.degrade_link(primary.value()[0], 0.95);
  auto f = transport.reserve("client-0", "server-node-0", stream(8'000'000));
  ASSERT_TRUE(f.ok()) << f.error();
}

TEST(Transport, SingleBackboneStillRejectsWhenFull) {
  TransportService transport(line3(10'000'000));
  ASSERT_TRUE(transport.reserve("a", "c", stream(8'000'000)).ok());
  auto second = transport.reserve("a", "c", stream(8'000'000));
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.error().message.find("insufficient bandwidth"), std::string::npos);
  EXPECT_TRUE(second.error().transient);
}

// A seeded random connected topology: a random tree over switches plus
// extra switch links (parallel ones included), servers and clients hung
// off random switches (some by two parallel access links), delays drawn
// from {1, 2, 3} ms so equal-delay ties are common, and one client with no
// links at all.
struct RandomNet {
  Topology topology;
  std::vector<NodeId> servers;
  std::vector<NodeId> clients;
};

RandomNet random_net(std::uint64_t seed, std::int64_t capacity_bps) {
  Rng rng(seed);
  RandomNet net;
  Topology& t = net.topology;
  auto delay = [&] { return static_cast<double>(rng.between(1, 3)); };
  const int switches = static_cast<int>(rng.between(1, 6));
  auto sw = [](std::uint64_t i) { return "sw-" + std::to_string(i); };
  for (int i = 0; i < switches; ++i) {
    t.add_node(sw(i), NodeKind::kSwitch);
    if (i > 0) (void)t.add_link(sw(i), sw(rng.below(i)), capacity_bps, delay());
  }
  for (int k = static_cast<int>(rng.between(0, switches)); k > 0; --k) {
    const auto a = rng.below(switches);
    const auto b = rng.below(switches);
    if (a == b) continue;
    const double d = delay();
    (void)t.add_link(sw(a), sw(b), capacity_bps, d);
    if (rng.chance(0.5)) (void)t.add_link(sw(b), sw(a), capacity_bps, d);  // parallel twin
  }
  auto attach = [&](const NodeId& id, NodeKind kind) {
    t.add_node(id, kind);
    const NodeId at = sw(rng.below(switches));
    const double d = delay();
    (void)t.add_link(id, at, capacity_bps, d);
    if (rng.chance(0.3)) (void)t.add_link(at, id, capacity_bps, d);
  };
  for (int i = static_cast<int>(rng.between(1, 3)); i > 0; --i) {
    net.servers.push_back("server-" + std::to_string(i));
    attach(net.servers.back(), NodeKind::kServer);
  }
  for (int i = static_cast<int>(rng.between(1, 4)); i > 0; --i) {
    net.clients.push_back("client-" + std::to_string(i));
    attach(net.clients.back(), NodeKind::kClient);
  }
  t.add_node("client-isolated", NodeKind::kClient);
  return net;
}

TEST(TransportRouteTable, ReservedPathIsDijkstrasOnEveryCall) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomNet net = random_net(seed, 1'000'000'000'000);
    TransportService transport(net.topology);
    const Topology& t = transport.topology();
    std::vector<FlowId> held;
    for (int round = 0; round < 3; ++round) {  // first, then repeat reservations
      for (const NodeId& server : net.servers) {
        for (const NodeId& client : net.clients) {
          auto f = transport.reserve(server, client, stream(1'000));
          ASSERT_TRUE(f.ok()) << f.error();
          EXPECT_EQ(transport.flow(f.value())->path, t.shortest_path(server, client).value());
          held.push_back(f.value());
        }
        // Unknown and disconnected nodes are permanent refusals every time.
        for (const NodeId& dst : {NodeId("client-isolated"), NodeId("ghost")}) {
          auto refused = transport.reserve(server, dst, stream(1'000));
          ASSERT_FALSE(refused.ok());
          EXPECT_FALSE(refused.error().transient);
          EXPECT_EQ(refused.error().message, t.shortest_path(server, dst).error());
        }
        EXPECT_FALSE(transport.reserve("ghost", net.clients[0], stream(1'000)).ok());
      }
    }
    for (FlowId id : held) EXPECT_TRUE(transport.release(id));
    EXPECT_EQ(transport.total_reserved_bps(), 0);
    EXPECT_TRUE(transport.accounting_consistent());
  }
}

TEST(TransportRouteTable, RetryRoutesAreNeverKept) {
  // Degrading any link of a pair's preferred path forces a re-route around
  // it (or a transient refusal when no other route exists); once restored,
  // the pair must get its preferred path back. The first net is the
  // dual-backbone dumbbell, whose standby backbone is the retry route.
  constexpr std::int64_t kRate = 100'000'000;
  std::vector<RandomNet> nets;
  nets.push_back({Topology::dual_backbone(2, 2, 1'000'000'000, 1'000'000'000),
                  {"server-node-0", "server-node-1"},
                  {"client-0", "client-1"}});
  for (std::uint64_t seed = 1; seed <= 200; ++seed) nets.push_back(random_net(seed, 1'000'000'000));
  std::size_t rerouted = 0;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    SCOPED_TRACE("net " + std::to_string(n));
    TransportService transport(nets[n].topology);
    const Topology& t = transport.topology();
    auto reserve_path = [&](const NodeId& server, const NodeId& client) {
      auto f = transport.reserve(server, client, stream(kRate));
      std::optional<std::vector<std::size_t>> path;
      if (f.ok()) {
        path = transport.flow(f.value())->path;
        transport.release(f.value());
      } else {
        EXPECT_TRUE(f.error().transient) << f.error();
      }
      return path;
    };
    for (const NodeId& server : nets[n].servers) {
      for (const NodeId& client : nets[n].clients) {
        const auto preferred = t.shortest_path(server, client).value();
        EXPECT_EQ(reserve_path(server, client), preferred);
        for (std::size_t link : preferred) {
          transport.degrade_link(link, 0.95);
          if (const auto retry = reserve_path(server, client)) {
            EXPECT_EQ(*retry, t.shortest_path(server, client, std::vector{link}).value());
            ++rerouted;
          }
          transport.restore_link(link);
          EXPECT_EQ(reserve_path(server, client), preferred);
        }
      }
    }
    EXPECT_EQ(transport.total_reserved_bps(), 0);
    EXPECT_TRUE(transport.accounting_consistent());
  }
  EXPECT_GT(rerouted, 0u);
}

TEST(ScopedFlow, ReleasesOnDestruction) {
  TransportService transport(line3(10'000'000));
  {
    auto f = transport.reserve("a", "c", stream(4'000'000));
    ASSERT_TRUE(f.ok());
    ScopedFlow scoped(&transport, f.value());
    EXPECT_EQ(transport.active_flows(), 1u);
  }
  EXPECT_EQ(transport.active_flows(), 0u);
}

TEST(ScopedFlow, DismissKeepsReservation) {
  TransportService transport(line3(10'000'000));
  FlowId id = 0;
  {
    auto f = transport.reserve("a", "c", stream(4'000'000));
    ASSERT_TRUE(f.ok());
    ScopedFlow scoped(&transport, f.value());
    id = scoped.dismiss();
  }
  EXPECT_EQ(transport.active_flows(), 1u);
  transport.release(id);
}

TEST(ScopedFlow, MoveTransfersOwnership) {
  TransportService transport(line3(10'000'000));
  auto f = transport.reserve("a", "c", stream(4'000'000));
  ASSERT_TRUE(f.ok());
  ScopedFlow a(&transport, f.value());
  ScopedFlow b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.reset();
  EXPECT_EQ(transport.active_flows(), 0u);
}

}  // namespace
}  // namespace qosnp
