// Concurrency tests for TransportService reservation accounting: many
// threads race reserve/release over a shared bottleneck link while a
// sampler asserts the per-link ledgers stay inside [0, capacity]. The
// budget must never go negative (a lost release) and never leak (a lost
// reserve rollback); admission must never oversubscribe a link no matter
// how the threads interleave.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace qosnp {
namespace {

StreamRequirements guaranteed(std::int64_t bps) {
  StreamRequirements req;
  req.max_bit_rate_bps = bps;
  req.avg_bit_rate_bps = bps;
  req.guarantee = GuaranteeClass::kGuaranteed;
  return req;
}

TEST(TransportRace, TwoThreadReserveReleaseNeverCorruptsBudgets) {
  // Dumbbell with one client and one server: every flow crosses the same
  // backbone link, the worst case for the ledger.
  TransportService transport(Topology::dumbbell(1, 1, 500'000'000, 100'000'000));
  constexpr int kIterations = 2'000;

  std::atomic<bool> stop{false};
  std::atomic<int> reserve_failures{0};
  auto hammer = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kIterations; ++i) {
      auto flow = transport.reserve("client-0", "server-node-0",
                                    guaranteed(rng.between(1'000'000, 20'000'000)));
      if (!flow.ok()) {
        ++reserve_failures;
        continue;
      }
      if (rng.chance(0.5)) std::this_thread::yield();
      EXPECT_TRUE(transport.release(flow.value()));
    }
  };

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t l = 0; l < transport.topology().link_count(); ++l) {
        const LinkUsage u = transport.link_usage(l);
        EXPECT_GE(u.reserved_bps, 0) << "link " << l << " went negative";
        EXPECT_LE(u.reserved_bps, u.capacity_bps) << "link " << l << " oversubscribed";
      }
      std::this_thread::yield();
    }
  });

  std::thread a(hammer, 101), b(hammer, 202);
  a.join();
  b.join();
  stop.store(true, std::memory_order_release);
  sampler.join();

  // Drain invariant: everything reserved was released, the recomputed
  // ledger matches the incremental one, nothing leaked.
  EXPECT_EQ(transport.active_flows(), 0u);
  EXPECT_EQ(transport.total_reserved_bps(), 0);
  EXPECT_TRUE(transport.accounting_consistent());
}

TEST(TransportRace, ContendedAdmissionNeverDoubleCommitsTheLinkBudget) {
  // The backbone fits exactly 4 flows of 10 Mbps; two threads race to admit
  // 50 each and hold them. However the interleaving goes, at most 4 may win.
  constexpr std::int64_t kFlowBps = 10'000'000;
  TransportService transport(Topology::dumbbell(2, 1, 1'000'000'000, 4 * kFlowBps));

  std::vector<FlowId> admitted[2];
  auto grab = [&](int t) {
    const NodeId client = "client-" + std::to_string(t);
    for (int i = 0; i < 50; ++i) {
      auto flow = transport.reserve(client, "server-node-0", guaranteed(kFlowBps));
      if (flow.ok()) admitted[t].push_back(flow.value());
    }
  };
  std::thread a(grab, 0), b(grab, 1);
  a.join();
  b.join();

  EXPECT_EQ(admitted[0].size() + admitted[1].size(), 4u);
  EXPECT_TRUE(transport.accounting_consistent());

  // Release everything from opposite threads (release must be as safe as
  // reserve) and check the budget returns to zero, not below.
  std::thread ra([&] {
    for (FlowId id : admitted[1]) EXPECT_TRUE(transport.release(id));
  });
  std::thread rb([&] {
    for (FlowId id : admitted[0]) EXPECT_TRUE(transport.release(id));
  });
  ra.join();
  rb.join();
  EXPECT_EQ(transport.active_flows(), 0u);
  EXPECT_EQ(transport.total_reserved_bps(), 0);
  EXPECT_TRUE(transport.accounting_consistent());
}

TEST(TransportRace, DoubleReleaseFromRacingThreadsIsCountedOnce) {
  TransportService transport(Topology::dumbbell(1, 1, 100'000'000, 100'000'000));
  for (int round = 0; round < 200; ++round) {
    auto flow = transport.reserve("client-0", "server-node-0", guaranteed(5'000'000));
    ASSERT_TRUE(flow.ok());
    const FlowId id = flow.value();
    std::atomic<int> released{0};
    auto try_release = [&] {
      if (transport.release(id)) released.fetch_add(1);
    };
    std::thread a(try_release), b(try_release);
    a.join();
    b.join();
    // Exactly one of the racing releases may win; a double-subtract would
    // drive the ledger negative (caught by accounting_consistent).
    EXPECT_EQ(released.load(), 1);
  }
  EXPECT_EQ(transport.total_reserved_bps(), 0);
  EXPECT_TRUE(transport.accounting_consistent());
}

TEST(TransportRace, ConcurrentFirstReservationsFillTheRouteTableConsistently) {
  // Every worker walks all (server, client) pairs in its own order, so each
  // pair's first reservation races with the others and the route table is
  // filled under contention. The narrow primary backbone fills up, pushing
  // later flows onto the standby (retry routes) or into refusals.
  constexpr int kClients = 24;
  constexpr int kServers = 6;
  constexpr int kWorkers = 6;
  constexpr std::int64_t kFlowBps = 10'000'000;
  TransportService transport(
      Topology::dual_backbone(kClients, kServers, 1'000'000'000, 40 * kFlowBps));
  const Topology& topology = transport.topology();
  struct Pair {
    NodeId server;
    NodeId client;
  };
  std::vector<Pair> pairs;
  for (int s = 0; s < kServers; ++s) {
    for (int c = 0; c < kClients; ++c) {
      pairs.push_back({"server-node-" + std::to_string(s), "client-" + std::to_string(c)});
    }
  }

  std::atomic<int> admitted{0};
  auto worker = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::size_t> order(pairs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
    std::vector<FlowId> held;
    for (std::size_t i : order) {
      auto flow = transport.reserve(pairs[i].server, pairs[i].client, guaranteed(kFlowBps));
      if (!flow.ok()) {
        EXPECT_TRUE(flow.error().transient) << flow.error();
        continue;
      }
      ++admitted;
      held.push_back(flow.value());
      if (rng.chance(0.5)) {
        EXPECT_TRUE(transport.release(held.back()));
        held.pop_back();
      }
    }
    for (FlowId id : held) EXPECT_TRUE(transport.release(id));
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) workers.emplace_back(worker, 500 + w);
  for (std::thread& w : workers) w.join();

  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(transport.active_flows(), 0u);
  EXPECT_EQ(transport.total_reserved_bps(), 0);
  EXPECT_TRUE(transport.accounting_consistent());
  // With the links empty again every pair takes its minimum-delay path: the
  // table filled under contention holds no retry route.
  for (const Pair& p : pairs) {
    auto flow = transport.reserve(p.server, p.client, guaranteed(kFlowBps));
    ASSERT_TRUE(flow.ok()) << flow.error();
    EXPECT_EQ(transport.flow(flow.value())->path,
              topology.shortest_path(p.server, p.client).value());
    EXPECT_TRUE(transport.release(flow.value()));
  }
}

}  // namespace
}  // namespace qosnp
