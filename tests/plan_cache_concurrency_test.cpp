// One NegotiationPlanCache shared by a full worker pool, hammered while the
// catalog churns underneath it. Meant to run under tsan: the interesting
// failures here are shard-lock races and torn LRU state, not wrong verdicts.
// After the storm the cache's conservation law must still hold exactly and
// the service-side metrics mirror must agree with the internal counters.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/plan_cache.hpp"
#include "service/negotiation_service.hpp"
#include "result_signature.hpp"
#include "test_service.hpp"

namespace qosnp {
namespace {

using testing::ServiceSystem;
using testing::TestSystem;
using testing::result_signature;

TEST(PlanCacheConcurrency, SharedCacheSurvivesWorkerStormWithCatalogChurn) {
  NegotiationConfig negotiation;
  // Few shards + tiny capacity on purpose: maximum contention and constant
  // eviction traffic, so every code path of the shard runs under fire.
  auto cache = std::make_shared<NegotiationPlanCache>(CachePolicy{/*shards=*/2, /*capacity=*/8});
  negotiation.plan_cache = cache;
  ServiceSystem sys(16, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                    std::move(negotiation));

  ServiceConfig config;
  config.workers = 8;
  config.queue_capacity = 4096;
  NegotiationService service(*sys.manager, *sys.sessions, config);
  service.start();

  // Churn thread: re-adds the document (epoch bump -> stale drops) while the
  // workers replay plans cached against older epochs.
  std::atomic<bool> churning{true};
  std::thread churn([&] {
    while (churning.load(std::memory_order_relaxed)) {
      sys.catalog.add(TestSystem::news_article());
      std::this_thread::yield();
    }
  });

  const UserProfile profiles[2] = {TestSystem::tolerant_profile(), [] {
                                     UserProfile p = TestSystem::tolerant_profile();
                                     p.mm.audio.reset();
                                     return p;
                                   }()};
  constexpr int kRequests = 600;
  std::vector<std::future<NegotiationResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    NegotiationRequest request = make_negotiation_request(
        sys.clients[static_cast<std::size_t>(i) % sys.clients.size()], "article",
        profiles[i % 2]);
    request.id = static_cast<std::uint64_t>(i) + 1;
    if (i % 17 == 0) request.cache = CacheUse::kRefresh;
    if (i % 23 == 0) request.cache = CacheUse::kBypass;
    futures.push_back(service.submit(std::move(request)));
  }
  std::size_t resolved = 0;
  for (auto& f : futures) {
    NegotiationResult resp = f.get();
    ++resolved;
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  churning.store(false, std::memory_order_relaxed);
  churn.join();
  service.stop();

  EXPECT_EQ(resolved, static_cast<std::size_t>(kRequests));
  EXPECT_TRUE(sys.drained());

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_LE(stats.stale, stats.misses);
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.stores, 0u);
  EXPECT_LE(cache->size(), cache->policy().capacity);

  // The service bound the manager's cache into its registry at construction;
  // after the drain both sides must report the same totals.
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_hits"), stats.hits);
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_misses"), stats.misses);
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_stale"), stats.stale);
  EXPECT_EQ(service.metrics().counter_value("qosnp_plan_cache_evictions"), stats.evictions);
}

TEST(PlanCacheConcurrency, TwoServicesShareOneCacheAndOneRegistry) {
  NegotiationConfig negotiation;
  auto cache = std::make_shared<NegotiationPlanCache>();
  negotiation.plan_cache = cache;
  ServiceSystem sys(8, 1'000'000'000, 10'000'000'000, 10'000'000'000, 100'000,
                    std::move(negotiation));

  MetricsRegistry shared_registry;
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 512;
  config.metrics = &shared_registry;
  // Both services bind the same cache into the same external registry; the
  // second bind must be a no-op (no double catch-up of prior counts).
  NegotiationService a(*sys.manager, *sys.sessions, config);
  NegotiationService b(*sys.manager, *sys.sessions, config);
  a.start();
  b.start();

  std::vector<std::future<NegotiationResult>> futures;
  for (int i = 0; i < 120; ++i) {
    NegotiationRequest request = make_negotiation_request(
        sys.clients[static_cast<std::size_t>(i) % sys.clients.size()], "article",
        TestSystem::tolerant_profile());
    request.id = static_cast<std::uint64_t>(i) + 1;
    futures.push_back((i % 2 == 0 ? a : b).submit(std::move(request)));
  }
  for (auto& f : futures) {
    NegotiationResult resp = f.get();
    if (resp.session_id != 0) sys.sessions->complete(resp.session_id);
  }
  a.stop();
  b.stop();
  EXPECT_TRUE(sys.drained());

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 120u);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(shared_registry.counter_value("qosnp_plan_cache_hits"), stats.hits);
  EXPECT_EQ(shared_registry.counter_value("qosnp_plan_cache_misses"), stats.misses);
}

TEST(PlanCacheConcurrency, ManagersOverTwoCatalogsShareOneCacheUnderChurn) {
  // Both catalogs hold "article" at matching epochs, with different content:
  // only the catalog uid in the key keeps the two managers' plans apart.
  MultimediaDocument trimmed = TestSystem::news_article();
  trimmed.monomedia.pop_back();
  auto cache = std::make_shared<NegotiationPlanCache>(CachePolicy{/*shards=*/2, /*capacity=*/16});
  NegotiationConfig cached;
  cached.plan_cache = cache;
  // Links and servers wide enough for all 400 sessions at once: no Step-5
  // refusal can depend on how the workers interleave.
  constexpr std::int64_t kWide = 1'000'000'000'000;
  ServiceSystem full(8, kWide, kWide, kWide, 100'000, cached);
  ServiceSystem lean(8, kWide, kWide, kWide, 100'000, cached);
  ServiceSystem full_twin(8, kWide, kWide, kWide, 100'000);
  ServiceSystem lean_twin(8, kWide, kWide, kWide, 100'000);
  full.catalog.add(TestSystem::news_article());
  full_twin.catalog.add(TestSystem::news_article());
  ASSERT_TRUE(lean.catalog.add(MultimediaDocument{trimmed}).empty());
  ASSERT_TRUE(lean_twin.catalog.add(MultimediaDocument{trimmed}).empty());
  ASSERT_EQ(full.catalog.epoch_of("article"), lean.catalog.epoch_of("article"));

  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 2048;
  NegotiationService full_service(*full.manager, *full.sessions, config);
  NegotiationService lean_service(*lean.manager, *lean.sessions, config);
  full_service.start();
  lean_service.start();

  // Churn: re-add each catalog's own "article" (epoch bump -> stale drops)
  // and add/remove an unrelated document, while the workers negotiate.
  std::atomic<bool> churning{true};
  std::thread churn([&] {
    MultimediaDocument extra = TestSystem::news_article();
    extra.id = "extra";
    for (int round = 0; churning.load(std::memory_order_relaxed); ++round) {
      if (round % 2 == 0) {
        full.catalog.add(TestSystem::news_article());
        lean.catalog.add(MultimediaDocument{trimmed});
        full.catalog.add(MultimediaDocument{extra});
        lean.catalog.add(MultimediaDocument{extra});
      } else {
        full.catalog.remove("extra");
        lean.catalog.remove("extra");
      }
      std::this_thread::yield();
    }
  });

  const UserProfile profiles[2] = {TestSystem::tolerant_profile(), [] {
                                     UserProfile p = TestSystem::tolerant_profile();
                                     p.mm.audio.reset();
                                     return p;
                                   }()};
  constexpr int kRequests = 400;
  std::vector<NegotiationRequest> requests;
  std::vector<std::future<NegotiationResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    const bool to_full = i % 2 == 0;
    const ServiceSystem& sys = to_full ? full : lean;
    NegotiationRequest request = make_negotiation_request(
        sys.clients[static_cast<std::size_t>(i / 2) % sys.clients.size()], "article",
        profiles[(i / 2) % 2]);
    request.id = static_cast<std::uint64_t>(i) + 1;
    requests.push_back(request);
    futures.push_back((to_full ? full_service : lean_service).submit(std::move(request)));
  }
  std::vector<NegotiationResult> results;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    results.push_back(futures[i].get());
    ServiceSystem& sys = i % 2 == 0 ? full : lean;
    if (results.back().session_id != 0) sys.sessions->complete(results.back().session_id);
  }
  churning.store(false, std::memory_order_relaxed);
  churn.join();
  full_service.stop();
  lean_service.stop();
  EXPECT_TRUE(full.drained());
  EXPECT_TRUE(lean.drained());

  // Each result equals its uncached twin's, served the same way
  // (capacity-rich farms: Step 5 commits the first offer whatever the
  // interleaving).
  ServiceConfig twin_config;
  twin_config.workers = 1;
  NegotiationService full_twin_service(*full_twin.manager, *full_twin.sessions, twin_config);
  NegotiationService lean_twin_service(*lean_twin.manager, *lean_twin.sessions, twin_config);
  full_twin_service.start();
  lean_twin_service.start();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ServiceSystem& twin = i % 2 == 0 ? full_twin : lean_twin;
    NegotiationService& twin_service = i % 2 == 0 ? full_twin_service : lean_twin_service;
    const NegotiationResult expected = twin_service.submit(requests[i]).get();
    EXPECT_EQ(result_signature(results[i]), result_signature(expected)) << "request " << i;
    if (expected.session_id != 0) twin.sessions->complete(expected.session_id);
  }
  full_twin_service.stop();
  lean_twin_service.stop();
  EXPECT_TRUE(full_twin.drained());
  EXPECT_TRUE(lean_twin.drained());
  EXPECT_NE(result_signature(results[0]), result_signature(results[1]));

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_LE(stats.stale, stats.misses);
  EXPECT_LE(cache->size(), cache->policy().capacity);
}

}  // namespace
}  // namespace qosnp
