// NegotiationPlanCache: the cross-request plan cache must be invisible in
// every result. The differential property suite runs twin systems — one
// manager cache-enabled, one cache-off — over 1000+ seeded (corpus, profile)
// cases including repeated requests (cache hits), document re-adds (epoch
// bumps) and a flapping-server fault plan, and asserts the two sides produce
// byte-identical NegotiationResults. Plus the cache's own unit surface:
// keying, LRU eviction, stale drops, stats conservation, CacheUse semantics,
// the shared config-validation path and the metrics mirror.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/qos_manager.hpp"
#include "document/corpus.hpp"
#include "fault/fault_injector.hpp"
#include "result_signature.hpp"
#include "service/negotiation_service.hpp"
#include "test_system.hpp"
#include "util/rng.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;
using testing::result_signature;

/// Same randomised profile space as the offer-stream differential suite.
UserProfile random_profile(Rng& rng) {
  UserProfile p = TestSystem::tolerant_profile();
  static const VideoQoS video_points[] = {
      VideoQoS{ColorDepth::kBlackWhite, 10, 320}, VideoQoS{ColorDepth::kGray, 15, 320},
      VideoQoS{ColorDepth::kColor, 25, 640}, VideoQoS{ColorDepth::kSuperColor, 30, 1280}};
  p.mm.video->desired = video_points[1 + rng.below(3)];
  p.mm.video->worst = video_points[rng.below(4)];
  if (rng.chance(0.3)) {
    p.mm.audio.reset();
  } else {
    p.mm.audio->desired = AudioQoS{rng.chance(0.5) ? AudioQuality::kCD : AudioQuality::kRadio};
    p.mm.audio->worst = AudioQoS{rng.chance(0.8) ? AudioQuality::kTelephone : AudioQuality::kRadio};
  }
  if (rng.chance(0.3)) {
    p.mm.text.reset();
  } else if (rng.chance(0.3)) {
    p.mm.text->acceptable.clear();
  }
  p.mm.cost.max_cost = Money::cents(50 + 25 * static_cast<std::int64_t>(rng.below(160)));
  if (rng.chance(0.3)) p.importance.cost_per_dollar = rng.uniform(0.1, 2.0);
  if (rng.chance(0.25)) {
    p.importance.preferred_servers = {"server-b"};
    p.importance.server_bonus = rng.uniform(0.1, 1.0);
  }
  return p;
}

NegotiationConfig cached_config(EnumerationStrategy strategy,
                                std::shared_ptr<NegotiationPlanCache> cache) {
  NegotiationConfig config;
  config.enumeration.strategy = strategy;
  config.plan_cache = std::move(cache);
  return config;
}

// --- The tentpole guarantee: cached == uncached, everywhere. ---------------

TEST(PlanCacheDifferential, CachedResultsMatchUncachedAcrossSeededCorpora) {
  std::size_t compared = 0;
  std::uint64_t total_hits = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    TestSystem cached_sys;
    TestSystem plain_sys;
    CorpusConfig corpus;
    corpus.seed = seed;
    corpus.num_documents = 3;
    corpus.servers = {"server-a", "server-b"};
    for (auto& doc : generate_corpus(corpus)) {
      cached_sys.catalog.add(MultimediaDocument{doc});
      plain_sys.catalog.add(std::move(doc));
    }
    const EnumerationStrategy strategy =
        seed % 2 == 0 ? EnumerationStrategy::kEager : EnumerationStrategy::kBestFirst;
    auto cache = std::make_shared<NegotiationPlanCache>();
    QoSManager cached(cached_sys.catalog, cached_sys.farm, *cached_sys.transport, CostModel{},
                      cached_config(strategy, cache));
    QoSManager plain(plain_sys.catalog, plain_sys.farm, *plain_sys.transport, CostModel{},
                     cached_config(strategy, nullptr));
    Rng rng(seed * 2654435761ULL);
    // Keep every result (and so its commitment) alive for the whole seed:
    // farm and transport state then evolve identically on both sides.
    std::vector<NegotiationResult> keep_cached, keep_plain;
    for (const DocumentId& id : cached_sys.catalog.list()) {
      // The same (document, profile) pair is negotiated repeatedly: the
      // first request builds and stores the plan, later ones replay it while
      // Step 5 sees progressively fuller servers.
      const UserProfile repeat_profile = random_profile(rng);
      for (int rep = 0; rep < 7; ++rep) {
        const UserProfile profile = rep % 2 == 0 ? repeat_profile : random_profile(rng);
        if (rep == 5) {
          // Epoch bump mid-sequence: both catalogs re-add the document, the
          // cached side must drop its now-stale plan, and parity must hold.
          auto doc = cached_sys.catalog.find(id);
          cached_sys.catalog.add(MultimediaDocument{*doc});
          plain_sys.catalog.add(MultimediaDocument{*doc});
        }
        NegotiationResult a =
            cached.negotiate(make_negotiation_request(cached_sys.client, id, profile));
        NegotiationResult b =
            plain.negotiate(make_negotiation_request(plain_sys.client, id, profile));
        EXPECT_EQ(result_signature(a), result_signature(b))
            << "seed " << seed << " doc " << id << " rep " << rep;
        ++compared;
        keep_cached.push_back(std::move(a));
        keep_plain.push_back(std::move(b));
      }
    }
    const PlanCacheStats stats = cache->stats();
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses) << "seed " << seed;
    EXPECT_LE(stats.stale, stats.misses) << "seed " << seed;
    total_hits += stats.hits;
  }
  EXPECT_GE(compared, 1000u);
  EXPECT_GT(total_hits, 0u);  // the suite exercised real replays, not just misses
}

TEST(PlanCacheDifferential, ParityHoldsUnderFlappingServers) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TestSystem cached_sys;
    TestSystem plain_sys;
    FaultPlan plan;
    plan.seed = seed;
    plan.server_defaults.transient_failure_p = 0.35;  // flapping servers
    plan.per_server["server-b"] = FaultSpec{};
    plan.per_server["server-b"].outage_after_events = 10;
    plan.per_server["server-b"].outage_length_events = 20;
    FaultyServerFarm cached_farm(cached_sys.farm, plan);
    FaultyServerFarm plain_farm(plain_sys.farm, plan);

    auto cache = std::make_shared<NegotiationPlanCache>();
    QoSManager cached(cached_sys.catalog, cached_farm, *cached_sys.transport, CostModel{},
                      cached_config(EnumerationStrategy::kBestFirst, cache));
    QoSManager plain(plain_sys.catalog, plain_farm, *plain_sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, nullptr));
    Rng rng(seed);
    std::vector<NegotiationResult> keep_cached, keep_plain;
    const UserProfile repeat_profile = random_profile(rng);
    for (int rep = 0; rep < 12; ++rep) {
      const UserProfile profile = rep % 3 == 0 ? repeat_profile : random_profile(rng);
      NegotiationResult a =
          cached.negotiate(make_negotiation_request(cached_sys.client, "article", profile));
      NegotiationResult b =
          plain.negotiate(make_negotiation_request(plain_sys.client, "article", profile));
      EXPECT_EQ(result_signature(a), result_signature(b)) << "seed " << seed << " rep " << rep;
      ++compared;
      keep_cached.push_back(std::move(a));
      keep_plain.push_back(std::move(b));
    }
    // Identical request sequences must have drawn identical injected faults:
    // the cached side's Step 5 is the same walk, not a shortcut around it.
    EXPECT_EQ(cached_farm.stats().injected_refusals, plain_farm.stats().injected_refusals);
    EXPECT_EQ(cached_farm.stats().outage_refusals, plain_farm.stats().outage_refusals);
    EXPECT_GT(cache->stats().hits, 0u);
  }
  EXPECT_GE(compared, 96u);
}

// --- Cache-unit surface. ---------------------------------------------------

TEST(PlanCache, HitsReplayStaleDropsAndConservation) {
  TestSystem sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();

  std::vector<NegotiationResult> keep;
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(cache->size(), 1u);

  // Re-adding the document moves the epoch: the cached plan is stale.
  sys.catalog.add(TestSystem::news_article());
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  stats = cache->stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.stale, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  for (NegotiationResult& r : keep) {
    EXPECT_EQ(r.verdict, NegotiationStatus::kSucceeded);
  }
}

TEST(PlanCache, BypassSkipsAndRefreshOverwrites) {
  TestSystem sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();

  NegotiationRequest bypass = make_negotiation_request(sys.client, "article", profile);
  bypass.cache = CacheUse::kBypass;
  std::vector<NegotiationResult> keep;
  keep.push_back(manager.negotiate(bypass));
  EXPECT_EQ(cache->stats().lookups, 0u);
  EXPECT_EQ(cache->size(), 0u);

  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  EXPECT_EQ(cache->stats().stores, 1u);

  NegotiationRequest refresh = make_negotiation_request(sys.client, "article", profile);
  refresh.cache = CacheUse::kRefresh;
  keep.push_back(manager.negotiate(refresh));
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 1u);  // refresh performs no lookup
  EXPECT_EQ(stats.stores, 2u);   // but recomputes and overwrites
  EXPECT_EQ(cache->size(), 1u);
}

TEST(PlanCache, LruEvictsLeastRecentlyUsedWithinCapacity) {
  NegotiationPlanCache cache(CachePolicy{/*shards=*/1, /*capacity=*/2});
  auto plan = std::make_shared<NegotiationPlan>();
  cache.store("a", plan);
  cache.store("b", plan);
  EXPECT_NE(cache.lookup("a", 0), nullptr);  // "a" is now most recent
  cache.store("c", plan);                    // evicts "b"
  EXPECT_EQ(cache.lookup("b", 0), nullptr);
  EXPECT_NE(cache.lookup("a", 0), nullptr);
  EXPECT_NE(cache.lookup("c", 0), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);  // counters survive clear()
}

TEST(PlanCache, KeyCoversInputsButNotProfileName) {
  TestSystem sys;
  Catalog other_catalog;
  const std::string digest =
      plan_config_digest(EnumerationConfig{}, ClassificationPolicy{}, 512, CostModel{});

  UserProfile profile = TestSystem::tolerant_profile();
  const std::uint64_t uid = sys.catalog.uid();
  const std::string base = plan_cache_key(uid, "article", sys.client, profile, digest);

  UserProfile renamed = profile;
  renamed.name = "completely-different-name";
  EXPECT_EQ(plan_cache_key(uid, "article", sys.client, renamed, digest), base);

  UserProfile cheaper = profile;
  cheaper.mm.cost.max_cost = Money::cents(1);
  EXPECT_NE(plan_cache_key(uid, "article", sys.client, cheaper, digest), base);

  ClientMachine smaller = sys.client;
  smaller.screen = ScreenSpec{640, 480, ColorDepth::kGray};
  EXPECT_NE(plan_cache_key(uid, "article", smaller, profile, digest), base);

  EXPECT_NE(plan_cache_key(uid, "article-2", sys.client, profile, digest), base);

  EXPECT_NE(other_catalog.uid(), uid);
  EXPECT_NE(plan_cache_key(other_catalog.uid(), "article", sys.client, profile, digest), base);

  const std::string other_digest =
      plan_config_digest(EnumerationConfig{}, ClassificationPolicy{}, 0, CostModel{});
  EXPECT_NE(plan_cache_key(uid, "article", sys.client, profile, other_digest), base);
}

TEST(PlanCache, CatalogsSharingOneCacheNeverAliasEqualIdsAtEqualEpochs) {
  // Two catalogs hold different content under the same document id at the
  // same epoch, and their managers share one cache. Keys carry the catalog
  // uid, so neither manager may replay the other's plan: each must match its
  // own uncached twin.
  MultimediaDocument trimmed = TestSystem::news_article();
  trimmed.monomedia.pop_back();
  TestSystem full_sys, trimmed_sys, full_twin, trimmed_twin;
  full_sys.catalog.add(TestSystem::news_article());
  full_twin.catalog.add(TestSystem::news_article());
  ASSERT_TRUE(trimmed_sys.catalog.add(MultimediaDocument{trimmed}).empty());
  ASSERT_TRUE(trimmed_twin.catalog.add(MultimediaDocument{trimmed}).empty());
  ASSERT_EQ(full_sys.catalog.epoch_of("article"), trimmed_sys.catalog.epoch_of("article"));

  auto cache = std::make_shared<NegotiationPlanCache>();
  const NegotiationConfig cached = cached_config(EnumerationStrategy::kBestFirst, cache);
  const NegotiationConfig plain = cached_config(EnumerationStrategy::kBestFirst, nullptr);
  QoSManager full(full_sys.catalog, full_sys.farm, *full_sys.transport, CostModel{}, cached);
  QoSManager trimmed_mgr(trimmed_sys.catalog, trimmed_sys.farm, *trimmed_sys.transport,
                         CostModel{}, cached);
  QoSManager full_plain(full_twin.catalog, full_twin.farm, *full_twin.transport, CostModel{},
                        plain);
  QoSManager trimmed_plain(trimmed_twin.catalog, trimmed_twin.farm, *trimmed_twin.transport,
                           CostModel{}, plain);

  const UserProfile profile = TestSystem::tolerant_profile();
  const auto request = [&](const TestSystem& sys) {
    return make_negotiation_request(sys.client, "article", profile);
  };
  std::vector<NegotiationResult> keep;
  for (int rep = 0; rep < 4; ++rep) {
    NegotiationResult a = full.negotiate(request(full_sys));
    NegotiationResult a_twin = full_plain.negotiate(request(full_twin));
    NegotiationResult b = trimmed_mgr.negotiate(request(trimmed_sys));
    NegotiationResult b_twin = trimmed_plain.negotiate(request(trimmed_twin));
    EXPECT_EQ(result_signature(a), result_signature(a_twin)) << "rep " << rep;
    EXPECT_EQ(result_signature(b), result_signature(b_twin)) << "rep " << rep;
    // The two contents really negotiate differently, so aliasing would show.
    EXPECT_NE(result_signature(a), result_signature(b)) << "rep " << rep;
    for (NegotiationResult* r : {&a, &a_twin, &b, &b_twin}) keep.push_back(std::move(*r));
  }
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 8u);
  EXPECT_EQ(stats.misses, 2u);  // one plan per catalog, then replays
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.stale, 0u);
  EXPECT_EQ(cache->size(), 2u);
}

TEST(PlanCache, EveryDocumentOfALargeCatalogHitsOnItsSecondRequest) {
  // Far more documents than any per-epoch memo would hold: keys depend on
  // the catalog entry alone, so every repeat is a hit.
  TestSystem sys;
  CorpusConfig corpus;
  corpus.seed = 200;
  corpus.num_documents = 200;
  for (auto& doc : generate_corpus(corpus)) ASSERT_TRUE(sys.catalog.add(std::move(doc)).empty());
  const std::vector<DocumentId> ids = sys.catalog.list();
  ASSERT_GE(ids.size(), 200u);

  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();
  for (const DocumentId& id : ids) {
    (void)manager.negotiate(make_negotiation_request(sys.client, id, profile));
  }
  const PlanCacheStats first = cache->stats();
  EXPECT_EQ(first.misses, ids.size());
  EXPECT_EQ(first.evictions, 0u);
  for (const DocumentId& id : ids) {
    (void)manager.negotiate(make_negotiation_request(sys.client, id, profile));
  }
  const PlanCacheStats second = cache->stats();
  EXPECT_EQ(second.hits - first.hits, ids.size());
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.lookups, second.hits + second.misses);
}

/// A one-video-monomedia document with `variants` distinct video variants.
MultimediaDocument video_ladder(const DocumentId& id, int variants) {
  MultimediaDocument doc;
  doc.id = id;
  doc.title = id;
  Monomedia video;
  video.id = id + "/video";
  video.kind = MediaKind::kVideo;
  video.duration_s = 60.0;
  for (int i = 0; i < variants; ++i) {
    const VideoQoS qos{static_cast<ColorDepth>(i / 16), 5 + 3 * (i % 16), kTvResolution};
    video.variants.push_back(make_video_variant(id + "/v" + std::to_string(i), qos,
                                                CodingFormat::kMPEG1, video.duration_s,
                                                i % 2 == 0 ? "server-a" : "server-b"));
  }
  doc.monomedia.push_back(std::move(video));
  return doc;
}

TEST(PlanCache, KeyLengthDoesNotGrowWithTheVariantLadder) {
  TestSystem sys;
  ASSERT_TRUE(sys.catalog.add(video_ladder("ladder-04", 4)).empty());
  ASSERT_TRUE(sys.catalog.add(video_ladder("ladder-64", 64)).empty());
  ASSERT_EQ(sys.catalog.find("ladder-64")->monomedia[0].variants.size(), 64u);
  const std::string digest =
      plan_config_digest(EnumerationConfig{}, ClassificationPolicy{}, 512, CostModel{});
  const UserProfile profile = TestSystem::tolerant_profile();
  const std::string narrow =
      plan_cache_key(sys.catalog.uid(), "ladder-04", sys.client, profile, digest);
  const std::string wide =
      plan_cache_key(sys.catalog.uid(), "ladder-64", sys.client, profile, digest);
  EXPECT_NE(narrow, wide);
  EXPECT_EQ(narrow.size(), wide.size());
  EXPECT_LT(wide.size(), 1024u);
}

TEST(PlanCache, ValidationSharesOnePathWithServiceConfig) {
  EXPECT_THROW((void)CachePolicy::validated(CachePolicy{0, 16}), std::invalid_argument);
  EXPECT_THROW((void)CachePolicy::validated(CachePolicy{4, 0}), std::invalid_argument);
  EXPECT_THROW((void)NegotiationPlanCache(CachePolicy{0, 0}), std::invalid_argument);
  const CachePolicy ok = CachePolicy::validated(CachePolicy{4, 64});
  EXPECT_EQ(ok.shards, 4u);
  EXPECT_EQ(ok.capacity, 64u);

  ServiceConfig bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW((void)ServiceConfig::validated(bad_workers), std::invalid_argument);
  ServiceConfig bad_deadline;
  bad_deadline.deadline_ms = -1.0;
  try {
    (void)ServiceConfig::validated(bad_deadline);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ServiceConfig: deadline_ms must not be negative");
  }
}

TEST(PlanCache, BindMetricsMirrorsCountersIntoRegistry) {
  TestSystem sys;
  auto cache = std::make_shared<NegotiationPlanCache>();
  QoSManager manager(sys.catalog, sys.farm, *sys.transport, CostModel{},
                     cached_config(EnumerationStrategy::kBestFirst, cache));
  const UserProfile profile = TestSystem::tolerant_profile();

  // Pre-bind traffic must be carried over at bind time (catch-up add).
  std::vector<NegotiationResult> keep;
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));

  MetricsRegistry registry;
  cache->bind_metrics(registry);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_misses"), 1u);
  keep.push_back(manager.negotiate(make_negotiation_request(sys.client, "article", profile)));
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_hits"), 1u);
  cache->bind_metrics(registry);  // re-bind of the same registry: no double count
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_hits"), 1u);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_misses"), cache->stats().misses);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_stale"), cache->stats().stale);
  EXPECT_EQ(registry.counter_value("qosnp_plan_cache_evictions"), cache->stats().evictions);
}

}  // namespace
}  // namespace qosnp
