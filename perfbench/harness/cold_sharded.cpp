// cold_sharded: the cache-miss path. A 3-shard ShardedService (1 worker per
// shard) driven through ShardRouter::submit_async with 12 requests in
// flight from one generator thread. ~2000 wide-ladder documents place
// variants on the servers of every shard, and every request carries a
// personalised profile, so Steps 1-4 run nearly every time, the plan cache
// stores and evicts, and a share of Step-5 commits cross shards through the
// FederatedCommitter. No wire.
#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "netio/node_config.hpp"
#include "service_driver.hpp"
#include "shard/sharded_service.hpp"

namespace perfbench {
namespace {

using namespace qosnp;

constexpr std::size_t kShards = 3;
constexpr int kClients = 16;
constexpr int kDocuments = 2000;
constexpr std::size_t kInFlight = 12;
/// Warm-up requests per set-up: enough to fill every shard's plan cache
/// (3 x 1024 plans), so the timed phase sees the steady miss-and-evict path.
constexpr std::size_t kWarmup = 4096;

volatile std::size_t route_sink = 0;  // keeps the timed routing loop observable

std::string server_id(std::size_t k) { return "srv-" + std::to_string(k); }

struct Inputs {
  std::uint64_t seed;
  std::vector<MultimediaDocument> documents;
  std::vector<ClientMachine> clients;

  explicit Inputs(std::uint64_t s) : seed(s) {
    std::vector<std::string> servers;
    for (std::size_t k = 0; k < kShards; ++k) servers.push_back(server_id(k));
    documents = wide_corpus(kDocuments, servers, stream_rng(seed, 1).next_u64());
    Rng rng = stream_rng(seed, 2);
    clients = make_clients(kClients, rng);
  }

  NegotiationRequest draw(Rng& rng) const {
    const std::size_t doc = rng.below(documents.size());
    const std::size_t client = rng.below(clients.size());
    return make_negotiation_request(clients[client], documents[doc].id,
                                    personalised_profile(rng));
  }

  /// Request i of the timed stream.
  NegotiationRequest request(std::uint64_t i) const {
    Rng rng = stream_rng(seed, 3, i);
    NegotiationRequest r = draw(rng);
    r.id = i + 1;
    return r;
  }

  NegotiationRequest warmup(std::uint64_t i) const {
    Rng rng = stream_rng(seed, 4, i);
    NegotiationRequest r = draw(rng);
    r.id = kWarmupIdBase + i;
    return r;
  }
};

MediaServerConfig rich_server(std::size_t k) {
  MediaServerConfig server;
  server.id = server_id(k);
  server.node = "server-node-" + std::to_string(k);
  server.disk_bandwidth_bps = 100'000'000'000;
  server.max_sessions = 1'000'000;
  return server;
}

Topology rich_topology() {
  return Topology::dumbbell(kClients, static_cast<int>(kShards), 10'000'000'000,
                            100'000'000'000);
}

std::vector<ShardSpec> shard_specs() {
  std::vector<ShardSpec> specs(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    specs[k].servers.push_back(rich_server(k));
    specs[k].topology = rich_topology();
  }
  return specs;
}

/// The reference twin: one unsharded manager over the same servers, the
/// whole corpus and no plan cache.
struct ReferenceTwin {
  Catalog catalog;
  ServerFarm farm;
  TransportService transport{rich_topology()};
  std::unique_ptr<QoSManager> manager;

  explicit ReferenceTwin(const Inputs& inputs) {
    for (std::size_t k = 0; k < kShards; ++k) farm.add(rich_server(k));
    for (const MultimediaDocument& doc : inputs.documents) catalog.add(doc);
    manager = std::make_unique<QoSManager>(catalog, farm, transport);
  }

  bool drained() const { return farm_drained(farm, transport); }
};

/// Completed results handed from shard workers to the generator thread.
struct Done {
  std::uint64_t index = 0;
  Clock::time_point sent, received;
  NegotiationResult result;
};

class Mailbox {
 public:
  void post(Done done) {
    {
      std::lock_guard lk(mu_);
      items_.push_back(std::move(done));
    }
    cv_.notify_one();
  }
  /// Blocks until at least one result arrived; takes them all.
  void take(std::vector<Done>& into) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return !items_.empty(); });
    into.swap(items_);
    items_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Done> items_;  ///< guarded by mu_
};

struct System {
  using Twin = ReferenceTwin;

  Inputs inputs;
  Mailbox mailbox;  // declared before the federation so workers never outlive it
  ShardedService sharded;

  System(std::uint64_t seed, TraceSink* sink)
      : inputs(seed),
        sharded(shard_specs(), NodeConfig{}
                                   .workers(1)
                                   .queue_capacity(64)
                                   .plan_cache_enabled(true)
                                   .cache_capacity(1024)
                                   .trace_sink(sink)) {
    for (const MultimediaDocument& doc : inputs.documents) {
      const auto problems = sharded.add_document(doc);
      if (!problems.empty()) throw GateError("corpus document rejected: " + problems.front());
    }
    sharded.start();
  }

  void submit(NegotiationRequest request, std::uint64_t index, Clock::time_point sent) {
    sharded.router().submit_async(std::move(request),
                                  [this, index, sent](NegotiationResult result) {
                                    mailbox.post({index, sent, Clock::now(), std::move(result)});
                                  });
  }

  void warm_up() {
    std::size_t issued = 0;
    std::size_t open = 0;
    std::vector<Done> batch;
    while (issued < kWarmup || open > 0) {
      while (open < kInFlight && issued < kWarmup) {
        submit(inputs.warmup(issued), issued, Clock::now());
        ++issued;
        ++open;
      }
      mailbox.take(batch);
      for (Done& d : batch) {
        --open;
        if (d.result.session_id != 0) sharded.sessions().complete(d.result.session_id);
      }
      batch.clear();
    }
  }

  void shut_down(std::vector<std::string>& invariants) {
    sharded.stop();
    SessionManager& sessions = sharded.sessions();
    if (sessions.active_count() != 0 || sessions.opened_total() != sessions.released_total()) {
      invariants.push_back("sessions left open after the run");
    }
    if (!sharded.shard_metrics().balanced()) invariants.push_back("shard balance law violated");
    if (!sharded.drained()) invariants.push_back("federation not drained (drain invariant)");
  }

  PlanCacheStats cache_stats() {
    PlanCacheStats total;
    for (std::size_t k = 0; k < kShards; ++k) {
      const PlanCacheStats s = sharded.manager(k).plan_cache()->stats();
      total.lookups += s.lookups;
      total.hits += s.hits;
      total.evictions += s.evictions;
    }
    return total;
  }

  std::uint64_t cross_commits() {
    std::uint64_t total = 0;
    for (const Counter* c : sharded.shard_metrics().cross_commits) total += c->value();
    return total;
  }
};

struct Counters {
  std::vector<std::uint64_t> routed;
  std::uint64_t cross = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t opened = 0;

  static Counters read(System& sys) {
    Counters c;
    for (const Counter* r : sys.sharded.shard_metrics().routed) c.routed.push_back(r->value());
    c.cross = sys.cross_commits();
    c.rollbacks = sys.sharded.shard_metrics().federated_rollbacks->value();
    c.opened = sys.sharded.sessions().opened_total();
    return c;
  }
};

struct PhaseResult : ServicePhase {
  Counters before, after;
  std::vector<double> busy_ms = std::vector<double>(kShards, 0.0);
  double wall_s = 0.0;
};

void run_phase(System& sys, double seconds, bool time_layers, std::uint64_t first_index,
               ServiceStats& stats, PhaseResult& phase, Fronts* fronts) {
  phase.loop = WindowedLoop(seconds, kWindowS);
  phase.loop.harness_mb = stats.reserved_mb();
  phase.first_index = first_index;
  phase.before = Counters::read(sys);
  phase.cache_before = sys.cache_stats();
  std::uint64_t next = first_index;
  std::size_t open = 0;
  std::uint64_t completed = 0;
  std::vector<std::size_t> home;  // per request index, layer runs only

  auto issue = [&] {
    const std::uint64_t index = next++;
    const auto b0 = Clock::now();
    NegotiationRequest request = sys.inputs.request(index);
    const auto sent = Clock::now();
    if (time_layers) {
      stats.build_us.push_back(us_between(b0, sent));
      home.push_back(sys.sharded.router().home_shard(request));
    }
    sys.submit(std::move(request), index, sent);
    ++open;
  };

  phase.loop.start();
  for (std::size_t k = 0; k < kInFlight; ++k) issue();
  bool running = true;
  std::vector<Done> batch;
  while (open > 0) {
    sys.mailbox.take(batch);
    for (Done& d : batch) {
      --open;
      NegotiationResult& r = d.result;
      stats.resolved(d.index, r);
      if (phase.loop.running(d.received)) {
        phase.loop.record(us_between(d.sent, d.received), d.received);
        if (time_layers) {
          phase.busy_ms[home[d.index - first_index]] += r.total_ms - r.queue_ms;
        }
      }
      if (r.session_id != 0) {
        if (time_layers) {
          const auto c0 = Clock::now();
          sys.sharded.sessions().complete(r.session_id);
          stats.complete_us.push_back(us_between(c0, Clock::now()));
        } else {
          sys.sharded.sessions().complete(r.session_id);
        }
        if (++completed % kPruneEvery == 0) sys.sharded.sessions().prune_finished();
      }
      if (time_layers) {
        stats.queue_us.push_back(r.queue_ms * 1e3);
        if (stats.codec_results.size() < kCodecSample) {
          stats.codec_results.push_back(wire_copy(r));
          stats.codec_indices.push_back(d.index);
        }
      }
      if (fronts != nullptr) (*fronts)[r.request_id] = {r.total_ms, r.queue_ms};
    }
    batch.clear();
    if (!running) continue;
    if (!phase.loop.running(Clock::now())) {
      running = false;
      continue;
    }
    // Each window ends by letting what is in flight complete, then pausing.
    if (phase.loop.window_full(Clock::now())) {
      if (open > 0) continue;
      phase.loop.pause();
    }
    while (open < kInFlight) issue();
  }
  phase.wall_s = phase.loop.elapsed_s();
  phase.end_index = next;
  phase.after = Counters::read(sys);
  phase.cache_after = sys.cache_stats();
}

double delta_share(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

RunOutput run_cold_sharded(const Options& options) {
  ServiceRun<System, PhaseResult> run(options, run_phase);
  run.measure();

  // Routing cost, timed on the run's own requests against the live router.
  std::vector<double> route_us;
  if (options.trace) {
    System& sys = run.live();
    std::vector<NegotiationRequest> sample;
    for (std::uint64_t i : run.stats.codec_indices) sample.push_back(sys.inputs.request(i));
    for (int rep = 0; rep < 7 && !sample.empty(); ++rep) {
      std::size_t routed = 0;
      const auto t0 = Clock::now();
      for (const NegotiationRequest& r : sample) routed += sys.sharded.router().home_shard(r);
      route_us.push_back(us_between(t0, Clock::now()) / static_cast<double>(sample.size()));
      route_sink = routed;
    }
  }
  run.stop();
  RunOutput out = run.output();
  if (!options.trace) return out;

  const PhaseResult& phase = run.measured();
  const Counters& a = phase.before;
  const Counters& b = phase.after;
  const std::uint64_t requests = phase.end_index - phase.first_index;
  std::vector<Metric>& L = out.per_layer;
  {
    std::size_t high_water = 0;
    for (std::size_t k = 0; k < kShards; ++k) {
      high_water = std::max(high_water, run.live().sharded.service(k).report().queue_high_water);
    }
    L.push_back(exact_metric("service.queue_high_water", "count",
                             static_cast<double>(high_water), kShards));
  }
  L.push_back(median_metric("shard.route_us", "us", route_us));
  {
    std::vector<double> routed;
    for (std::size_t k = 0; k < kShards; ++k) {
      routed.push_back(static_cast<double>(b.routed[k] - a.routed[k]));
    }
    const double mean =
        std::accumulate(routed.begin(), routed.end(), 0.0) / static_cast<double>(kShards);
    const double max = *std::max_element(routed.begin(), routed.end());
    L.push_back(exact_metric("shard.imbalance", "ratio", mean > 0.0 ? max / mean : 0.0, kShards));
    const double busiest = *std::max_element(phase.busy_ms.begin(), phase.busy_ms.end());
    Metric busy = exact_metric("shard.busy_share", "ratio",
                               phase.wall_s > 0.0 ? busiest / 1e3 / phase.wall_s : 0.0, kShards);
    busy.note = "busiest shard: worker busy time (total_ms - queue_ms) / wall time";
    L.push_back(std::move(busy));
  }
  L.push_back(exact_metric("shard.cross_share", "ratio",
                           delta_share(b.cross - a.cross, b.opened - a.opened),
                           b.opened - a.opened));
  L.push_back(exact_metric("shard.rollbacks_per_req", "1/req",
                           delta_share(b.rollbacks - a.rollbacks, requests), requests));
  return out;
}

}  // namespace perfbench
