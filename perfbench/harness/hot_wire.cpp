// hot_wire: the per-request tax of the served path. One WireServer over one
// NegotiationService (2 workers, plan cache on) on a capacity-rich farm;
// one generator thread drives 2 WireClient connections with 8 pipelined
// requests each and completes every session as its result arrives. The
// inputs (8 articles x 16 client machines x 4 named profiles) fit the plan
// cache, so Steps 1-4 replay from it and request copy, codec, socket hop,
// queue hand-off and session open/close dominate.
#include <array>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "document/corpus.hpp"
#include "inputs.hpp"
#include "netio/client.hpp"
#include "netio/node_config.hpp"
#include "netio/server.hpp"
#include "service_driver.hpp"

namespace perfbench {
namespace {

using namespace qosnp;

constexpr int kClients = 16;
constexpr int kDocuments = 8;
constexpr int kConnections = 2;
constexpr int kPipeline = 8;

struct Inputs {
  std::uint64_t seed;
  std::vector<MultimediaDocument> documents;
  std::vector<ClientMachine> clients;
  std::vector<UserProfile> profiles;

  explicit Inputs(std::uint64_t s) : seed(s) {
    // Fixed ladder shape (4 video variants, each replicated on the second
    // server; 2 audio; 2 text languages; 1-2 images): seeds vary the
    // qualities, not the amount of work per request.
    CorpusConfig corpus;
    corpus.num_documents = kDocuments;
    corpus.seed = stream_rng(seed, 1).next_u64();
    corpus.min_video_variants = corpus.max_video_variants = 4;
    corpus.min_audio_variants = corpus.max_audio_variants = 2;
    corpus.audio_probability = 1.0;
    corpus.text_probability = 1.0;
    corpus.second_language_probability = 1.0;
    corpus.image_probability = 1.0;
    corpus.replication_probability = 1.0;
    corpus.min_duration_s = 60.0;
    corpus.max_duration_s = 240.0;
    documents = generate_corpus(corpus);
    Rng rng = stream_rng(seed, 2);
    clients = make_clients(kClients, rng);
    profiles = named_profiles();
  }

  std::size_t combinations() const { return documents.size() * clients.size() * profiles.size(); }

  NegotiationRequest build(std::size_t doc, std::size_t client, std::size_t profile) const {
    return make_negotiation_request(clients[client], documents[doc].id, profiles[profile]);
  }

  /// Request i of the timed stream.
  NegotiationRequest request(std::uint64_t i) const {
    Rng rng = stream_rng(seed, 3, i);
    const std::size_t doc = rng.below(documents.size());
    const std::size_t client = rng.below(clients.size());
    const std::size_t profile = rng.below(profiles.size());
    NegotiationRequest r = build(doc, client, profile);
    r.id = i + 1;
    return r;
  }

  /// Warm-up request k: every (document, client, profile) combination once.
  NegotiationRequest combination(std::size_t k) const {
    const std::size_t profile = k % profiles.size();
    const std::size_t client = (k / profiles.size()) % clients.size();
    const std::size_t doc = k / (profiles.size() * clients.size());
    NegotiationRequest r = build(doc, client, profile);
    r.id = kWarmupIdBase + k;
    return r;
  }
};

/// Catalog + capacity-rich farm + transport + manager: the live system's
/// base and, without a plan cache, the reference twin.
struct Farm {
  Catalog catalog;
  ServerFarm farm;
  std::unique_ptr<TransportService> transport;
  std::unique_ptr<QoSManager> manager;

  explicit Farm(const Inputs& inputs, std::shared_ptr<NegotiationPlanCache> cache = nullptr) {
    transport = std::make_unique<TransportService>(
        Topology::dumbbell(kClients, 2, 10'000'000'000, 100'000'000'000));
    for (int i = 0; i < 2; ++i) {
      MediaServerConfig config;
      config.id = i == 0 ? "server-a" : "server-b";
      config.node = "server-node-" + std::to_string(i);
      config.disk_bandwidth_bps = 100'000'000'000;
      config.max_sessions = 1'000'000;
      farm.add(std::move(config));
    }
    for (const MultimediaDocument& doc : inputs.documents) {
      const auto problems = catalog.add(doc);
      if (!problems.empty()) throw GateError("corpus document rejected: " + problems.front());
    }
    NegotiationConfig negotiation;
    negotiation.plan_cache = std::move(cache);
    manager = std::make_unique<QoSManager>(catalog, farm, *transport, CostModel{},
                                           std::move(negotiation));
  }

  bool drained() const { return farm_drained(farm, *transport); }
};

struct System {
  using Twin = Farm;

  Inputs inputs;
  NodeConfig node;
  Farm base;
  SessionManager sessions;
  NegotiationService service;
  WireServer server;
  std::vector<std::unique_ptr<WireClient>> connections;

  System(std::uint64_t seed, TraceSink* sink)
      : inputs(seed),
        node(NodeConfig{}
                 .workers(2)
                 .queue_capacity(64)
                 .plan_cache_enabled(true)
                 .cache_capacity(1024)
                 .trace_sink(sink)),
        base(inputs, node.make_plan_cache()),
        sessions(*base.manager),
        service(*base.manager, sessions, node.service()),
        server(service, node.wire_server()) {
    service.start();
    server.start();
    for (int c = 0; c < kConnections; ++c) {
      WireClientConfig config;
      config.port = server.port();
      config.deadline_ms = 30'000.0;
      connections.push_back(std::make_unique<WireClient>(config));
      auto connected = connections.back()->connect();
      if (!connected.ok()) throw GateError("connect failed: " + connected.error().to_text());
    }
  }

  /// Pipelined pass over every combination: fills the plan cache and warms
  /// both connections. Sessions are completed as results arrive.
  void warm_up() {
    std::array<std::deque<std::uint64_t>, kConnections> inflight;
    std::size_t next = 0;
    const std::size_t total = inputs.combinations();
    auto issue = [&](int c) {
      auto seq = connections[c]->send(inputs.combination(next++));
      if (!seq.ok()) throw GateError("warm-up send failed: " + seq.error().to_text());
      inflight[c].push_back(seq.value());
    };
    for (int c = 0; c < kConnections; ++c) {
      for (int k = 0; k < kPipeline && next < total; ++k) issue(c);
    }
    bool pending = true;
    while (pending) {
      pending = false;
      for (int c = 0; c < kConnections; ++c) {
        if (inflight[c].empty()) continue;
        auto result = connections[c]->await(inflight[c].front());
        inflight[c].pop_front();
        if (!result.ok()) throw GateError("warm-up await failed: " + result.error().to_text());
        if (result.value().session_id != 0) sessions.complete(result.value().session_id);
        if (next < total) issue(c);
        pending = true;
      }
    }
  }

  /// Close connections, stop the server and the service, and check every
  /// drain-time law: no live session, opened == released, the farm and
  /// transport empty and consistent, and the qosnp_net_* ledger balanced.
  void shut_down(std::vector<std::string>& violations) {
    connections.clear();
    server.stop();
    service.stop();
    if (sessions.active_count() != 0 || sessions.opened_total() != sessions.released_total()) {
      violations.push_back("sessions left open after the run");
    }
    if (!base.drained()) violations.push_back("reservations left after the run (drain invariant)");
    if (!server.net().balanced()) violations.push_back("NetMetrics::balanced() is false");
  }
};

struct PhaseResult : ServicePhase {
  std::uint64_t net_errors = 0;
  std::size_t queue_high_water = 0;
};

struct InFlight {
  std::uint64_t seq = 0;
  std::uint64_t index = 0;
  Clock::time_point sent;
};

/// The closed loop: 2 connections x 8 pipelined requests from this thread.
/// Requests are numbered from `first_index` on, so the stream continues
/// across phases.
void run_phase(System& sys, double seconds, bool time_layers, std::uint64_t first_index,
               ServiceStats& stats, PhaseResult& phase, Fronts* fronts) {
  phase.loop = WindowedLoop(seconds, kWindowS);
  phase.loop.harness_mb = stats.reserved_mb();
  phase.first_index = first_index;
  phase.cache_before = sys.base.manager->plan_cache()->stats();
  std::array<std::deque<InFlight>, kConnections> inflight;
  std::uint64_t next = first_index;
  std::uint64_t completed = 0;
  bool broken = false;

  auto issue = [&](int c) {
    const std::uint64_t index = next++;
    const auto b0 = Clock::now();
    NegotiationRequest request = sys.inputs.request(index);
    const auto sent = Clock::now();
    if (time_layers) stats.build_us.push_back(us_between(b0, sent));
    auto seq = sys.connections[c]->send(request);
    if (!seq.ok()) {
      stats.transport_error(index, "send: " + seq.error().to_text());
      broken = true;
      return;
    }
    inflight[c].push_back({seq.value(), index, sent});
  };

  auto collect = [&](int c) {
    const InFlight f = inflight[c].front();
    inflight[c].pop_front();
    auto result = sys.connections[c]->await(f.seq);
    const auto now = Clock::now();
    if (!result.ok()) {
      stats.transport_error(f.index, "await: " + result.error().to_text());
      broken = true;
      return now;
    }
    const NegotiationResult& r = result.value();
    const double latency_us = us_between(f.sent, now);
    stats.resolved(f.index, r);
    phase.loop.record(latency_us, now);
    if (r.session_id != 0) {
      if (time_layers) {
        const auto c0 = Clock::now();
        sys.sessions.complete(r.session_id);
        stats.complete_us.push_back(us_between(c0, Clock::now()));
      } else {
        sys.sessions.complete(r.session_id);
      }
      if (++completed % kPruneEvery == 0) sys.sessions.prune_finished();
    }
    if (fronts != nullptr) (*fronts)[r.request_id] = {r.total_ms, r.queue_ms};
    if (time_layers) {
      stats.queue_us.push_back(r.queue_ms * 1e3);
      stats.hop_us.push_back(latency_us - r.total_ms * 1e3);
      if (stats.codec_results.size() < kCodecSample) {
        stats.codec_results.push_back(wire_copy(r));
        stats.codec_indices.push_back(f.index);
      }
    }
    return now;
  };

  auto fill = [&] {
    for (int c = 0; c < kConnections; ++c) {
      while (inflight[c].size() < static_cast<std::size_t>(kPipeline) && !broken) issue(c);
    }
  };

  // Each window ends by letting both pipelines empty, then pausing.
  phase.loop.start();
  fill();
  while (!broken) {
    bool waiting = false;
    for (int c = 0; c < kConnections && !broken; ++c) {
      if (inflight[c].empty()) continue;
      waiting = true;
      const auto now = collect(c);
      if (phase.loop.running(now) && !phase.loop.window_full(now) && !broken) issue(c);
    }
    if (waiting) continue;
    if (!phase.loop.running(Clock::now())) break;
    phase.loop.pause();
    fill();
  }
  // Drain what is still in flight: counted and checked, not timed. After a
  // transport error the rest of the connection's requests are failures too.
  for (int c = 0; c < kConnections; ++c) {
    while (!inflight[c].empty() && !broken) collect(c);
    for (const InFlight& f : inflight[c]) stats.transport_error(f.index, "connection lost");
  }
  phase.end_index = next;
  phase.cache_after = sys.base.manager->plan_cache()->stats();
  const NetMetrics& net = sys.server.net();
  phase.net_errors = net.decode_errors->value() + net.orphaned_results->value() +
                     net.shed_overload->value() + net.shed_frame_too_large->value();
  phase.queue_high_water = sys.service.report().queue_high_water;
}

}  // namespace

RunOutput run_hot_wire(const Options& options) {
  ServiceRun<System, PhaseResult> run(options, run_phase);
  run.measure();
  run.stop();
  RunOutput out = run.output();
  if (!options.trace) return out;

  const PhaseResult& phase = run.measured();
  std::vector<Metric>& L = out.per_layer;
  L.push_back(exact_metric("service.queue_high_water", "count",
                           static_cast<double>(phase.queue_high_water), 1));
  L.push_back(median_metric("netio.hop_us", "us", run.stats.hop_us));
  L.push_back(exact_metric("netio.errors", "count", static_cast<double>(phase.net_errors), 1));
  return out;
}

}  // namespace perfbench
