// population_contended: the write side under contention. E18's mixed-class
// population (3 classes; admission headroom {0.30, 0.15, 0}; PolicyEngine
// with max_victims 32; violations and upgrade scans on) against a 2-server
// farm, offered about 2x its sustainable rate, single-threaded on simulated
// time. Commit walks go deep through refusals, preemption, adaptation and
// upgrades run, and releases interleave with reservations. The backend is
// wrapped in a timing decorator; replicates of fixed simulated length run
// back to back (seeds derived from --seed) until the wall budget is spent.
//
// The sustainable rate is measured on this workload's own corpus, farm and
// replicate length by E18's capacity search:
//
//   perfbench --calibrate population_contended --seed N
#include <sched.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "document/corpus.hpp"
#include "inputs.hpp"
#include "policy/preemption.hpp"
#include "service_stats.hpp"
#include "sim/population.hpp"

namespace perfbench {
namespace {

using namespace qosnp;

constexpr int kFarmServers = 2;
constexpr int kClients = 3;  // one node per population class
/// One corpus for every --seed: E18's generator and corpus seed, 256
/// documents (E18 has 12) in a fixed ladder shape. The corpus sets how much
/// work a refused request walks through; a corpus drawn per seed changed the
/// work per request by up to 1.7x between seeds, so the seed drives the
/// population instead (arrivals, classes, titles chosen, violations).
constexpr int kDocuments = 256;
constexpr std::uint64_t kCorpusSeed = 99;
/// Sustainable aggregate arrival rate of this farm and corpus (shed rate
/// <= 5% over a replicate), from --calibrate: 0.656-0.828/s over seeds 1-9,
/// median 0.796875/s. The standard population's base aggregate rate is
/// 1.0/s, so the multiplier is the rate; the workload offers twice it.
constexpr double kSustainableRate = 0.796875;
constexpr double kLoadMultiplier = 2.0 * kSustainableRate;
/// E18's capacity search: shed rate threshold, bracket and bisection steps.
constexpr double kShedThreshold = 0.05;
constexpr double kSearchHigh = 16.0;
constexpr int kSearchSteps = 10;
constexpr double kViolationRatePerS = 0.05;
constexpr double kUpgradeScanS = 5.0;
constexpr double kReplicateS = 1'000.0;  // simulated seconds per replicate
/// One set-up sample is the mean of this many set-ups, each timed alone: a
/// single 1-2 ms set-up reads in one of two modes 1.5x apart on a shared
/// host, and the median of single set-ups flips between them from run to
/// run. One sample is taken before the run and one between every two
/// replicates of the measured phase, so the samples span the run; their
/// median is setup_s.
constexpr int kSetupBatch = 8;
/// One window per replicate: a replicate's load ramps from an empty farm to
/// contention, so only whole replicates are comparable units of work.
constexpr double kWindowS = 0.0;

/// E18's farm system: one corpus replicated onto every server, headroom
/// withheld from the lower classes, a preemption engine with a generous
/// victim budget. Without `contended`, E18's capacity-sweep farm: no
/// headroom and no policy.
struct FarmSystem {
  Catalog catalog;
  std::unique_ptr<TransportService> transport;
  ServerFarm farm;
  std::unique_ptr<QoSManager> manager;
  std::unique_ptr<SessionManager> sessions;
  std::unique_ptr<PolicyEngine> policy;
  std::unique_ptr<ManagerPopulationBackend> backend;
  std::vector<DocumentId> documents;

  explicit FarmSystem(bool contended = true) {
    ClassHeadroom headroom;
    if (contended) headroom.fraction = {0.30, 0.15, 0.0};
    transport = std::make_unique<TransportService>(
        Topology::dumbbell(kClients, kFarmServers, 600'000'000,
                           static_cast<std::int64_t>(kFarmServers) * 150'000'000));
    transport->set_class_headroom(headroom);
    for (int i = 0; i < kFarmServers; ++i) {
      MediaServerConfig server;
      server.id = "server-" + std::to_string(i);
      server.node = "server-node-" + std::to_string(i);
      server.disk_bandwidth_bps = 150'000'000;
      server.max_sessions = 48;
      server.headroom = headroom;
      farm.add(std::move(server));
    }
    // E18's generator with a fixed ladder shape (4 video and 2 audio
    // variants, 2 text languages): a refused request walks every offer, so
    // ladder sizes set the cost per request.
    CorpusConfig corpus;
    corpus.seed = kCorpusSeed;
    corpus.num_documents = kDocuments;
    corpus.min_video_variants = corpus.max_video_variants = 4;
    corpus.min_audio_variants = corpus.max_audio_variants = 2;
    corpus.audio_probability = 1.0;
    corpus.text_probability = 1.0;
    corpus.second_language_probability = 1.0;
    corpus.min_duration_s = 30.0;
    corpus.max_duration_s = 120.0;
    corpus.servers = {"server-0"};
    corpus.replication_probability = 0.0;
    for (MultimediaDocument doc : generate_corpus(corpus)) {
      for (int k = 1; k < kFarmServers; ++k) {
        for (Monomedia& mono : doc.monomedia) {
          const std::size_t originals = mono.variants.size();
          for (std::size_t v = 0; v < originals; ++v) {
            Variant replica = mono.variants[v];
            replica.id += "@s" + std::to_string(k);
            replica.server = "server-" + std::to_string(k);
            mono.variants.push_back(std::move(replica));
          }
        }
      }
      const auto problems = catalog.add(std::move(doc));
      if (!problems.empty()) throw GateError("corpus document rejected: " + problems.front());
    }
    documents = catalog.list();
    std::sort(documents.begin(), documents.end());
    manager = std::make_unique<QoSManager>(catalog, farm, *transport);
    sessions = std::make_unique<SessionManager>(*manager);
    backend = std::make_unique<ManagerPopulationBackend>(*manager, *sessions);
    if (!contended) return;
    PreemptionPolicy preemption;
    preemption.enabled = true;
    preemption.max_victims = 32;
    policy = std::make_unique<PolicyEngine>(*manager, *sessions, preemption);
    backend->set_policy(policy.get());
  }

  bool drained() const {
    return sessions->active_count() == 0 &&
           sessions->opened_total() == sessions->released_total() &&
           farm_drained(farm, *transport);
  }
};

/// The standard population on this farm's client nodes, every arrival rate
/// scaled by `multiplier`. `contended` adds violations and upgrade scans;
/// without it, E18's capacity-sweep population.
PopulationConfig population(std::uint64_t replicate_seed, double multiplier = kLoadMultiplier,
                            bool contended = true) {
  PopulationConfig config;
  config.classes = standard_population();
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    ClientClass& cls = config.classes[i];
    cls.machine.node = "client-" + std::to_string(i);
    cls.arrival_rate_per_s *= multiplier;
    if (contended) cls.violation_rate_per_s = kViolationRatePerS;
  }
  config.duration_s = kReplicateS;
  if (contended) config.upgrade_scan_interval_s = kUpgradeScanS;
  config.seed = replicate_seed;
  return config;
}

std::uint64_t replicate_seed(std::uint64_t seed, int replicate) {
  return stream_rng(seed, 5, static_cast<std::uint64_t>(replicate)).next_u64();
}

/// The benchmark-side timing decorator: times every negotiation the
/// population hands to the backend, and in traced phases gives each request
/// a TraceContext of its own.
class TimedBackend final : public PopulationBackend {
 public:
  explicit TimedBackend(FarmSystem& sys) : sys_(&sys) {
    sys.backend->set_result_observer([this](const NegotiationResult& raw) {
      if (!record_layers_ || raw.offers.total_combinations == 0) return;
      materialised_.push_back(static_cast<double>(raw.offers.offers.size()) /
                              static_cast<double>(raw.offers.total_combinations));
    });
  }
  ~TimedBackend() override { sys_->backend->set_result_observer({}); }
  TimedBackend(const TimedBackend&) = delete;
  TimedBackend& operator=(const TimedBackend&) = delete;

  void begin_phase(WindowedLoop* loop, SpanStats* spans, bool record_layers) {
    loop_ = loop;
    spans_ = spans;
    record_layers_ = record_layers;
    busy_s_ = 0.0;
  }

  NegotiationResult negotiate(NegotiationRequest request, double sim_now_s) override {
    std::unique_ptr<NegotiationTrace> trace;
    if (spans_ != nullptr) {
      trace = std::make_unique<NegotiationTrace>(request.id);
      request.trace = TraceContext(trace.get());
    }
    if (record_layers_ && codec_requests.size() < kCodecSample) {
      codec_requests.push_back(request);
      codec_requests.back().trace = {};
    }
    const auto t0 = Clock::now();
    NegotiationResult result = sys_->backend->negotiate(std::move(request), sim_now_s);
    const auto t1 = Clock::now();
    busy_s_ += seconds_between(t0, t1);
    if (loop_ != nullptr && loop_->running(t1)) {
      loop_->record(us_between(t0, t1), t1);
      if (loop_->completed() % 128 == 0) loop_->sample_heap();
    }

    ++attempted;
    if (committed(result.verdict)) ++committed_count;
    attempts += static_cast<std::uint64_t>(std::max(result.commit_stats.attempts, 0));
    rollbacks += static_cast<std::uint64_t>(std::max(result.commit_stats.released_on_failure, 0));
    if (result.shed != ShedReason::kNone) ++failed;
    if (trace) spans_->add(*trace);
    if (record_layers_ && codec_results.size() < kCodecSample) {
      codec_results.push_back(wire_copy(result));
    }
    return result;
  }

  SessionManager& sessions() override { return sys_->backend->sessions(); }
  double session_now_s(double sim_now_s) const override {
    return sys_->backend->session_now_s(sim_now_s);
  }
  PolicyEngine* policy() override { return sys_->backend->policy(); }

  double busy_s() const { return busy_s_; }
  const std::vector<double>& materialised() const { return materialised_; }

  std::uint64_t attempted = 0;
  std::uint64_t committed_count = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t rollbacks = 0;
  std::vector<NegotiationRequest> codec_requests;
  std::vector<NegotiationResult> codec_results;

 private:
  FarmSystem* sys_;
  WindowedLoop* loop_ = nullptr;
  SpanStats* spans_ = nullptr;
  bool record_layers_ = false;
  double busy_s_ = 0.0;
  std::vector<double> materialised_;
};

struct PhaseResult {
  WindowedLoop loop{0.0, kWindowS};
  ClassCounts totals;
  double wall_s = 0.0;
  double busy_s = 0.0;
  std::uint64_t arrivals = 0;
};

/// Pins the single generator thread to one of the CPUs the process may use
/// per replicate, in turn, and restores the CPU mask when destroyed. The
/// vCPUs of a shared host are not equally fast at the same moment (per-vCPU
/// medians of one run were 20-30% apart), and a single thread left to the
/// scheduler tends to stay on one of them for a whole run; the
/// multi-threaded workloads sample every vCPU, and so, one replicate at a
/// time, does this one. Replicate k always runs on the same CPU, so the
/// untraced and traced passes over the same replicates match.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int replicate) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(replicate) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

/// Takes one set-up sample (see kSetupBatch); `sys` keeps the last system.
void time_setup_batch(std::unique_ptr<FarmSystem>& sys, EndToEndInputs& e2e) {
  const CpuTicks ticks0 = read_cpu_ticks();
  double total_s = 0.0;
  for (int k = 0; k < kSetupBatch; ++k) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = std::make_unique<FarmSystem>();
    total_s += seconds_between(t0, Clock::now());
  }
  e2e.setup_seconds.push_back(total_s / kSetupBatch);
  e2e.setup_steal.push_back(steal_share(ticks0, read_cpu_ticks()));
}

/// Replicates back to back until the wall budget is spent. Every replicate
/// must conserve its per-class lifecycle counts and leave the farm drained.
/// With `setups`, a set-up sample of spare systems is taken between
/// replicates, outside every window.
void run_phase(FarmSystem& sys, TimedBackend& backend, CpuRotation& cpus, std::uint64_t seed,
               double seconds, int& next_replicate, std::vector<std::string>& first_signature,
               std::vector<std::string>& invariants, PhaseResult& phase,
               EndToEndInputs* setups = nullptr) {
  phase.loop = WindowedLoop(seconds, kWindowS);
  phase.loop.start();
  const auto t0 = Clock::now();
  const double busy0 = backend.busy_s();
  while (phase.loop.running(Clock::now())) {
    const int replicate = next_replicate++;
    cpus.pin(replicate);
    const PopulationMetrics metrics =
        Population(population(replicate_seed(seed, replicate)), backend, sys.documents).run();
    const auto now = Clock::now();
    if (phase.loop.running(now)) {
      phase.loop.pause();
      if (setups != nullptr) {
        std::unique_ptr<FarmSystem> spare;
        time_setup_batch(spare, *setups);
        spare.reset();
        phase.loop.skip(Clock::now());
      }
    }
    if (!metrics.conserved()) {
      invariants.push_back("replicate " + std::to_string(replicate) +
                           ": per-class lifecycle counts not conserved");
    }
    if (!sys.drained()) {
      invariants.push_back("replicate " + std::to_string(replicate) +
                           ": reservations or sessions survived the replicate");
    }
    if (replicate == 0) first_signature.push_back(metrics.signature());
    const ClassCounts t = metrics.totals();
    phase.totals.add(t);
    phase.arrivals += t.arrivals;
  }
  phase.wall_s = seconds_between(t0, Clock::now());
  phase.busy_s = backend.busy_s() - busy0;
}

}  // namespace

RunOutput run_population_contended(const Options& options) {
  RunOutput out;
  std::vector<std::string> invariants;

  EndToEndInputs e2e;
  std::unique_ptr<FarmSystem> sys;
  time_setup_batch(sys, e2e);
  TimedBackend backend(*sys);
  CpuRotation cpus;

  // --trace 0: one measured phase. --trace 1: a layers pass (outside
  // timings and samples), then the same replicates twice with the same
  // harness work, untraced and traced, for trace.overhead_share and spans.
  const double phase_s = options.trace ? options.seconds / 3.0 : options.seconds;
  int next_replicate = 0;
  std::vector<std::string> signature;
  PhaseResult phase;
  backend.begin_phase(&phase.loop, nullptr, options.trace);
  run_phase(*sys, backend, cpus, options.seed, phase_s, next_replicate, signature, invariants,
            phase, &e2e);
  const double peak_rss = peak_rss_mb();

  PhaseResult baseline, traced;
  SpanStats spans;
  if (options.trace) {
    const int first = next_replicate;
    backend.begin_phase(&baseline.loop, nullptr, false);
    run_phase(*sys, backend, cpus, options.seed, phase_s, next_replicate, signature, invariants,
              baseline);
    next_replicate = first;
    backend.begin_phase(&traced.loop, &spans, false);
    run_phase(*sys, backend, cpus, options.seed, phase_s, next_replicate, signature, invariants,
              traced);
  }
  backend.begin_phase(nullptr, nullptr, false);

  // Determinism: replicate 0 again on a fresh system must reproduce the
  // per-class outcome counts byte for byte.
  {
    FarmSystem fresh;
    TimedBackend again(fresh);
    const PopulationMetrics metrics =
        Population(population(replicate_seed(options.seed, 0)), again, fresh.documents).run();
    if (signature.empty() || metrics.signature() != signature.front()) {
      invariants.push_back("same-seed replicate diverged (PopulationMetrics::signature)");
    }
  }

  out.attempted = backend.attempted;
  out.failed = backend.failed + invariants.size();
  out.violations = invariants;

  e2e.loop = &phase.loop;
  e2e.attempted = backend.attempted;
  e2e.failed = out.failed;
  e2e.committed = backend.committed_count;
  e2e.peak_rss_mb = peak_rss;
  e2e.pooled = true;
  append_end_to_end(e2e, out.end_to_end);

  if (!options.trace) return out;

  const double arrivals = static_cast<double>(std::max<std::uint64_t>(phase.arrivals, 1));
  const double attempted = static_cast<double>(std::max<std::uint64_t>(backend.attempted, 1));
  std::vector<Metric>& L = out.per_layer;
  L.push_back(not_measured("request.build_us", "us",
                           "requests are built inside Population::arrive, out of the "
                           "harness's reach"));
  L.push_back(median_metric("steps12.us", "us", spans.steps12_us()));
  L.push_back(median_metric("steps34.us", "us", spans.self_us(Stage::kEnumeration)));
  {
    Metric m = median_metric("steps34.offers_materialised", "ratio", backend.materialised());
    m.note = "offers materialised per request / full offer space, seen by the result observer";
    L.push_back(std::move(m));
  }
  L.push_back(median_metric("commit.walk_us", "us", spans.self_us(Stage::kCommitWalk)));
  L.push_back(median_metric("commit.attempt_us", "us", spans.self_us(Stage::kCommitAttempt)));
  L.push_back(exact_metric("commit.attempts_per_req", "1/req",
                           static_cast<double>(backend.attempts) / attempted, backend.attempted));
  L.push_back(exact_metric("commit.useful_share", "ratio",
                           backend.attempts == 0
                               ? 0.0
                               : static_cast<double>(backend.committed_count) /
                                     static_cast<double>(backend.attempts),
                           backend.attempts));
  L.push_back(exact_metric("commit.rollbacks_per_req", "1/req",
                           static_cast<double>(backend.rollbacks) / attempted,
                           backend.attempted));
  L.push_back(not_measured("session.admission_us", "us",
                           "LocalClient opens sessions without a kAdmission span"));
  L.push_back(not_measured("session.complete_us", "us",
                           "the population completes sessions itself, not through the harness"));
  time_wire_codec(backend.codec_requests, backend.codec_results, L);
  L.push_back(exact_metric(
      "policy.preemptions_per_req", "1/req",
      static_cast<double>(phase.totals.policy_preempted + phase.totals.policy_degraded) /
          arrivals,
      phase.arrivals));
  L.push_back(exact_metric("policy.upgrades_per_req", "1/req",
                           static_cast<double>(phase.totals.upgrades) / arrivals,
                           phase.arrivals));
  L.push_back(median_metric("policy.preempt_us", "us", spans.self_us(Stage::kPreemption)));
  L.push_back(not_measured("policy.upgrade_us", "us",
                           "Population runs PolicyEngine::run_upgrades without a TraceContext"));
  {
    Metric m = exact_metric("sim.self_share", "ratio",
                            baseline.wall_s > 0.0 ? 1.0 - baseline.busy_s / baseline.wall_s : 0.0,
                            1);
    m.note = "wall time outside backend negotiate calls / wall time, untraced pass";
    L.push_back(std::move(m));
  }
  L.push_back(trace_overhead(baseline.loop, traced.loop, spans.traces()));
  return out;
}

int calibrate_population(const Options& options) {
  // E18's capacity search (bench_e18_population): bisect the arrival-rate
  // multiplier for the largest load whose shed rate stays within 5%, on the
  // capacity-sweep farm (no headroom, no policy, no violations), one
  // replicate of this workload's length per point.
  double lo = 0.0;
  double hi = kSearchHigh;
  for (int step = 0; step < kSearchSteps; ++step) {
    const double mid = (lo + hi) / 2.0;
    FarmSystem farm(/*contended=*/false);
    const PopulationMetrics metrics =
        Population(population(replicate_seed(options.seed, 0), mid, /*contended=*/false),
                   *farm.backend, farm.documents)
            .run();
    if (!metrics.conserved() || !farm.drained()) {
      throw GateError("calibration replicate not conserved or not drained");
    }
    std::cout << "multiplier " << mid << ": shed rate " << metrics.shed_rate() << '\n';
    (metrics.shed_rate() <= kShedThreshold ? lo : hi) = mid;
  }
  double base_rate = 0.0;
  for (const ClientClass& cls : standard_population()) base_rate += cls.arrival_rate_per_s;
  std::cout << "seed " << options.seed << ": sustainable aggregate arrival rate "
            << lo * base_rate << "/s (shed rate <= " << kShedThreshold << ")\n";
  return 0;
}

}  // namespace perfbench
