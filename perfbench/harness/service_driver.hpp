// The run protocol the two service-fronted workloads (hot_wire,
// cold_sharded) share: repeated timed set-up, the measured phase (settled
// parts on several systems), the untraced and traced phases of a --trace 1
// run, the reference replay, and the end-to-end and layer figures both
// measure the same way. A workload supplies its System and its closed loop
// (RunPhase) and adds the layer figures only it has.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/plan_cache.hpp"
#include "service_stats.hpp"

namespace perfbench {

/// Set-ups timed before the measured phase, and (end-to-end runs only)
/// after it, so the samples come from both ends of the run; their median is
/// setup_s.
inline constexpr int kSetupsBefore = 8;
inline constexpr int kSetupsAfter = 7;
/// A system's threads settle into a faster or slower schedule for the
/// system's whole life: five fresh hot_wire systems in one run read
/// 29-36k req/s while the two halves of one system's phase agreed within
/// 5%. The measured phase of an end-to-end run is therefore split over this
/// many systems, so a run averages several schedules.
inline constexpr int kMeasuredSystems = 4;
/// Untimed traffic between set-up and each timed phase: socket buffers, the
/// allocator and the caches reach steady state before anything is measured.
/// It is the head of the same request stream, so the replay checks it too.
inline constexpr double kSettleS = 1.0;
inline constexpr double kWindowS = 0.25;
/// Traces the traced phase keeps for span analysis.
inline constexpr std::size_t kTraceCap = 20'000;
/// Ids of warm-up requests, far above any timed stream index.
inline constexpr std::uint64_t kWarmupIdBase = std::uint64_t{1} << 40;
/// Finished sessions are dropped from the SessionManager table every this
/// many completions, as a long-running front-end must, so memory tracks the
/// live sessions rather than the run length.
inline constexpr std::uint64_t kPruneEvery = 512;

/// Each result's (total_ms, queue_ms) by request id, to join with the
/// traces the service hands its sink.
using Fronts = std::unordered_map<std::uint64_t, std::pair<double, double>>;

/// What every phase of a service-fronted loop records; workloads extend it.
struct ServicePhase {
  WindowedLoop loop{0.0, kWindowS};
  std::uint64_t first_index = 0;  ///< stream index of the phase's first request
  std::uint64_t end_index = 0;    ///< one past its last
  qosnp::PlanCacheStats cache_before, cache_after;
};

/// A workload's System provides:
///   System(seed, TraceSink*)        build and start (corpus, farm, service)
///   void warm_up()                  the untimed part of set-up
///   void shut_down(invariants)      stop, and check every drain-time law
///   inputs.request(i)               request i of the seeded stream
///   using Twin                      reference twin: Twin(inputs), with
///                                   `manager` (no plan cache) and drained()
/// and its loop is
///   run_phase(System&, seconds, time_layers, first_index, stats, Phase&, Fronts*)
/// which continues the stream at `first_index`, fills phase.loop and the
/// ServicePhase fields, times layers from outside when `time_layers`, and
/// records each result's front-end times into the Fronts when given.
template <typename System, typename Phase>
class ServiceRun {
 public:
  using RunPhase = void (*)(System&, double, bool, std::uint64_t, ServiceStats&, Phase&, Fronts*);

  ServiceRun(const Options& options, RunPhase run_phase)
      : options_(options),
        run_phase_(run_phase),
        phase_s_(options.trace ? options.seconds / 3.0 : options.seconds) {}

  /// Sets the system up kSetupsBefore times, timing each (every system is
  /// shut down and checked when the next is built), and runs the measured
  /// phase, each part after a settle: with --trace 0 the whole run, in equal
  /// parts on kMeasuredSystems systems (the last set-up, then one more timed
  /// set-up per part); with --trace 1 a third of it on the last set-up,
  /// timing the layers from outside. The last system stays live. Of the
  /// measured Phase, only the loop covers every part.
  void measure() {
    for (int s = 0; s < kSetupsBefore; ++s) replace_system();
    stats.reserve(static_cast<std::uint64_t>(
        kReservedRequestsPerS * (options_.seconds + (kMeasuredSystems + 2) * kSettleS)));
    const int parts = options_.trace ? 1 : kMeasuredSystems;
    for (int part = 0; part < parts; ++part) {
      if (part > 0) replace_system();
      Phase settle, phase;
      run_phase_(*sys_, kSettleS, false, next_index_, stats, settle, nullptr);
      run_phase_(*sys_, phase_s_ / parts, options_.trace, settle.end_index, stats, phase, nullptr);
      next_index_ = phase.end_index;
      if (part == 0) {
        measured_ = std::move(phase);
      } else {
        measured_.loop.append(phase.loop);
      }
    }
    e2e_.peak_rss_mb = peak_rss_mb();
  }

  System& live() { return *sys_; }
  const Phase& measured() const { return measured_; }

  /// Stops the live system and checks its drain laws. With --trace 0 then
  /// times kSetupsAfter more set-ups. With --trace 1 runs two fresh systems
  /// with the same harness work (no layer timing), one untraced and one
  /// traced: their throughputs give trace.overhead_share, the traced one's
  /// spans the span figures.
  void stop() {
    sys_->shut_down(invariants);
    if (!options_.trace) {
      for (int s = 0; s < kSetupsAfter; ++s) {
        std::unique_ptr<System> extra;
        time_setup(e2e_, [&] { set_up(extra); });
        extra->shut_down(invariants);
      }
      return;
    }
    fresh_phase(nullptr, baseline_, nullptr);
    CollectingSink sink(kTraceCap);
    Fronts fronts;
    fresh_phase(&sink, traced_, &fronts);
    for (const auto& trace : sink.take()) {
      auto it = fronts.find(trace->request_id());
      if (it == fronts.end()) {
        spans_.add(*trace);
      } else {
        spans_.add(*trace, it->second.first, it->second.second);
      }
    }
  }

  /// Replays the whole stream single-threaded on the reference twin and
  /// assembles the output: violations, end-to-end figures and, with
  /// --trace 1, every layer figure both workloads measure the same way.
  RunOutput output() {
    typename System::Twin twin(sys_->inputs);
    std::vector<double> materialised;
    replay_against(*twin.manager, [&](std::uint64_t i) { return sys_->inputs.request(i); },
                   stats, materialised);
    if (!twin.drained()) invariants.push_back("reference twin leaked reservations");

    RunOutput out;
    out.attempted = stats.attempted();
    out.failed = stats.failed() + invariants.size();
    out.violations = stats.violations();
    out.violations.insert(out.violations.end(), invariants.begin(), invariants.end());
    e2e_.loop = &measured_.loop;
    e2e_.attempted = out.attempted;
    e2e_.failed = out.failed;
    e2e_.committed = stats.committed_count();
    append_end_to_end(e2e_, out.end_to_end);
    if (!options_.trace) return out;

    using qosnp::Stage;
    std::vector<Metric>& L = out.per_layer;
    stats.append_layer_metrics(L);
    append_cache_metrics(measured_.cache_before, measured_.cache_after,
                         measured_.end_index - measured_.first_index, L);
    L.push_back(median_metric("plan_cache.lookup_us", "us", spans_.self_us(Stage::kPlanCache)));
    L.push_back(median_metric("steps12.us", "us", spans_.steps12_us()));
    L.push_back(median_metric("steps34.us", "us", spans_.self_us(Stage::kEnumeration)));
    {
      Metric m = median_metric("steps34.offers_materialised", "ratio", std::move(materialised));
      m.note = "offers materialised per request / full offer space, from the reference replay";
      L.push_back(std::move(m));
    }
    L.push_back(median_metric("commit.walk_us", "us", spans_.self_us(Stage::kCommitWalk)));
    L.push_back(median_metric("commit.attempt_us", "us", spans_.self_us(Stage::kCommitAttempt)));
    L.push_back(median_metric("service.handoff_us", "us", spans_.handoff_us()));
    L.push_back(median_metric("session.admission_us", "us", spans_.self_us(Stage::kAdmission)));
    {
      std::vector<qosnp::NegotiationRequest> requests;
      for (std::uint64_t i : stats.codec_indices) requests.push_back(sys_->inputs.request(i));
      time_wire_codec(requests, stats.codec_results, L);
    }
    L.push_back(trace_overhead(baseline_.loop, traced_.loop, traces_recorded_));
    return out;
  }

  ServiceStats stats;
  std::vector<std::string> invariants;  ///< drain-law violations, one failure each

 private:
  /// Shuts the live system down (checking it) and times the set-up of the
  /// next one.
  void replace_system() {
    if (sys_) {
      sys_->shut_down(invariants);
      sys_.reset();
    }
    time_setup(e2e_, [&] { set_up(sys_); });
  }

  /// Set-up as setup_s counts it: construction, corpus, start, warm-up.
  void set_up(std::unique_ptr<System>& sys) {
    sys = std::make_unique<System>(options_.seed, nullptr);
    sys->warm_up();
  }

  /// A fresh system, warmed up and settled, then one phase without layer
  /// timing that continues the stream; stopped and checked afterwards.
  /// Traces of the warm-up and the settle are dropped.
  void fresh_phase(CollectingSink* sink, Phase& phase, Fronts* fronts) {
    System sys(options_.seed, sink);
    sys.warm_up();
    Phase settle;
    run_phase_(sys, kSettleS, false, next_index_, stats, settle, nullptr);
    std::uint64_t recorded_before = 0;
    if (sink != nullptr) {
      sink->take();
      recorded_before = sink->recorded();
    }
    run_phase_(sys, phase_s_, false, settle.end_index, stats, phase, fronts);
    next_index_ = phase.end_index;
    sys.shut_down(invariants);
    if (sink != nullptr) traces_recorded_ = sink->recorded() - recorded_before;
  }

  const Options options_;
  const RunPhase run_phase_;
  const double phase_s_;
  std::unique_ptr<System> sys_;
  EndToEndInputs e2e_;
  Phase measured_, baseline_, traced_;
  std::uint64_t next_index_ = 0;
  SpanStats spans_;
  std::uint64_t traces_recorded_ = 0;
};

}  // namespace perfbench
