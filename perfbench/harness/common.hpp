// Shared pieces of the benchmark harness: run options, metric records,
// windowed timing of a closed loop, process CPU and memory probes, span
// self-time analysis of NegotiationTraces, a bounded trace sink, and the
// wire-codec timer every workload applies to its own requests and results.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/negotiation_request.hpp"
#include "core/negotiation_result.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "obs/trace_sink.hpp"
#include "server/media_server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the end-to-end run. true: the per-layer run (an untraced half
  /// for counters and outside timings, then a traced half for spans).
  bool trace = false;
  /// Run the workload's calibration instead of the benchmark.
  bool calibrate = false;
};

/// A correctness-gate violation: the run fails and the process exits non-zero.
struct GateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One reported figure with its distribution: `value` is what the result
/// line carries; median and quartiles describe the samples it came from.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  bool measured = true;
  std::string note;  ///< why a metric is not measured, or how it is derived
};

/// Median and quartiles (Python statistics.quantiles, exclusive method).
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};
Summary summarize(std::vector<double> values);
double percentile(std::vector<double>& values, double p);

/// Metric whose value is the median of `samples`.
Metric median_metric(std::string name, std::string unit, std::vector<double> samples);
/// Metric with an exact value (a count or ratio over the whole run).
Metric exact_metric(std::string name, std::string unit, double value, std::size_t samples);
/// Placeholder for a layer this workload does not contain or the spans
/// cannot reach: value 0, flagged not measured, with the reason.
Metric not_measured(std::string name, std::string unit, std::string why);

/// Process CPU (user + sys) in seconds, peak resident set (ru_maxrss) in MB,
/// and heap bytes currently allocated (malloc arenas + mmapped blocks) in MB.
double process_cpu_s();
double peak_rss_mb();
double heap_in_use_mb();

/// Aggregate CPU ticks of the guest (/proc/stat): all states, and steal —
/// time the hypervisor ran something else while this guest wanted a CPU.
/// Zeros when /proc/stat is unreadable (no steal accounting, nothing
/// filtered).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// On a shared host the hypervisor sometimes withholds CPU from the guest
/// for minutes at a time; samples taken then measure the neighbours, not
/// the program. The timing figures therefore use only samples whose steal
/// share is at most kMaxStealShare — or, when fewer than a quarter of them
/// qualify, the quarter with the least steal.
inline constexpr double kMaxStealShare = 0.02;
std::vector<double> clean_samples(const std::vector<double>& values,
                                  const std::vector<double>& steal);
/// The same choice as indices into `count` samples.
std::vector<std::size_t> clean_indices(std::size_t count, const std::vector<double>& steal);

/// The host's speed, measured with a fixed piece of harness-only work (a
/// hash table of 1024 short keys filled from 4000 pseudo-random values, then
/// a sort of the values): its wall time in ms, the median of three
/// repetitions. No program code runs in it, so a change to the program
/// cannot move it; a neighbour slowing the host's cores does.
double reference_kernel_ms();

/// What the reference kernel takes on the host the benchmark was developed
/// on (a 4-vCPU KVM guest of an Intel Xeon host) in its usual state.
/// Host-normalised timings are scaled to this speed.
inline constexpr double kReferenceMs = 0.6;

/// Wall windows over a timed phase. The loop reports every completed request
/// with its latency. A window closes when the loop calls pause(): loops with
/// a fixed window length stop issuing once window_full() says so, let what is
/// in flight complete (recorded in the same window), and pause. pause()
/// closes the window's throughput, latency percentiles and CPU per request,
/// times the reference kernel on the idle system, and starts the next
/// window. End-to-end figures are medians over windows, which keeps a
/// transient stall of a shared host from moving the whole run, each window
/// scaled to the reference host speed by the kernel time taken right after
/// it (`host`).
class WindowedLoop {
 public:
  /// `window_s` = 0: windows end only where the loop pauses by its own rule.
  WindowedLoop(double seconds, double window_s);

  void start();
  /// Record one resolved request; returns false once the phase is over.
  bool record(double latency_us, Clock::time_point now);
  /// The current window has run its length: issue nothing more until the
  /// loop has paused.
  bool window_full(Clock::time_point now) const {
    return window_s_ > 0.0 && seconds_between(window_start_, now) >= window_s_;
  }
  /// Close the current window now, time the reference kernel, and start the
  /// next window. Call it with nothing in flight, so the kernel times the
  /// host rather than the host shared with the program.
  void pause();
  /// Add another loop's windows after this one's (one phase run in parts).
  void append(const WindowedLoop& other);
  /// Start the next window at `now`: the time since the last pause (harness
  /// work between two units of work) falls in no window.
  void skip(Clock::time_point now);
  /// Sample the heap between window boundaries (loops with long windows).
  void sample_heap() { window_heap_mb_ = std::max(window_heap_mb_, heap_in_use_mb() - harness_mb); }
  bool running(Clock::time_point now) const { return now < end_; }
  std::uint64_t completed() const { return completed_; }
  double elapsed_s() const;
  /// Median of `host` over the phase: above 1 the host ran slower than the
  /// reference host. 1 when no window closed.
  double host_factor() const;

  /// One entry per closed window; heap_mb is the largest heap in use sampled
  /// in the window (at its end, and wherever sample_heap() is called), less
  /// `harness_mb`.
  std::vector<double> rps, p50_us, p99_us, cpu_us, heap_mb, wall_s;
  std::vector<double> steal;  ///< steal share of each window
  /// Per window: the reference kernel time taken right after it /
  /// kReferenceMs.
  std::vector<double> host;
  /// Heap the harness itself holds for the whole phase (left out of heap_mb).
  double harness_mb = 0.0;

 private:
  /// Returns false (and records nothing) for a window without requests.
  bool close_window(Clock::time_point now);

  double seconds_;
  double window_s_;
  Clock::time_point start_, end_, window_start_;
  double window_cpu_ = 0.0;
  CpuTicks window_ticks_;
  double window_heap_mb_ = 0.0;
  std::vector<double> window_latencies_;
  std::uint64_t completed_ = 0;
};

/// Per-stage span figures collected from traces.
class SpanStats {
 public:
  /// Fold one finished trace in: per-span self time (duration minus the
  /// union of its children's intervals) and per-request stage sums.
  void add(const qosnp::NegotiationTrace& trace, double total_ms = -1.0,
           double queue_ms = -1.0);

  std::size_t traces() const { return traces_; }
  /// Self times of every span of `stage`, in microseconds.
  const std::vector<double>& self_us(qosnp::Stage stage) const;
  /// Per-request sum of Step 1 + Step 2 spans (requests that ran them).
  const std::vector<double>& steps12_us() const { return steps12_; }
  /// Per-request front-end hand-off: total_ms minus queue wait and every
  /// top-level procedure span (requests whose totals were supplied).
  const std::vector<double>& handoff_us() const { return handoff_; }

 private:
  std::size_t traces_ = 0;
  std::map<qosnp::Stage, std::vector<double>> self_;
  std::vector<double> steps12_;
  std::vector<double> handoff_;
};

/// Keeps the first `capacity` traces handed to it and counts the rest: the
/// traced phase keeps spans in memory and analyses them after the loop, with
/// bounded memory.
class CollectingSink final : public qosnp::TraceSink {
 public:
  explicit CollectingSink(std::size_t capacity) : capacity_(capacity) {}
  void record(std::shared_ptr<const qosnp::NegotiationTrace> trace) override;
  std::vector<std::shared_ptr<const qosnp::NegotiationTrace>> take();
  std::uint64_t recorded() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const qosnp::NegotiationTrace>> kept_;
  std::uint64_t recorded_ = 0;
};

/// Times the QNP1 codec on a workload's own requests and results: frame
/// encode, and frame reassembly plus payload decode, per message. Appends
/// wire.req_encode_us, wire.req_decode_us, wire.res_encode_us,
/// wire.res_decode_us, wire.req_bytes and wire.res_bytes.
void time_wire_codec(const std::vector<qosnp::NegotiationRequest>& requests,
                     const std::vector<qosnp::NegotiationResult>& results,
                     std::vector<Metric>& out);

/// Order-independent fingerprint of the committed user offer (verdict
/// excluded): what the reference replay compares per request.
std::uint64_t offer_fingerprint(const qosnp::NegotiationResult& result);

/// A copy of the wire-visible surface of a result (no offers, commitment or
/// trace), for the codec timer's sample.
qosnp::NegotiationResult wire_copy(const qosnp::NegotiationResult& result);

/// The drain invariant: every server and link back to zero reservations and
/// the transport's incremental ledger consistent with its flow table.
bool farm_drained(const qosnp::ServerFarm& farm, const qosnp::TransportService& transport);

/// trace.overhead_share: 1 - traced / untraced median window throughput.
Metric trace_overhead(const WindowedLoop& untraced, const WindowedLoop& traced,
                      std::size_t traces);

/// What a workload hands back to main().
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< correctness-gate failures
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

RunOutput run_hot_wire(const Options& options);
RunOutput run_cold_sharded(const Options& options);
RunOutput run_population_contended(const Options& options);
/// Measures population_contended's sustainable rate (see its source).
int calibrate_population(const Options& options);

/// Appends every end-to-end metric common to the three workloads.
struct EndToEndInputs {
  const WindowedLoop* loop = nullptr;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;
  std::vector<double> setup_seconds;
  std::vector<double> setup_steal;  ///< steal share of each set-up
  /// ru_maxrss taken right after the timed phase, before the reference
  /// replay and the per-layer analysis allocate anything.
  double peak_rss_mb = 0.0;
  /// The windows are whole units of uneven work (population replicates, up
  /// to 2x apart in requests per second on one host): throughput and CPU
  /// per request are pooled over the kept windows, each weighing with its
  /// requests, instead of taken as the median of the windows' rates.
  bool pooled = false;
};
void append_end_to_end(const EndToEndInputs& in, std::vector<Metric>& out);

/// Runs `set_up` once and adds its wall time and steal share to the set-up
/// samples.
template <typename SetUp>
void time_setup(EndToEndInputs& e2e, SetUp&& set_up) {
  const CpuTicks ticks0 = read_cpu_ticks();
  const auto t0 = Clock::now();
  set_up();
  e2e.setup_seconds.push_back(seconds_between(t0, Clock::now()));
  e2e.setup_steal.push_back(steal_share(ticks0, read_cpu_ticks()));
}

}  // namespace perfbench
