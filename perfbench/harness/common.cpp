#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace perfbench {

using namespace qosnp;

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(n=4, method='exclusive'): position j*(n+1)/4.
  auto at = [&](double pos) {
    const double clamped = std::clamp(pos, 1.0, static_cast<double>(n));
    const auto j = static_cast<std::size_t>(std::floor(clamped));
    const double frac = clamped - static_cast<double>(j);
    const double a = values[j - 1];
    const double b = values[std::min(j, n - 1)];
    return a + (b - a) * frac;
  };
  s.q1 = at(static_cast<double>(n + 1) / 4.0);
  s.q3 = at(3.0 * static_cast<double>(n + 1) / 4.0);
  return s;
}

Metric median_metric(std::string name, std::string unit, std::vector<double> samples) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  const Summary s = summarize(std::move(samples));
  m.samples = s.n;
  m.median = s.median;
  m.q1 = s.q1;
  m.q3 = s.q3;
  m.value = s.median;
  if (s.n == 0) {
    m.measured = false;
    m.note = "no samples: the stage did not run in the measured phase";
  }
  return m;
}

Metric exact_metric(std::string name, std::string unit, double value, std::size_t samples) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = m.median = m.q1 = m.q3 = value;
  m.samples = samples;
  return m;
}

Metric not_measured(std::string name, std::string unit, std::string why) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.measured = false;
  m.note = std::move(why);
  return m;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<std::size_t> clean_indices(std::size_t count, const std::vector<double>& steal) {
  auto share = [&](std::size_t i) { return i < steal.size() ? steal[i] : 0.0; };
  std::vector<std::size_t> clean;
  for (std::size_t i = 0; i < count; ++i) {
    if (share(i) <= kMaxStealShare) clean.push_back(i);
  }
  const std::size_t quarter = (count + 3) / 4;
  if (clean.size() >= quarter) return clean;
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return share(a) < share(b); });
  order.resize(quarter);
  return order;
}

std::vector<double> clean_samples(const std::vector<double>& values,
                                  const std::vector<double>& steal) {
  std::vector<double> clean;
  for (std::size_t i : clean_indices(values.size(), steal)) clean.push_back(values[i]);
  return clean;
}

namespace {
volatile std::uint64_t reference_sink = 0;  // keeps the kernel's result observable
}  // namespace

double reference_kernel_ms() {
  double runs[3];
  for (double& run : runs) {
    const auto t0 = Clock::now();
    std::unordered_map<std::string, std::uint64_t> table;
    std::vector<std::uint64_t> values;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13;  // xorshift64
      x ^= x >> 7;
      x ^= x << 17;
      table["doc-" + std::to_string(x % 1024)] += x;
      values.push_back(x);
    }
    std::sort(values.begin(), values.end());
    std::uint64_t acc = values[values.size() / 2];
    for (const auto& [key, sum] : table) acc += sum ^ key.size();
    reference_sink = acc;
    run = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }
  std::sort(std::begin(runs), std::end(runs));
  return runs[1];
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// --- WindowedLoop -------------------------------------------------------------

WindowedLoop::WindowedLoop(double seconds, double window_s)
    : seconds_(seconds), window_s_(window_s) {}

void WindowedLoop::start() {
  start_ = window_start_ = Clock::now();
  end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds_));
  window_cpu_ = process_cpu_s();
  window_ticks_ = read_cpu_ticks();
  window_heap_mb_ = 0.0;
  window_latencies_.clear();
  completed_ = 0;
}

double WindowedLoop::elapsed_s() const { return seconds_between(start_, Clock::now()); }

bool WindowedLoop::record(double latency_us, Clock::time_point now) {
  if (now >= end_) return false;
  window_latencies_.push_back(latency_us);
  ++completed_;
  return true;
}

void WindowedLoop::pause() {
  const bool recorded = close_window(Clock::now());
  const double reference = reference_kernel_ms();
  if (recorded) host.push_back(reference / kReferenceMs);
  skip(Clock::now());
}

void WindowedLoop::append(const WindowedLoop& other) {
  for (auto [into, from] : {std::pair{&rps, &other.rps}, {&p50_us, &other.p50_us},
                            {&p99_us, &other.p99_us}, {&cpu_us, &other.cpu_us},
                            {&heap_mb, &other.heap_mb}, {&wall_s, &other.wall_s},
                            {&steal, &other.steal}, {&host, &other.host}}) {
    into->insert(into->end(), from->begin(), from->end());
  }
}

double WindowedLoop::host_factor() const {
  return host.empty() ? 1.0 : summarize(host).median;
}

void WindowedLoop::skip(Clock::time_point now) {
  window_start_ = now;
  window_cpu_ = process_cpu_s();
  window_ticks_ = read_cpu_ticks();
}

bool WindowedLoop::close_window(Clock::time_point now) {
  const double wall = seconds_between(window_start_, now);
  const double cpu = process_cpu_s();
  const CpuTicks ticks = read_cpu_ticks();
  const auto n = static_cast<double>(window_latencies_.size());
  sample_heap();
  const bool recorded = n > 0 && wall > 0.0;
  if (recorded) {
    steal.push_back(steal_share(window_ticks_, ticks));
    heap_mb.push_back(window_heap_mb_);
    rps.push_back(n / wall);
    wall_s.push_back(wall);
    cpu_us.push_back((cpu - window_cpu_) * 1e6 / n);
    p50_us.push_back(percentile(window_latencies_, 0.50));
    p99_us.push_back(percentile(window_latencies_, 0.99));
  }
  window_heap_mb_ = 0.0;
  window_latencies_.clear();
  window_start_ = now;
  window_cpu_ = cpu;
  window_ticks_ = ticks;
  return recorded;
}

// --- SpanStats ------------------------------------------------------------------

namespace {

double span_ms(const Span& s) { return s.closed() ? s.end_ms - s.start_ms : 0.0; }

/// Part of [start, end] covered by the union of the given intervals.
double covered_ms(double start, double end, std::vector<std::pair<double, double>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = start;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

bool procedure_stage(Stage stage) {
  return stage != Stage::kQueueWait && stage != Stage::kCommitAttempt;
}

}  // namespace

void SpanStats::add(const NegotiationTrace& trace, double total_ms, double queue_ms) {
  ++traces_;
  const std::vector<Span>& spans = trace.spans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoSpan && s.parent < spans.size() && s.closed()) {
      children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
  }
  double steps12 = 0.0;
  bool ran_steps12 = false;
  double procedure = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.closed()) continue;
    const double self = span_ms(s) - covered_ms(s.start_ms, s.end_ms, children[i]);
    self_[s.stage].push_back(self * 1e3);
    if (s.stage == Stage::kLocalCheck || s.stage == Stage::kCompatibility) {
      steps12 += span_ms(s);
      ran_steps12 = true;
    }
    if (s.parent == kNoSpan && procedure_stage(s.stage)) procedure += span_ms(s);
  }
  if (ran_steps12) steps12_.push_back(steps12 * 1e3);
  if (total_ms >= 0.0 && queue_ms >= 0.0) {
    handoff_.push_back(std::max(0.0, total_ms - queue_ms - procedure) * 1e3);
  }
}

const std::vector<double>& SpanStats::self_us(Stage stage) const {
  static const std::vector<double> kEmpty;
  auto it = self_.find(stage);
  return it == self_.end() ? kEmpty : it->second;
}

// --- CollectingSink ---------------------------------------------------------------

void CollectingSink::record(std::shared_ptr<const NegotiationTrace> trace) {
  std::lock_guard lk(mu_);
  ++recorded_;
  if (kept_.size() < capacity_) kept_.push_back(std::move(trace));
}

std::vector<std::shared_ptr<const NegotiationTrace>> CollectingSink::take() {
  std::vector<std::shared_ptr<const NegotiationTrace>> out;
  std::lock_guard lk(mu_);
  out.swap(kept_);
  return out;
}

std::uint64_t CollectingSink::recorded() const {
  std::lock_guard lk(mu_);
  return recorded_;
}

// --- wire codec timing ----------------------------------------------------------------

namespace {

/// Per-message microseconds of each of `reps` passes of `pass` over `count`
/// messages.
template <typename Pass>
std::vector<double> timed_passes(std::size_t count, int reps, Pass pass) {
  std::vector<double> per_message;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    pass();
    per_message.push_back(us_between(t0, Clock::now()) / static_cast<double>(count));
  }
  return per_message;
}

volatile std::uint64_t codec_sink = 0;

std::optional<wire::Frame> reassemble(const wire::Bytes& bytes) {
  wire::FrameAssembler assembler;
  assembler.feed(bytes.data(), bytes.size());
  return assembler.next().frame;
}

}  // namespace

void time_wire_codec(const std::vector<NegotiationRequest>& requests,
                     const std::vector<NegotiationResult>& results, std::vector<Metric>& out) {
  constexpr int kReps = 7;
  if (requests.empty() || results.empty()) {
    for (const char* name : {"wire.req_encode_us", "wire.req_decode_us", "wire.res_encode_us",
                             "wire.res_decode_us"}) {
      out.push_back(not_measured(name, "us", "no requests or results sampled"));
    }
    out.push_back(not_measured("wire.req_bytes", "bytes", "no requests sampled"));
    out.push_back(not_measured("wire.res_bytes", "bytes", "no results sampled"));
    return;
  }
  std::vector<wire::Bytes> req_frames(requests.size());
  std::vector<wire::Bytes> res_frames(results.size());
  double req_bytes = 0.0;
  double res_bytes = 0.0;
  std::uint64_t sink = 0;

  auto req_encode = timed_passes(requests.size(), kReps, [&] {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto frame = wire::encode_request_frame(requests[i], i + 1);
      if (!frame.ok()) throw GateError("request not encodable: " + frame.error().to_text());
      req_frames[i] = std::move(frame.value());
    }
  });
  auto req_decode = timed_passes(requests.size(), kReps, [&] {
    for (const wire::Bytes& bytes : req_frames) {
      auto frame = reassemble(bytes);
      if (!frame) throw GateError("request frame did not reassemble");
      auto decoded = wire::decode_request_payload(frame->payload);
      if (!decoded.ok()) throw GateError("request frame did not decode");
      sink += decoded.value().id;
    }
  });
  auto res_encode = timed_passes(results.size(), kReps, [&] {
    for (std::size_t i = 0; i < results.size(); ++i) {
      res_frames[i] = wire::encode_result_frame(results[i], i + 1);
    }
  });
  auto res_decode = timed_passes(results.size(), kReps, [&] {
    for (const wire::Bytes& bytes : res_frames) {
      auto frame = reassemble(bytes);
      if (!frame) throw GateError("result frame did not reassemble");
      auto decoded = wire::decode_result_payload(frame->payload);
      if (!decoded.ok()) throw GateError("result frame did not decode");
      sink += decoded.value().request_id;
    }
  });
  for (const auto& f : req_frames) req_bytes += static_cast<double>(f.size());
  for (const auto& f : res_frames) res_bytes += static_cast<double>(f.size());
  codec_sink = sink;  // keeps the decode loops observable to the optimiser

  out.push_back(median_metric("wire.req_encode_us", "us", std::move(req_encode)));
  out.push_back(median_metric("wire.req_decode_us", "us", std::move(req_decode)));
  out.push_back(median_metric("wire.res_encode_us", "us", std::move(res_encode)));
  out.push_back(median_metric("wire.res_decode_us", "us", std::move(res_decode)));
  out.push_back(exact_metric("wire.req_bytes", "bytes",
                             req_bytes / static_cast<double>(req_frames.size()),
                             req_frames.size()));
  out.push_back(exact_metric("wire.res_bytes", "bytes",
                             res_bytes / static_cast<double>(res_frames.size()),
                             res_frames.size()));
}

// --- result helpers ----------------------------------------------------------------------

std::uint64_t offer_fingerprint(const NegotiationResult& result) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  };
  if (!result.user_offer) return 0;
  const UserOffer& o = *result.user_offer;
  mix(o.video ? 1 : 0);
  if (o.video) {
    mix(static_cast<int>(o.video->color));
    mix(o.video->frame_rate_fps);
    mix(o.video->resolution);
  }
  mix(o.audio ? 1 : 0);
  if (o.audio) mix(static_cast<int>(o.audio->quality));
  mix(o.text ? 1 : 0);
  if (o.text) mix(static_cast<int>(o.text->language));
  mix(o.image ? 1 : 0);
  if (o.image) {
    mix(static_cast<int>(o.image->color));
    mix(o.image->resolution);
  }
  mix(o.cost.as_micros());
  return h;
}

NegotiationResult wire_copy(const NegotiationResult& result) {
  NegotiationResult copy;
  copy.request_id = result.request_id;
  copy.shed = result.shed;
  copy.session_id = result.session_id;
  copy.queue_ms = result.queue_ms;
  copy.total_ms = result.total_ms;
  copy.worker = result.worker;
  copy.verdict = result.verdict;
  copy.user_offer = result.user_offer;
  copy.problems = result.problems;
  copy.commit_stats = result.commit_stats;
  return copy;
}

// --- end-to-end ------------------------------------------------------------------------------

bool farm_drained(const ServerFarm& farm, const TransportService& transport) {
  for (const ServerId& id : farm.list()) {
    const ServerUsage usage = farm.find(id)->usage();
    if (usage.reserved_bps != 0 || usage.sessions != 0) return false;
  }
  return transport.active_flows() == 0 && transport.total_reserved_bps() == 0 &&
         transport.accounting_consistent();
}

namespace {

/// Window figures at the reference host speed: `direction` +1 multiplies
/// each (a rate) by its window's host factor, -1 divides each (a time) by
/// it, 0 leaves them.
std::vector<double> host_scaled(const std::vector<double>& series,
                                const std::vector<double>& host, int direction) {
  std::vector<double> out = series;
  if (direction == 0) return out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = direction > 0 ? out[i] * host[i] : out[i] / host[i];
  }
  return out;
}

}  // namespace

Metric trace_overhead(const WindowedLoop& untraced, const WindowedLoop& traced,
                      std::size_t traces) {
  const double base = summarize(host_scaled(untraced.rps, untraced.host, 1)).median;
  const double with_trace = summarize(host_scaled(traced.rps, traced.host, 1)).median;
  return exact_metric("trace.overhead_share", "ratio",
                      base > 0.0 ? 1.0 - with_trace / base : 0.0, traces);
}

void append_end_to_end(const EndToEndInputs& in, std::vector<Metric>& out) {
  const WindowedLoop& loop = *in.loop;
  const double host = loop.host_factor();
  char scale_note[112];
  std::snprintf(scale_note, sizeof scale_note,
                ", host-normalised (reference kernel median %.4g ms / %.4g ms)",
                host * kReferenceMs, kReferenceMs);
  const std::vector<std::size_t> kept = clean_indices(loop.rps.size(), loop.steal);
  // Uneven windows: requests / wall time and CPU / requests over the kept
  // windows, each window's times at the reference host speed (0 when not
  // pooled).
  double pooled_rps = 0.0, pooled_cpu_us = 0.0;
  if (in.pooled) {
    double requests = 0.0, wall = 0.0, cpu_us = 0.0;
    for (std::size_t i : kept) {
      const double n = loop.rps[i] * loop.wall_s[i];
      requests += n;
      wall += loop.wall_s[i] / loop.host[i];
      cpu_us += loop.cpu_us[i] * n / loop.host[i];
    }
    if (requests > 0.0 && wall > 0.0) {
      pooled_rps = requests / wall;
      pooled_cpu_us = cpu_us / requests;
    }
  }
  // A `pooled` figure replaces the median as the value; the quartiles stay
  // per window.
  auto windowed = [&](const char* name, const char* unit, const std::vector<double>& series,
                      int direction, double pooled) {
    const std::vector<double> scaled = host_scaled(series, loop.host, direction);
    std::vector<double> clean;
    for (std::size_t i : kept) clean.push_back(scaled[i]);
    Metric m = median_metric(name, unit, std::move(clean));
    m.note = (pooled > 0.0 ? "pooled over " : "median of ") + std::to_string(m.samples) + " of " +
             std::to_string(series.size()) + " windows (steal share <= 2%)" +
             (direction != 0 ? scale_note : "");
    if (pooled > 0.0) m.value = pooled;
    out.push_back(std::move(m));
  };
  windowed("throughput_rps", "req/s", loop.rps, 1, pooled_rps);
  windowed("latency_p50_us", "us", loop.p50_us, -1, 0.0);
  windowed("latency_p99_us", "us", loop.p99_us, -1, 0.0);
  windowed("cpu_per_req_us", "us", loop.cpu_us, -1, pooled_cpu_us);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(in.attempted, 1));
  const double failed_share = static_cast<double>(in.failed) / attempted;
  out.push_back(exact_metric("failed_share", "ratio", failed_share, in.attempted));
  out.push_back(exact_metric("ok_share", "ratio", 1.0 - failed_share, in.attempted));
  out.push_back(exact_metric("committed_share", "ratio",
                             static_cast<double>(in.committed) / attempted, in.attempted));
  windowed("peak_heap_mb", "MB", loop.heap_mb, 0, 0.0);
  {
    Metric rss = exact_metric("peak_rss_mb", "MB", in.peak_rss_mb, 1);
    rss.note = "diagnostic: bimodal run to run as glibc adds per-thread arenas under contention";
    out.push_back(std::move(rss));
  }
  {
    std::vector<double> clean = clean_samples(in.setup_seconds, in.setup_steal);
    for (double& v : clean) v /= host;
    Metric setup = median_metric("setup_s", "s", std::move(clean));
    setup.note = "median of " + std::to_string(setup.samples) + " of " +
                 std::to_string(in.setup_seconds.size()) + " set-ups (steal share <= 2%)" +
                 scale_note;
    out.push_back(std::move(setup));
  }
  {
    Metric steal = median_metric("host.steal_share", "ratio", loop.steal);
    steal.note = "diagnostic: CPU the hypervisor withheld from the guest, per window";
    out.push_back(std::move(steal));
  }
  {
    std::vector<double> reference_ms;
    for (double factor : loop.host) reference_ms.push_back(factor * kReferenceMs);
    Metric reference = median_metric("host.reference_ms", "ms", std::move(reference_ms));
    reference.note = "diagnostic: reference kernel time, taken after each window";
    out.push_back(std::move(reference));
  }
}

}  // namespace perfbench
