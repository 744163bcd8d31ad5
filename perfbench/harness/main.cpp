// perfbench: the repository benchmark's measuring binary. Runs one workload
// for a fixed wall time and prints one JSON record (the last stdout line)
// with the correctness verdict, the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1), each with its samples, median and
// quartiles. perfbench/run.py builds this binary and turns the record into
// the benchmark's result line; see perfbench/WORKLOADS.md.
//
//   perfbench --workload hot_wire --seed 7 --seconds 10 --trace 0
//   perfbench --calibrate population_contended --seed 7
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A workload that lacks a layer
/// leaves it out and it is reported as not measured.
constexpr LayerSpec kPerLayer[] = {
    // End-to-end figures demoted to diagnostics: they do not repeat within a
    // bound from run to run. Taken from the untraced half of the run.
    {"latency_p99_us", "us"},
    {"peak_rss_mb", "MB"},
    {"host.steal_share", "ratio"},
    {"host.reference_ms", "ms"},
    {"request.build_us", "us"},
    {"plan_cache.hit_share", "ratio"},
    {"plan_cache.lookup_us", "us"},
    {"plan_cache.evictions_per_req", "1/req"},
    {"steps12.us", "us"},
    {"steps34.us", "us"},
    {"steps34.offers_materialised", "ratio"},
    {"commit.walk_us", "us"},
    {"commit.attempt_us", "us"},
    {"commit.attempts_per_req", "1/req"},
    {"commit.useful_share", "ratio"},
    {"commit.rollbacks_per_req", "1/req"},
    {"service.queue_wait_p50_us", "us"},
    {"service.queue_wait_p99_us", "us"},
    {"service.queue_high_water", "count"},
    {"service.handoff_us", "us"},
    {"session.admission_us", "us"},
    {"session.complete_us", "us"},
    {"wire.req_encode_us", "us"},
    {"wire.req_decode_us", "us"},
    {"wire.res_encode_us", "us"},
    {"wire.res_decode_us", "us"},
    {"wire.req_bytes", "bytes"},
    {"wire.res_bytes", "bytes"},
    {"netio.hop_us", "us"},
    {"netio.errors", "count"},
    {"shard.route_us", "us"},
    {"shard.imbalance", "ratio"},
    {"shard.busy_share", "ratio"},
    {"shard.cross_share", "ratio"},
    {"shard.rollbacks_per_req", "1/req"},
    {"policy.preemptions_per_req", "1/req"},
    {"policy.upgrades_per_req", "1/req"},
    {"policy.preempt_us", "us"},
    {"policy.upgrade_us", "us"},
    {"sim.self_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? "," : "") << "{\"name\":" << json_string(m.name)
       << ",\"unit\":" << json_string(m.unit) << ",\"value\":" << json_number(m.value)
       << ",\"samples\":" << m.samples << ",\"median\":" << json_number(m.median)
       << ",\"q1\":" << json_number(m.q1) << ",\"q3\":" << json_number(m.q3)
       << ",\"measured\":" << (m.measured ? "true" : "false")
       << ",\"note\":" << json_string(m.note) << '}';
  }
  os << ']';
  return os.str();
}

/// Orders the per-layer metrics as kPerLayer, adds the demoted end-to-end
/// diagnostics, and fills in the layers the workload does not contain.
std::vector<Metric> complete_per_layer(std::vector<Metric> measured,
                                       const std::vector<Metric>& end_to_end) {
  for (const Metric& m : end_to_end) {
    if (m.name == "latency_p99_us" || m.name == "peak_rss_mb" || m.name == "host.steal_share" ||
        m.name == "host.reference_ms") {
      measured.push_back(m);
    }
  }
  std::vector<Metric> out;
  for (const LayerSpec& spec : kPerLayer) {
    bool found = false;
    for (Metric& m : measured) {
      if (m.name == spec.name) {
        out.push_back(std::move(m));
        found = true;
        break;
      }
    }
    if (!found) out.push_back(not_measured(spec.name, spec.unit, "layer not in this workload"));
  }
  return out;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload hot_wire|cold_sharded|population_contended"
               " --seed N --seconds S --trace 0|1\n"
               "       perfbench --calibrate population_contended --seed N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--calibrate") {
        options.workload = value;
        options.calibrate = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.calibrate) {
    if (options.workload != "population_contended") {
      return usage("only population_contended has a calibration");
    }
    try {
      return calibrate_population(options);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: calibration aborted: " << e.what() << '\n';
      return 3;
    }
  }

  RunOutput out;
  try {
    if (options.workload == "hot_wire") {
      out = run_hot_wire(options);
    } else if (options.workload == "cold_sharded") {
      out = run_cold_sharded(options);
    } else if (options.workload == "population_contended") {
      out = run_population_contended(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << '\n';
    return 3;
  }

  const bool correct = out.failed == 0 && out.violations.empty() && out.attempted > 0;
  for (const std::string& v : out.violations) std::cerr << "VIOLATION: " << v << '\n';

  std::ostringstream os;
  os << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
     << ",\"seconds\":" << json_number(options.seconds)
     << ",\"trace\":" << (options.trace ? 1 : 0)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << out.attempted
     << ",\"failed\":" << out.failed << ",\"violations\":[";
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    os << (i ? "," : "") << json_string(out.violations[i]);
  }
  os << "],\"end_to_end\":" << json_metrics(out.end_to_end) << ",\"per_layer\":"
     << json_metrics(options.trace ? complete_per_layer(std::move(out.per_layer), out.end_to_end)
                                   : std::vector<Metric>{})
     << '}';
  std::cout << os.str() << std::endl;
  return correct ? 0 : 1;
}
