#include "service_stats.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

using namespace qosnp;

OutcomeCode outcome_code(NegotiationStatus verdict, std::uint64_t fingerprint) {
  return static_cast<OutcomeCode>(((static_cast<unsigned>(verdict) + 1u) << 8) |
                                  (fingerprint & 0xffu));
}

std::uint64_t digest_term(std::uint64_t index, NegotiationStatus verdict,
                          std::uint64_t fingerprint) {
  std::uint64_t z = fingerprint ^ (index * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(verdict) << 56);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ServiceStats::reserve(std::uint64_t requests) {
  outcomes_.reserve(requests);
  reserved_mb_ =
      static_cast<double>(outcomes_.capacity() * sizeof(OutcomeCode)) / (1024.0 * 1024.0);
  return reserved_mb_;
}

OutcomeCode& ServiceStats::slot(std::uint64_t index) {
  if (index >= outcomes_.size()) outcomes_.resize(index + 1, 0);
  return outcomes_[index];
}

void ServiceStats::violation(std::string what) {
  if (violations_.size() < 20) violations_.push_back(std::move(what));
}

void ServiceStats::mismatch(std::string what) {
  ++mismatches_;
  ++failed_;
  violation("reference mismatch: " + std::move(what));
}

void ServiceStats::transport_error(std::uint64_t index, const std::string& what) {
  slot(index) = 0;
  ++attempted_;
  ++failed_;
  violation("request " + std::to_string(index) + ": " + what);
}

bool ServiceStats::resolved(std::uint64_t index, const NegotiationResult& result) {
  const std::uint64_t fingerprint = offer_fingerprint(result);
  slot(index) = outcome_code(result.verdict, fingerprint);
  digest_ += digest_term(index, result.verdict, fingerprint);
  ++attempted_;
  attempts_ += static_cast<std::uint64_t>(std::max(result.commit_stats.attempts, 0));
  rollbacks_ += static_cast<std::uint64_t>(std::max(result.commit_stats.released_on_failure, 0));
  if (committed(result.verdict)) ++committed_;
  if (result.shed != ShedReason::kNone) {
    ++failed_;
    violation("request " + std::to_string(index) + " shed: " +
              std::string(to_string(result.shed)));
    return false;
  }
  return true;
}

void ServiceStats::append_layer_metrics(std::vector<Metric>& out) const {
  out.push_back(median_metric("request.build_us", "us", build_us));
  const double resolved = static_cast<double>(std::max<std::uint64_t>(attempted_, 1));
  out.push_back(exact_metric("commit.attempts_per_req", "1/req",
                             static_cast<double>(attempts_) / resolved, attempted_));
  out.push_back(exact_metric(
      "commit.useful_share", "ratio",
      attempts_ == 0 ? 0.0 : static_cast<double>(committed_) / static_cast<double>(attempts_),
      attempts_));
  out.push_back(exact_metric("commit.rollbacks_per_req", "1/req",
                             static_cast<double>(rollbacks_) / resolved, attempted_));
  std::vector<double> q = queue_us;
  out.push_back(exact_metric("service.queue_wait_p50_us", "us", percentile(q, 0.50), q.size()));
  out.push_back(exact_metric("service.queue_wait_p99_us", "us", percentile(q, 0.99), q.size()));
  out.push_back(median_metric("session.complete_us", "us", complete_us));
}

void append_cache_metrics(const PlanCacheStats& before, const PlanCacheStats& after,
                          std::uint64_t requests, std::vector<Metric>& out) {
  const std::uint64_t lookups = after.lookups - before.lookups;
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t evictions = after.evictions - before.evictions;
  out.push_back(exact_metric(
      "plan_cache.hit_share", "ratio",
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups), lookups));
  out.push_back(exact_metric(
      "plan_cache.evictions_per_req", "1/req",
      requests == 0 ? 0.0 : static_cast<double>(evictions) / static_cast<double>(requests),
      requests));
}

}  // namespace perfbench
