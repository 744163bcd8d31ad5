#include "net/transport.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "util/log.hpp"

namespace qosnp {

TransportService::TransportService(Topology topology) : topology_(std::move(topology)) {
  reserved_.assign(topology_.link_count(), 0);
  effective_capacity_.reserve(topology_.link_count());
  for (std::size_t i = 0; i < topology_.link_count(); ++i) {
    effective_capacity_.push_back(topology_.link(i).capacity_bps);
  }
  link_flow_count_.assign(topology_.link_count(), 0);
}

const TransportService::Route& TransportService::preferred_route_locked(std::size_t src,
                                                                         std::size_t dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  auto it = routes_.find(key);
  if (it == routes_.end()) {
    const auto& nodes = topology_.nodes();
    it = routes_.emplace(key, topology_.shortest_path(nodes[src].id, nodes[dst].id)).first;
  }
  return it->second;
}

Result<FlowId, Refusal> TransportService::reserve(const NodeId& src, const NodeId& dst,
                                                  const StreamRequirements& req) {
  const std::int64_t rate = req.guarantee == GuaranteeClass::kGuaranteed ? req.max_bit_rate_bps
                                                                         : req.avg_bit_rate_bps;
  if (rate <= 0) return permanent_refusal("transport", "non-positive bit rate");
  const auto src_index = topology_.node_index(src);
  const auto dst_index = topology_.node_index(dst);
  if (!src_index || !dst_index) {
    // Unknown nodes stay out of the route table; the error names the node.
    return permanent_refusal("transport", topology_.shortest_path(src, dst).error());
  }

  // Route with admission-aware retries: when a link on the preferred path
  // lacks capacity, exclude it and re-route — in a multi-path topology the
  // flow takes the standby path instead of being rejected.
  std::lock_guard lk(mu_);
  const Route& preferred = preferred_route_locked(*src_index, *dst_index);
  // No route at all is permanent; a route that exists but is full is a
  // transient shortage.
  if (!preferred.ok()) return permanent_refusal("transport", preferred.error());
  std::span<const std::size_t> path = preferred.value();
  std::vector<std::size_t> rerouted_path;  // a retry's route, never stored in routes_
  std::vector<std::size_t> excluded;
  // Headroom-differentiated admission: a class with headroom h only sees
  // capacity * (1 - h) of each link (h <= 0 keeps the class-blind path
  // free of any floating-point round-trip).
  const double h = headroom_.for_class(req.session_class);
  auto insufficient = [&](std::size_t link) {
    return transient_refusal("transport", "insufficient bandwidth on link " +
                                              std::to_string(link) + " (" +
                                              topology_.link(link).a + "<->" +
                                              topology_.link(link).b + ")");
  };
  for (int attempt = 0;; ++attempt) {
    auto bottleneck = std::find_if(path.begin(), path.end(), [&](std::size_t link) {
      const std::int64_t usable =
          h <= 0.0 ? effective_capacity_[link]
                   : static_cast<std::int64_t>(std::llround(
                         static_cast<double>(effective_capacity_[link]) * (1.0 - h)));
      return reserved_[link] + rate > usable;
    });
    if (bottleneck == path.end()) break;
    const std::size_t full_link = *bottleneck;
    excluded.push_back(full_link);
    if (attempt == kMaxRouteRetries) return insufficient(full_link);
    auto rerouted = topology_.shortest_path(src, dst, excluded);
    if (!rerouted.ok()) return insufficient(full_link);
    rerouted_path = std::move(rerouted.value());
    path = rerouted_path;
  }
  for (std::size_t link : path) {
    reserved_[link] += rate;
    ++link_flow_count_[link];
  }
  FlowInfo info;
  info.id = next_id_++;
  info.src = src;
  info.dst = dst;
  info.path.assign(path.begin(), path.end());
  info.reserved_bps = rate;
  info.guarantee = req.guarantee;
  const FlowId id = info.id;
  flows_[id] = std::move(info);
  QOSNP_LOG_DEBUG("transport", "reserved flow ", id, " ", src, "->", dst, " at ", rate,
                  " bps over ", flows_[id].path.size(), " links");
  return id;
}

bool TransportService::release(FlowId id) {
  std::lock_guard lk(mu_);
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  for (std::size_t link : it->second.path) {
    reserved_[link] -= it->second.reserved_bps;
    --link_flow_count_[link];
    // A negative ledger means an admit/release was lost or double-counted;
    // with all updates under mu_ this cannot happen — keep it checked.
    assert(reserved_[link] >= 0 && "link reservation went negative");
  }
  flows_.erase(it);
  return true;
}

std::optional<FlowInfo> TransportService::flow(FlowId id) const {
  std::lock_guard lk(mu_);
  auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  return it->second;
}

std::size_t TransportService::active_flows() const {
  std::lock_guard lk(mu_);
  return flows_.size();
}

std::vector<FlowId> TransportService::overfull_victims_locked(std::size_t link_index) {
  // Pick victims newest-first until the link fits again. Victims keep their
  // reservation (the adaptation procedure decides what to do); we only
  // report who is affected by the shortfall.
  std::vector<FlowId> on_link;
  for (const auto& [id, info] : flows_) {
    if (std::find(info.path.begin(), info.path.end(), link_index) != info.path.end()) {
      on_link.push_back(id);
    }
  }
  std::sort(on_link.begin(), on_link.end(), std::greater<>());
  std::int64_t excess = reserved_[link_index] - effective_capacity_[link_index];
  std::vector<FlowId> victims;
  for (FlowId id : on_link) {
    if (excess <= 0) break;
    victims.push_back(id);
    excess -= flows_[id].reserved_bps;
  }
  return victims;
}

std::vector<FlowId> TransportService::degrade_link(std::size_t link_index, double lost_fraction) {
  if (link_index >= topology_.link_count()) return {};
  lost_fraction = std::clamp(lost_fraction, 0.0, 0.999);
  std::lock_guard lk(mu_);
  effective_capacity_[link_index] = static_cast<std::int64_t>(
      std::llround(static_cast<double>(topology_.link(link_index).capacity_bps) *
                   (1.0 - lost_fraction)));
  return overfull_victims_locked(link_index);
}

void TransportService::restore_link(std::size_t link_index) {
  if (link_index >= topology_.link_count()) return;
  std::lock_guard lk(mu_);
  effective_capacity_[link_index] = topology_.link(link_index).capacity_bps;
}

bool TransportService::accounting_consistent() const {
  std::lock_guard lk(mu_);
  std::vector<std::int64_t> reserved(reserved_.size(), 0);
  std::vector<std::size_t> counts(link_flow_count_.size(), 0);
  for (const auto& [id, info] : flows_) {
    for (std::size_t link : info.path) {
      reserved[link] += info.reserved_bps;
      ++counts[link];
    }
  }
  return reserved == reserved_ && counts == link_flow_count_;
}

void TransportService::set_class_headroom(ClassHeadroom headroom) {
  headroom = ClassHeadroom::validated(headroom);
  std::lock_guard lk(mu_);
  headroom_ = headroom;
}

std::int64_t TransportService::total_reserved_bps() const {
  std::lock_guard lk(mu_);
  std::int64_t total = 0;
  for (std::int64_t r : reserved_) total += r;
  return total;
}

LinkUsage TransportService::link_usage(std::size_t link_index) const {
  std::lock_guard lk(mu_);
  LinkUsage usage;
  if (link_index >= topology_.link_count()) return usage;
  usage.capacity_bps = topology_.link(link_index).capacity_bps;
  usage.effective_capacity_bps = effective_capacity_[link_index];
  usage.reserved_bps = reserved_[link_index];
  usage.flow_count = link_flow_count_[link_index];
  return usage;
}

double TransportService::mean_utilization() const {
  std::lock_guard lk(mu_);
  if (reserved_.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < reserved_.size(); ++i) {
    sum += static_cast<double>(reserved_[i]) /
           static_cast<double>(topology_.link(i).capacity_bps);
  }
  return sum / static_cast<double>(reserved_.size());
}

}  // namespace qosnp
