#include "profile/importance.hpp"

#include <algorithm>

namespace qosnp {

PiecewiseLinear::PiecewiseLinear(std::initializer_list<std::pair<double, double>> anchors) {
  for (const auto& [x, v] : anchors) set_anchor(x, v);
}

void PiecewiseLinear::set_anchor(double x, double value) {
  auto it = std::lower_bound(anchors_.begin(), anchors_.end(), x,
                             [](const auto& a, double key) { return a.first < key; });
  if (it != anchors_.end() && it->first == x) {
    it->second = value;
  } else {
    anchors_.insert(it, {x, value});
  }
}

double PiecewiseLinear::at(double x) const {
  if (anchors_.empty()) return 0.0;
  if (x <= anchors_.front().first) return anchors_.front().second;
  if (x >= anchors_.back().first) return anchors_.back().second;
  auto hi = std::lower_bound(anchors_.begin(), anchors_.end(), x,
                             [](const auto& a, double key) { return a.first < key; });
  if (hi->first == x) return hi->second;
  auto lo = hi - 1;
  const double t = (x - lo->first) / (hi->first - lo->first);
  return lo->second + t * (hi->second - lo->second);
}

double ImportanceProfile::qos_importance(const MonomediaQoS& qos) const {
  return std::visit(
      [this](const auto& q) -> double {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, VideoQoS>) {
          const double sum = video_color[static_cast<std::size_t>(q.color)] +
                             frame_rate.at(q.frame_rate_fps) + resolution.at(q.resolution);
          return sum * media_weight[static_cast<std::size_t>(MediaKind::kVideo)];
        } else if constexpr (std::is_same_v<T, AudioQoS>) {
          const double sum = audio_quality[static_cast<std::size_t>(q.quality)];
          return sum * media_weight[static_cast<std::size_t>(MediaKind::kAudio)];
        } else if constexpr (std::is_same_v<T, TextQoS>) {
          const double sum = language[static_cast<std::size_t>(q.language)];
          return sum * media_weight[static_cast<std::size_t>(MediaKind::kText)];
        } else {
          const double sum = image_color[static_cast<std::size_t>(q.color)] +
                             image_resolution.at(q.resolution);
          return sum * media_weight[static_cast<std::size_t>(MediaKind::kImage)];
        }
      },
      qos);
}

double ImportanceProfile::cost_importance(Money cost) const {
  return cost_per_dollar * cost.as_dollars();
}

bool ImportanceProfile::prefers_server(const std::string& server) const {
  return std::find(preferred_servers.begin(), preferred_servers.end(), server) !=
         preferred_servers.end();
}

ImportanceProfile ImportanceProfile::defaults() {
  // Built once; every default-constructed UserProfile copies it, so the
  // curves are not re-assembled anchor by anchor on each construction.
  static const ImportanceProfile prototype = [] {
    ImportanceProfile p;
    p.video_color = {2.0, 6.0, 9.0, 10.0};  // black&white, grey, colour, super-colour
    p.frame_rate = PiecewiseLinear{{kFrozenFrameRate, 1.0}, {kTvFrameRate, 9.0},
                                   {kHdtvFrameRate, 10.0}};
    p.resolution = PiecewiseLinear{{kMinResolution, 1.0}, {kTvResolution, 9.0},
                                   {kHdtvResolution, 10.0}};
    p.audio_quality = {4.0, 7.0, 9.0};  // telephone, radio, CD
    p.language = {5.0, 5.0, 5.0, 5.0};
    p.image_color = p.video_color;
    p.image_resolution = p.resolution;
    p.cost_per_dollar = 4.0;
    return p;
  }();
  return prototype;
}

}  // namespace qosnp
