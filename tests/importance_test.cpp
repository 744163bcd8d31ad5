#include "profile/importance.hpp"

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

namespace qosnp {
namespace {

TEST(PiecewiseLinear, ExactAtAnchors) {
  PiecewiseLinear curve{{1, 1.0}, {25, 9.0}, {60, 10.0}};
  EXPECT_DOUBLE_EQ(curve.at(1), 1.0);
  EXPECT_DOUBLE_EQ(curve.at(25), 9.0);
  EXPECT_DOUBLE_EQ(curve.at(60), 10.0);
}

TEST(PiecewiseLinear, LinearBetweenAnchors) {
  PiecewiseLinear curve{{0, 0.0}, {10, 10.0}};
  EXPECT_DOUBLE_EQ(curve.at(5), 5.0);
  EXPECT_DOUBLE_EQ(curve.at(2.5), 2.5);
}

TEST(PiecewiseLinear, PaperInterpolationShape) {
  // "the importance increases (or decreases) linearly from frozen rate to
  // TV rate, and from TV rate to HDTV rate."
  PiecewiseLinear curve{{1, 1.0}, {25, 9.0}, {60, 10.0}};
  const double at13 = curve.at(13);  // midpoint of [1, 25]
  EXPECT_DOUBLE_EQ(at13, 5.0);
  const double at42_5 = curve.at(42.5);  // midpoint of [25, 60]
  EXPECT_DOUBLE_EQ(at42_5, 9.5);
}

TEST(PiecewiseLinear, ClampsOutsideSpan) {
  PiecewiseLinear curve{{10, 2.0}, {20, 4.0}};
  EXPECT_DOUBLE_EQ(curve.at(0), 2.0);
  EXPECT_DOUBLE_EQ(curve.at(100), 4.0);
}

TEST(PiecewiseLinear, SetAnchorOverwrites) {
  PiecewiseLinear curve{{10, 2.0}};
  curve.set_anchor(10, 5.0);
  EXPECT_DOUBLE_EQ(curve.at(10), 5.0);
  EXPECT_EQ(curve.anchor_count(), 1u);
}

TEST(PiecewiseLinear, AnchorsSortRegardlessOfInsertionOrder) {
  PiecewiseLinear curve;
  curve.set_anchor(60, 10.0);
  curve.set_anchor(1, 1.0);
  curve.set_anchor(25, 9.0);
  EXPECT_DOUBLE_EQ(curve.at(13), 5.0);
}

TEST(PiecewiseLinear, EmptyCurveYieldsZero) {
  PiecewiseLinear curve;
  EXPECT_DOUBLE_EQ(curve.at(42), 0.0);
  EXPECT_TRUE(curve.empty());
}

TEST(PiecewiseLinear, ContinuityAtAnchors) {
  PiecewiseLinear curve{{1, 1.0}, {25, 9.0}, {60, 10.0}};
  const double eps = 1e-9;
  EXPECT_NEAR(curve.at(25 - eps), curve.at(25), 1e-6);
  EXPECT_NEAR(curve.at(25 + eps), curve.at(25), 1e-6);
}

// Importance factors of the paper's Sec. 5.2.2 example, setting (1).
ImportanceProfile paper_importance() {
  ImportanceProfile imp;
  imp.video_color = {2.0, 6.0, 9.0, 9.0};  // black&white 2, grey 6, colour 9
  imp.frame_rate = PiecewiseLinear{{15, 5.0}, {25, 9.0}};
  imp.resolution = PiecewiseLinear{{kTvResolution, 9.0}};
  imp.cost_per_dollar = 4.0;
  return imp;
}

TEST(ImportanceProfile, VideoQosImportanceSumsCharacteristics) {
  const ImportanceProfile imp = paper_importance();
  // colour(9) + 25fps(9) + TV-res(9) = 27 — offer4 of the paper.
  EXPECT_DOUBLE_EQ(
      imp.qos_importance(MonomediaQoS{VideoQoS{ColorDepth::kColor, 25, kTvResolution}}), 27.0);
  // black&white(2) + 25fps(9) + TV-res(9) = 20 — offer1.
  EXPECT_DOUBLE_EQ(
      imp.qos_importance(MonomediaQoS{VideoQoS{ColorDepth::kBlackWhite, 25, kTvResolution}}),
      20.0);
}

TEST(ImportanceProfile, CostImportanceIsLinearInCost) {
  const ImportanceProfile imp = paper_importance();
  EXPECT_DOUBLE_EQ(imp.cost_importance(Money::dollars(1)), 4.0);
  EXPECT_DOUBLE_EQ(imp.cost_importance(Money::cents(250)), 10.0);
  EXPECT_DOUBLE_EQ(imp.cost_importance(Money::dollars(5)), 20.0);
  EXPECT_DOUBLE_EQ(imp.cost_importance(Money{}), 0.0);
}

TEST(ImportanceProfile, MediaWeightScalesImportance) {
  ImportanceProfile imp = paper_importance();
  const MonomediaQoS qos{VideoQoS{ColorDepth::kColor, 25, kTvResolution}};
  const double base = imp.qos_importance(qos);
  imp.media_weight[static_cast<std::size_t>(MediaKind::kVideo)] = 2.0;
  EXPECT_DOUBLE_EQ(imp.qos_importance(qos), 2.0 * base);
}

TEST(ImportanceProfile, AudioTextImageImportance) {
  ImportanceProfile imp = ImportanceProfile::defaults();
  EXPECT_DOUBLE_EQ(imp.qos_importance(MonomediaQoS{AudioQoS{AudioQuality::kCD}}), 9.0);
  EXPECT_DOUBLE_EQ(imp.qos_importance(MonomediaQoS{AudioQoS{AudioQuality::kTelephone}}), 4.0);
  EXPECT_DOUBLE_EQ(imp.qos_importance(MonomediaQoS{TextQoS{Language::kFrench}}), 5.0);
  EXPECT_GT(imp.qos_importance(MonomediaQoS{ImageQoS{ColorDepth::kColor, kTvResolution}}), 0.0);
}

TEST(ImportanceProfile, DefaultsPreferBetterQuality) {
  const ImportanceProfile imp = ImportanceProfile::defaults();
  EXPECT_LT(imp.video_color[0], imp.video_color[1]);
  EXPECT_LT(imp.video_color[1], imp.video_color[2]);
  EXPECT_LT(imp.video_color[2], imp.video_color[3]);
  EXPECT_LT(imp.frame_rate.at(kFrozenFrameRate), imp.frame_rate.at(kTvFrameRate));
  EXPECT_LT(imp.frame_rate.at(kTvFrameRate), imp.frame_rate.at(kHdtvFrameRate));
  EXPECT_LT(imp.audio_quality[0], imp.audio_quality[2]);
  EXPECT_GT(imp.cost_per_dollar, 0.0);
}

TEST(ImportanceProfile, DefaultsEqualHandBuiltProfile) {
  const std::vector<std::pair<double, double>> frame_rate{
      {kFrozenFrameRate, 1.0}, {kTvFrameRate, 9.0}, {kHdtvFrameRate, 10.0}};
  const std::vector<std::pair<double, double>> resolution{
      {kMinResolution, 1.0}, {kTvResolution, 9.0}, {kHdtvResolution, 10.0}};
  // Mutating one returned copy must not leak into later defaults().
  ImportanceProfile scribbled = ImportanceProfile::defaults();
  scribbled.video_color[0] = -1.0;
  scribbled.frame_rate.set_anchor(30, 0.0);
  scribbled.preferred_servers.push_back("x");

  const ImportanceProfile imp = ImportanceProfile::defaults();
  EXPECT_EQ(imp.video_color, (std::array<double, 4>{2.0, 6.0, 9.0, 10.0}));
  EXPECT_EQ(imp.frame_rate.anchors(), frame_rate);
  EXPECT_EQ(imp.resolution.anchors(), resolution);
  EXPECT_EQ(imp.audio_quality, (std::array<double, 3>{4.0, 7.0, 9.0}));
  EXPECT_EQ(imp.language, (std::array<double, 4>{5.0, 5.0, 5.0, 5.0}));
  EXPECT_EQ(imp.image_color, imp.video_color);
  EXPECT_EQ(imp.image_resolution.anchors(), resolution);
  EXPECT_EQ(imp.media_weight, (std::array<double, 4>{1.0, 1.0, 1.0, 1.0}));
  EXPECT_EQ(imp.cost_per_dollar, 4.0);
  EXPECT_TRUE(imp.preferred_servers.empty());
  EXPECT_EQ(imp.server_bonus, 0.0);
}

// Property sweep: interpolation is monotone between increasing anchors.
class InterpolationMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(InterpolationMonotonicity, FrameRateImportanceNonDecreasing) {
  const ImportanceProfile imp = ImportanceProfile::defaults();
  const int fps = GetParam();
  EXPECT_LE(imp.frame_rate.at(fps), imp.frame_rate.at(fps + 1));
}

INSTANTIATE_TEST_SUITE_P(FrameRates, InterpolationMonotonicity,
                         ::testing::Range(kFrozenFrameRate, kHdtvFrameRate));

}  // namespace
}  // namespace qosnp
