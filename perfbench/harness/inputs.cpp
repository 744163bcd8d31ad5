#include "inputs.hpp"

#include <array>

#include "document/corpus.hpp"

namespace perfbench {

using namespace qosnp;

Rng stream_rng(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  Rng mixer(seed * 0x9e3779b97f4a7c15ULL ^ (purpose + 1) * 0xc2b2ae3d27d4eb4fULL);
  const std::uint64_t base = mixer.next_u64();
  return Rng(base + index * 0xbf58476d1ce4e5b9ULL);
}

std::vector<ClientMachine> make_clients(int n, Rng& rng) {
  static constexpr std::array<int, 3> kWidths = {1280, 1600, 1920};
  std::vector<ClientMachine> clients;
  clients.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ClientMachine c;
    c.name = "client-" + std::to_string(i);
    c.node = c.name;
    c.screen = ScreenSpec{kWidths[rng.below(kWidths.size())], 1080,
                          rng.chance(0.5) ? ColorDepth::kSuperColor : ColorDepth::kColor};
    c.decoders = {CodingFormat::kMPEG1,     CodingFormat::kMPEG2, CodingFormat::kMJPEG,
                  CodingFormat::kH261,      CodingFormat::kPCM,   CodingFormat::kADPCM,
                  CodingFormat::kMPEGAudio, CodingFormat::kPlainText, CodingFormat::kHTML,
                  CodingFormat::kJPEG,      CodingFormat::kGIF,   CodingFormat::kTIFF};
    c.max_audio = AudioQuality::kCD;
    clients.push_back(std::move(c));
  }
  return clients;
}

std::vector<UserProfile> named_profiles() {
  UserProfile tolerant = default_user_profile();
  tolerant.name = "tolerant";
  tolerant.mm.video->worst = VideoQoS{ColorDepth::kBlackWhite, 1, kMinResolution};
  tolerant.mm.audio->worst = AudioQoS{AudioQuality::kTelephone};
  tolerant.mm.text->acceptable = {Language::kFrench, Language::kGerman, Language::kSpanish};
  tolerant.mm.image->worst = ImageQoS{ColorDepth::kBlackWhite, kMinResolution};
  tolerant.mm.cost.max_cost = Money::dollars(50);
  return {demanding_user_profile(), typical_user_profile(), thrifty_user_profile(), tolerant};
}

UserProfile personalised_profile(Rng& rng) {
  static constexpr std::array<ColorDepth, 3> kColors = {ColorDepth::kGray, ColorDepth::kColor,
                                                        ColorDepth::kSuperColor};
  static constexpr std::array<int, 4> kResolutions = {320, 640, 960, 1280};
  static constexpr std::array<Language, 4> kLanguages = {Language::kEnglish, Language::kFrench,
                                                         Language::kGerman, Language::kSpanish};
  UserProfile p = default_user_profile();
  p.name = "personal";

  const std::size_t color = rng.below(kColors.size());
  const std::size_t res = rng.below(kResolutions.size());
  const int fps = static_cast<int>(rng.between(10, 30));
  p.mm.video->desired = VideoQoS{kColors[color], fps, kResolutions[res]};
  p.mm.video->worst = VideoQoS{static_cast<ColorDepth>(rng.below(color + 1)),
                               static_cast<int>(rng.between(1, fps)),
                               kResolutions[rng.below(res + 1)]};

  const auto audio = static_cast<AudioQuality>(rng.between(1, 2));
  p.mm.audio->desired = AudioQoS{audio};
  p.mm.audio->worst = AudioQoS{static_cast<AudioQuality>(rng.below(static_cast<int>(audio) + 1))};

  p.mm.text->desired = kLanguages[rng.below(kLanguages.size())];
  p.mm.text->acceptable.clear();
  for (Language l : kLanguages) {
    if (l != p.mm.text->desired && rng.chance(0.5)) p.mm.text->acceptable.push_back(l);
  }

  const std::size_t icolor = rng.below(kColors.size());
  const std::size_t ires = rng.below(kResolutions.size());
  p.mm.image->desired = ImageQoS{kColors[icolor], kResolutions[ires]};
  p.mm.image->worst = ImageQoS{static_cast<ColorDepth>(rng.below(icolor + 1)),
                               kResolutions[rng.below(ires + 1)]};

  p.mm.cost.max_cost = Money::cents(static_cast<std::int64_t>(rng.between(200, 3000)));
  p.importance.cost_per_dollar = rng.uniform(0.25, 8.0);
  return p;
}

std::vector<MultimediaDocument> wide_corpus(int documents, const std::vector<std::string>& servers,
                                            std::uint64_t seed) {
  CorpusConfig config;
  config.num_documents = documents;
  config.seed = seed;
  config.min_video_variants = 6;
  config.max_video_variants = 12;
  config.min_audio_variants = 2;
  config.max_audio_variants = 5;
  config.audio_probability = 1.0;
  config.text_probability = 1.0;
  config.image_probability = 1.0;
  config.second_language_probability = 0.7;
  config.min_duration_s = 30.0;
  config.max_duration_s = 240.0;
  config.servers = servers;
  config.replication_probability = 0.5;
  std::vector<MultimediaDocument> docs = generate_corpus(config);

  // Replicate every audio and image variant onto the next server: replicas
  // are distinct variants (paper Sec. 2), so the ladder widens and offers
  // mix servers, which is what makes a share of commits cross shards.
  for (MultimediaDocument& doc : docs) {
    for (Monomedia& mono : doc.monomedia) {
      if (mono.kind != MediaKind::kAudio && mono.kind != MediaKind::kImage) continue;
      const std::size_t originals = mono.variants.size();
      for (std::size_t v = 0; v < originals; ++v) {
        Variant replica = mono.variants[v];
        std::size_t at = 0;
        while (at < servers.size() && servers[at] != replica.server) ++at;
        replica.id += "@r";
        replica.server = servers[(at + 1) % servers.size()];
        mono.variants.push_back(std::move(replica));
      }
    }
  }
  return docs;
}

}  // namespace perfbench
