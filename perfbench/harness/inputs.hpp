// Generated inputs of the three workloads. Everything here is a pure
// function of the run's --seed, so a seed names one exact input set and the
// program under test only ever sees these generated values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client/client_machine.hpp"
#include "document/model.hpp"
#include "profile/profiles.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Independent stream for (seed, purpose, index): request i of a workload is
/// regenerated exactly by the reference replay.
qosnp::Rng stream_rng(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0);

/// `n` client machines named client-0..n-1 (matching Topology::dumbbell
/// nodes), all decoders installed, screens drawn per machine. Every screen
/// renders the worst-acceptable values of every profile generated here, so
/// Step 1 never fails on them.
std::vector<qosnp::ClientMachine> make_clients(int n, qosnp::Rng& rng);

/// The four named profiles of the hot workload: the three population
/// presets plus a tolerant one whose worst-acceptable values are the floor.
std::vector<qosnp::UserProfile> named_profiles();

/// One personalised profile: desired and worst values drawn per request.
qosnp::UserProfile personalised_profile(qosnp::Rng& rng);

/// A corpus of wide-ladder articles whose variants live on `servers`, with
/// audio and image variants replicated onto a second server — offer spaces
/// of hundreds to thousands of combinations.
std::vector<qosnp::MultimediaDocument> wide_corpus(int documents,
                                                   const std::vector<std::string>& servers,
                                                   std::uint64_t seed);

}  // namespace perfbench
