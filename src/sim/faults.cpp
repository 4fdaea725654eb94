#include "sim/faults.h"

#include <algorithm>

#include "check/check.h"
#include "util/rng.h"

namespace ultra::sim {

namespace {

// Domain-separation salts for the independent fault streams.
constexpr std::uint64_t kSaltMessageFate = 0x6d736746617465ull;   // "msgFate"
constexpr std::uint64_t kSaltMessageBonus = 0x6d736744656c61ull;  // "msgDela"
constexpr std::uint64_t kSaltCrash = 0x63726173684e64ull;         // "crashNd"
constexpr std::uint64_t kSaltLink = 0x6c696e6b446f77ull;          // "linkDow"

constexpr std::uint64_t mix(std::uint64_t seed, std::uint64_t salt,
                            std::uint64_t a, std::uint64_t b = 0,
                            std::uint64_t c = 0) noexcept {
  std::uint64_t h = util::mix64(seed ^ salt);
  h = util::mix64(h ^ a);
  h = util::mix64(h ^ b);
  return util::mix64(h ^ c);
}

// Map a hash to [0, 1) with 53 bits of precision.
constexpr double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// A length in [1, bound] (bound clamped to >= 1).
constexpr std::uint64_t span_of(std::uint64_t h, std::uint64_t bound) noexcept {
  return 1 + h % std::max<std::uint64_t>(1, bound);
}

}  // namespace

FaultPlan::FaultPlan(std::uint64_t seed, const FaultRates& rates)
    : seed_(seed), rates_(rates) {
  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  ULTRA_CHECK_ARG(in_unit(rates.drop) && in_unit(rates.duplicate) &&
                  in_unit(rates.delay) && in_unit(rates.crash) &&
                  in_unit(rates.restart) && in_unit(rates.link_down))
      << "FaultPlan: every rate must lie in [0, 1]";
  ULTRA_CHECK_ARG(rates.drop + rates.duplicate + rates.delay <= 1.0)
      << "FaultPlan: drop + duplicate + delay = "
      << rates.drop + rates.duplicate + rates.delay << " exceeds 1";
}

FateDecision FaultPlan::message_fate(std::uint64_t round, VertexId from,
                                     VertexId to) const {
  if (rates_.drop <= 0.0 && rates_.duplicate <= 0.0 && rates_.delay <= 0.0) {
    return {};
  }
  // One uniform draw decides between the mutually exclusive fates; a second
  // independent draw sizes the deferral for the delayed/duplicated copy.
  const double u = unit(mix(seed_, kSaltMessageFate, round, from, to));
  FateDecision d;
  if (u < rates_.drop) {
    d.kind = FateDecision::Kind::kDrop;
  } else if (u < rates_.drop + rates_.duplicate) {
    d.kind = FateDecision::Kind::kDuplicate;
  } else if (u < rates_.drop + rates_.duplicate + rates_.delay) {
    d.kind = FateDecision::Kind::kDelay;
  } else {
    return {};
  }
  if (d.kind != FateDecision::Kind::kDrop) {
    d.delay_rounds = span_of(mix(seed_, kSaltMessageBonus, round, from, to),
                             rates_.max_delay_rounds);
  }
  return d;
}

CrashInterval FaultPlan::crash_interval(VertexId v) const {
  if (rates_.crash <= 0.0) return {};
  const std::uint64_t h = mix(seed_, kSaltCrash, v);
  if (unit(h) >= rates_.crash) return {};
  CrashInterval iv;
  // Crashes begin no earlier than round 1, so a freshly constructed network
  // always completes its synchronized start (round 0) with every node up.
  iv.begin = span_of(mix(seed_, kSaltCrash, v, 1), rates_.crash_window);
  if (unit(mix(seed_, kSaltCrash, v, 2)) < rates_.restart) {
    iv.end = iv.begin +
             span_of(mix(seed_, kSaltCrash, v, 3), rates_.max_crash_rounds);
  } else {
    iv.end = CrashInterval::kNeverRestarts;
  }
  return iv;
}

CrashInterval FaultPlan::link_interval(VertexId u, VertexId v) const {
  if (rates_.link_down <= 0.0) return {};
  const VertexId lo = std::min(u, v);
  const VertexId hi = std::max(u, v);
  const std::uint64_t h = mix(seed_, kSaltLink, lo, hi);
  if (unit(h) >= rates_.link_down) return {};
  CrashInterval iv;
  iv.begin = span_of(mix(seed_, kSaltLink, lo, hi, 1), rates_.link_down_window);
  iv.end = iv.begin + span_of(mix(seed_, kSaltLink, lo, hi, 2),
                              rates_.max_link_down_rounds);
  return iv;
}

bool FaultPlan::link_down(VertexId u, VertexId v, std::uint64_t round) const {
  return link_interval(u, v).covers(round);
}

}  // namespace ultra::sim
