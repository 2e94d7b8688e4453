#include "util/fault_inject.hpp"

#include <array>
#include <thread>
#include <unordered_map>

#include "util/digest.hpp"
#include "util/error.hpp"

namespace vmcons::util {
namespace {

constexpr std::array<std::string_view, 7> kKnownSites = {
    fault_sites::kErlangEval,
    fault_sites::kStaffingInverse,
    fault_sites::kBatchShard,
    fault_sites::kBatchCell,
    fault_sites::kSweepShard,
    fault_sites::kDriverClaim,
    fault_sites::kDriverShard,
};

/// Uniform draw in [0, 1), a pure function of (seed, site, index, salt) —
/// deliberately free of any thread or time input so fault runs replay
/// bit-identically across worker counts.
double draw(std::uint64_t seed, std::uint64_t site, std::uint64_t index,
            std::uint64_t salt) noexcept {
  const std::uint64_t h = mix64(seed ^ mix64(site ^ mix64(index ^ salt)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kErrorSalt = 0x45;
constexpr std::uint64_t kDelaySalt = 0xD3;

}  // namespace

/// Immutable arming snapshot, swapped atomically so check() never locks.
struct FaultInjector::Config {
  std::uint64_t seed = 2009;
  /// Keyed by fnv1a64 of the site name.
  std::unordered_map<std::uint64_t, SiteConfig> sites;
};

std::atomic<bool> FaultInjector::g_enabled{false};

FaultInjector::FaultInjector() {
  config_.store(std::make_shared<const Config>());
}

FaultInjector::~FaultInjector() = default;

std::shared_ptr<const FaultInjector::Config> FaultInjector::load() const {
  return config_.load(std::memory_order_acquire);
}

void FaultInjector::publish_enabled() const {
  if (this == &global()) {
    g_enabled.store(!load()->sites.empty(), std::memory_order_relaxed);
  }
}

void FaultInjector::arm(std::string_view site, SiteConfig config) {
  bool known = false;
  for (const std::string_view candidate : kKnownSites) {
    known = known || candidate == site;
  }
  VMCONS_REQUIRE(known, "unknown fault-injection site '" + std::string(site) +
                            "' (see FaultInjector::known_sites())");
  VMCONS_REQUIRE(config.error_rate >= 0.0 && config.error_rate <= 1.0 &&
                     config.delay_rate >= 0.0 && config.delay_rate <= 1.0,
                 "fault-injection rates must be in [0, 1]");
  auto next = std::make_shared<Config>(*load());
  next->sites[fnv1a64(site.data(), site.size())] = config;
  config_.store(std::shared_ptr<const Config>(std::move(next)),
                std::memory_order_release);
  publish_enabled();
}

void FaultInjector::disarm_all() {
  auto next = std::make_shared<Config>();
  next->seed = load()->seed;
  config_.store(std::shared_ptr<const Config>(std::move(next)),
                std::memory_order_release);
  publish_enabled();
}

void FaultInjector::set_seed(std::uint64_t seed) {
  auto next = std::make_shared<Config>(*load());
  next->seed = seed;
  config_.store(std::shared_ptr<const Config>(std::move(next)),
                std::memory_order_release);
}

std::uint64_t FaultInjector::seed() const { return load()->seed; }

void FaultInjector::check(std::string_view site, std::uint64_t index) const {
  const auto config = load();
  if (config->sites.empty()) {
    return;
  }
  const std::uint64_t hash = fnv1a64(site.data(), site.size());
  const auto it = config->sites.find(hash);
  if (it == config->sites.end()) {
    return;
  }
  const SiteConfig& armed = it->second;
  if (armed.delay_rate > 0.0 &&
      draw(config->seed, hash, index, kDelaySalt) < armed.delay_rate) {
    std::this_thread::sleep_for(armed.delay);
  }
  if (armed.error_rate > 0.0 &&
      draw(config->seed, hash, index, kErrorSalt) < armed.error_rate) {
    throw NumericError("injected fault at site '" + std::string(site) +
                           "', index " + std::to_string(index) + " (seed " +
                           std::to_string(config->seed) + ")",
                       ErrorCode::kFaultInjected);
  }
}

bool FaultInjector::would_fail(std::string_view site,
                               std::uint64_t index) const {
  const auto config = load();
  const std::uint64_t hash = fnv1a64(site.data(), site.size());
  const auto it = config->sites.find(hash);
  if (it == config->sites.end()) {
    return false;
  }
  return it->second.error_rate > 0.0 &&
         draw(config->seed, hash, index, kErrorSalt) < it->second.error_rate;
}

std::span<const std::string_view> FaultInjector::known_sites() noexcept {
  return kKnownSites;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

ScopedFaults::ScopedFaults() : saved_seed_(FaultInjector::global().seed()) {}

ScopedFaults::~ScopedFaults() {
  FaultInjector& injector = FaultInjector::global();
  injector.disarm_all();
  injector.set_seed(saved_seed_);
}

}  // namespace vmcons::util
