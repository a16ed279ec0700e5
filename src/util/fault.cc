#include "util/fault.h"

#include <array>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/rng.h"

namespace autoce::util {

namespace internal {
std::atomic<bool> g_fault_enabled{false};
}  // namespace internal

namespace {

constexpr std::array<const char*, 18> kAllSites = {
    fault_sites::kCsvRow,          fault_sites::kTestbedTrain,
    fault_sites::kTestbedEstimate, fault_sites::kNnLoss,
    fault_sites::kDmlLoss,         fault_sites::kDmlGrad,
    fault_sites::kFitSample,       fault_sites::kRecommendEmbed,
    fault_sites::kServeAdmission,  fault_sites::kServeReload,
    fault_sites::kAdaptEnqueue,    fault_sites::kAdaptLabel,
    fault_sites::kAdaptTrain,      fault_sites::kAdaptCommit,
    fault_sites::kSnapshotWrite,   fault_sites::kSnapshotManifest,
    fault_sites::kFssLookup,       fault_sites::kFssCommit,
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashSiteName(std::string_view site) {
  // Stable across runs and platforms.
  return Fnv1a(site.data(), site.size());
}

}  // namespace

std::span<const char* const> AllFaultSites() {
  return {kAllSites.data(), kAllSites.size()};
}

uint64_t FaultKeyMix(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b * 0x9E3779B97F4A7C15ULL));
}

uint64_t FaultKeyFromDoubles(const double* data, std::size_t n) {
  uint64_t h = SplitMix64(n);
  // Sample up to 16 evenly spaced elements so huge tensors stay cheap.
  std::size_t stride = n > 16 ? n / 16 : 1;
  for (std::size_t i = 0; i < n; i += stride) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    __builtin_memcpy(&bits, &data[i], sizeof(bits));
    h = FaultKeyMix(h, bits);
  }
  return h;
}

struct FaultRegistry::State {
  mutable std::mutex mu;
  std::span<const char* const> sites;
  std::unordered_map<std::string, double> probability;  // site -> p
  std::unordered_map<std::string, int64_t> fires;
  uint64_t seed = 42;
};

FaultRegistry::FaultRegistry(std::span<const char* const> sites)
    : state_(new State()) {
  state_->sites = sites;
}

FaultRegistry::~FaultRegistry() { delete state_; }

Status FaultRegistry::Configure(const std::string& spec, uint64_t seed) {
  auto is_registered = [this](std::string_view site) {
    for (const char* s : state_->sites) {
      if (site == s) return true;
    }
    return false;
  };
  std::unordered_map<std::string, double> parsed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    std::string site = entry;
    double p = 1.0;
    std::size_t colon = entry.find(':');
    if (colon != std::string::npos) {
      site = entry.substr(0, colon);
      char* end = nullptr;
      const std::string p_str = entry.substr(colon + 1);
      p = std::strtod(p_str.c_str(), &end);
      if (end == p_str.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("bad fault probability in entry: " +
                                       entry);
      }
    }
    if (site == "*") {
      for (const char* s : state_->sites) parsed[s] = p;
    } else if (is_registered(site)) {
      parsed[site] = p;
    } else {
      return Status::InvalidArgument("unknown fault site: " + site);
    }
  }

  std::lock_guard<std::mutex> lock(state_->mu);
  state_->probability = std::move(parsed);
  state_->fires.clear();
  state_->seed = seed;
  return Status::OK();
}

void FaultRegistry::Disable() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->probability.clear();
  state_->fires.clear();
}

bool FaultRegistry::AnyConfigured() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return !state_->probability.empty();
}

bool FaultRegistry::Decide(const char* site, uint64_t key) {
  double p;
  uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->probability.find(site);
    if (it == state_->probability.end()) return false;
    p = it->second;
    seed = state_->seed;
  }
  // Pure decision: an Rng seeded from (seed, site, key) alone, so the
  // outcome is independent of call order and thread count.
  Rng decision(FaultKeyMix(seed ^ HashSiteName(site), key));
  bool fire = p >= 1.0 || decision.Uniform() < p;
  if (fire) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      ++state_->fires[site];
    }
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Instance()
          .GetCounter("fault.trips", {{"site", site}})
          ->Add();
    }
  }
  return fire;
}

int64_t FaultRegistry::FireCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->fires.find(site);
  return it == state_->fires.end() ? 0 : it->second;
}

void FaultRegistry::ResetCounts() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->fires.clear();
}

FaultInjection& FaultInjection::Instance() {
  // Leaked singleton: fault points may run during static destruction of
  // other objects, so the registry must never be torn down.
  static FaultInjection* instance = new FaultInjection();
  return *instance;
}

FaultInjection::FaultInjection()
    : registry_(new FaultRegistry(AllFaultSites())) {
  const char* spec = std::getenv("AUTOCE_FAULTS");
  if (spec != nullptr && spec[0] != '\0') {
    uint64_t seed = 42;
    if (const char* s = std::getenv("AUTOCE_FAULT_SEED")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(s, &end, 10);
      if (end != s && *end == '\0') seed = v;
    }
    // Invalid env specs are ignored rather than fatal: injection is a
    // testing facility and must never take down a production process.
    (void)Configure(spec, seed);
  }
}

Status FaultInjection::Configure(const std::string& spec, uint64_t seed) {
  Status st = registry_->Configure(spec, seed);
  internal::g_fault_enabled.store(st.ok() && registry_->AnyConfigured(),
                                  std::memory_order_relaxed);
  return st;
}

void FaultInjection::Disable() {
  registry_->Disable();
  internal::g_fault_enabled.store(false, std::memory_order_relaxed);
}

bool FaultInjection::ShouldFail(const char* site, uint64_t key) {
  return registry_->Decide(site, key);
}

int64_t FaultInjection::FireCount(const std::string& site) const {
  return registry_->FireCount(site);
}

void FaultInjection::ResetCounts() { registry_->ResetCounts(); }

namespace {
// Constructs the registry before main() so the env spec is picked up:
// FaultPoint's fast path reads g_fault_enabled directly and would
// otherwise never trigger the constructor in processes that only use
// AUTOCE_FAULTS (no programmatic Configure call).
const bool g_env_spec_loaded = (FaultInjection::Instance(), true);
}  // namespace

}  // namespace autoce::util
