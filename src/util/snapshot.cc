#include "util/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"

namespace autoce::util {

namespace {

/// Store instruments (DESIGN.md §5.9): commit count/latency, payload
/// bytes, fsync count/latency, and generation fallbacks in LoadLatest.
struct SnapMetrics {
  obs::Counter* commits;
  obs::Counter* bytes_written;
  obs::Counter* fsyncs;
  obs::Counter* fallbacks;
  obs::Counter* load_retries;
  obs::Counter* budget_rejects;
  obs::Histogram* fsync_ms;
  obs::Histogram* commit_ms;
  static const SnapMetrics& Get() {
    static const SnapMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return SnapMetrics{reg.GetCounter("snapshot.commits"),
                         reg.GetCounter("snapshot.bytes_written"),
                         reg.GetCounter("snapshot.fsyncs"),
                         reg.GetCounter("snapshot.fallbacks"),
                         reg.GetCounter("snapshot.load_retries"),
                         reg.GetCounter("snapshot.budget_rejects"),
                         reg.GetHistogram("snapshot.fsync_ms"),
                         reg.GetHistogram("snapshot.commit_ms")};
    }();
    return m;
  }
};

/// fsync with the call counted and (when metrics are live) timed.
int TimedFsync(int fd) {
  const SnapMetrics& m = SnapMetrics::Get();
  if (!obs::MetricsEnabled()) return ::fsync(fd);
  Timer timer;
  int rc = ::fsync(fd);
  m.fsyncs->Add();
  m.fsync_ms->Observe(timer.ElapsedMillis());
  return rc;
}

constexpr uint32_t kSnapMagic = 0x4143534E;      // "ACSN"
constexpr uint32_t kSnapVersion = 1;
constexpr uint32_t kSnapTrailer = 0x454E4421;    // "END!"
constexpr uint32_t kManifestMagic = 0x41434D46;  // "ACMF"
constexpr uint32_t kManifestVersion = 1;
constexpr uint64_t kMaxSections = 4096;

constexpr std::array<const char*, 11> kKillSites = {
    kill_sites::kTmpPartial,  kill_sites::kTmpSynced,
    kill_sites::kRenamed,     kill_sites::kManifestTmp,
    kill_sites::kCommitted,   kill_sites::kGcDone,
    kill_sites::kAdvisorCheckpoint,
    kill_sites::kServeReload,
    kill_sites::kAdaptEnqueue,
    kill_sites::kAdaptLabeled,
    kill_sites::kAdaptTrained,
};

/// fsyncs a directory so a rename inside it is durable.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal("cannot open directory: " + dir);
  int rc = TimedFsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync failed on directory: " + dir);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, std::size_t n, uint32_t crc) {
  // Slicing-by-8 IEEE CRC32 (8 table lookups per 8-byte chunk instead of
  // 8 sequential per-byte steps): checkpoints checksum every snapshot
  // payload on each commit, so this sits on the training hot path. The
  // tables are computed once, deterministically.
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (int s = 1; s < 8; ++s) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (n >= 8) {
    uint32_t lo = static_cast<uint32_t>(p[0]) |
                  static_cast<uint32_t>(p[1]) << 8 |
                  static_cast<uint32_t>(p[2]) << 16 |
                  static_cast<uint32_t>(p[3]) << 24;
    uint32_t hi = static_cast<uint32_t>(p[4]) |
                  static_cast<uint32_t>(p[5]) << 8 |
                  static_cast<uint32_t>(p[6]) << 16 |
                  static_cast<uint32_t>(p[7]) << 24;
    lo ^= c;
    c = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
        tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
        tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = tables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --n;
  }
  return c ^ 0xFFFFFFFFu;
}

std::span<const char* const> AllKillSites() {
  return {kKillSites.data(), kKillSites.size()};
}

namespace internal {

std::atomic<bool> g_kill_enabled{false};

namespace {
FaultRegistry& KillRegistry() {
  // Leaked, like the fault registry: kill points must stay valid for the
  // whole process lifetime.
  static FaultRegistry* registry = new FaultRegistry(AllKillSites());
  return *registry;
}

// Loads AUTOCE_KILLPOINTS / AUTOCE_KILLPOINT_SEED before main(), so the
// subprocess harness arms kill points purely via the environment.
const bool g_env_spec_loaded = [] {
  const char* spec = std::getenv("AUTOCE_KILLPOINTS");
  if (spec != nullptr && spec[0] != '\0') {
    uint64_t seed = 42;
    if (const char* s = std::getenv("AUTOCE_KILLPOINT_SEED")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(s, &end, 10);
      if (end != s && *end == '\0') seed = v;
    }
    // Invalid specs are ignored, mirroring AUTOCE_FAULTS: a typo must
    // never take down a production process.
    Status st = KillRegistry().Configure(spec, seed);
    g_kill_enabled.store(st.ok() && KillRegistry().AnyConfigured(),
                         std::memory_order_relaxed);
  }
  return true;
}();
}  // namespace

void KillPointImpl(const char* site, uint64_t key) {
  if (!KillRegistry().Decide(site, key)) return;
  // No cleanup, no atexit, no flushing of other streams: the closest
  // in-process equivalent of SIGKILL, so recovery tests exercise the
  // same torn states a real crash would leave behind.
  std::fprintf(stderr, "AUTOCE_KILLPOINT fired: %s (key %llu)\n", site,
               static_cast<unsigned long long>(key));
  std::fflush(stderr);
  std::_Exit(kKillExitCode);
}

}  // namespace internal

Status ConfigureKillPoints(const std::string& spec, uint64_t seed) {
  Status st = internal::KillRegistry().Configure(spec, seed);
  internal::g_kill_enabled.store(
      st.ok() && internal::KillRegistry().AnyConfigured(),
      std::memory_order_relaxed);
  return st;
}

void DisableKillPoints() {
  internal::KillRegistry().Disable();
  internal::g_kill_enabled.store(false, std::memory_order_relaxed);
}

Result<std::vector<SnapshotSection>> ReadSnapshotFile(
    const std::string& path) {
  BinaryReader r(path);
  if (!r.status().ok()) return r.status();
  if (r.ReadU32() != kSnapMagic) {
    if (!r.status().ok()) return r.status();
    return Status::DataLoss("not a snapshot file: " + path);
  }
  if (r.ReadU32() != kSnapVersion) {
    if (!r.status().ok()) return r.status();
    return Status::DataLoss("unsupported snapshot version: " + path);
  }
  uint64_t count = r.ReadU64();
  if (!r.status().ok()) return r.status();
  if (count > kMaxSections) {
    return Status::DataLoss("absurd section count (corrupt): " + path);
  }
  std::vector<SnapshotSection> sections;
  sections.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SnapshotSection s;
    s.name = r.ReadString();
    uint64_t len = r.ReadU64();
    if (!r.status().ok()) return r.status();
    if (len > r.remaining()) {
      return Status::DataLoss("section '" + s.name +
                              "' exceeds file size (truncated): " + path);
    }
    s.payload.resize(len);
    r.ReadBytes(s.payload.data(), len);
    uint32_t stored_crc = r.ReadU32();
    if (!r.status().ok()) return r.status();
    uint32_t crc = Crc32(s.name.data(), s.name.size());
    crc = Crc32(s.payload.data(), s.payload.size(), crc);
    if (stored_crc != crc) {
      return Status::DataLoss("CRC mismatch in section '" + s.name +
                              "': " + path);
    }
    sections.push_back(std::move(s));
  }
  if (r.ReadU32() != kSnapTrailer) {
    if (!r.status().ok()) return r.status();
    return Status::DataLoss("missing snapshot trailer (truncated): " + path);
  }
  return sections;
}

Result<SnapshotStore> SnapshotStore::Open(const std::string& dir,
                                          SnapshotStoreOptions options) {
  if (dir.empty()) {
    return Status::InvalidArgument("snapshot directory must not be empty");
  }
  if (options.keep_generations < 1) {
    return Status::InvalidArgument("keep_generations must be >= 1");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create snapshot directory: " + dir);
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::Internal("snapshot path is not a directory: " + dir);
  }
  return SnapshotStore(dir, options);
}

std::string SnapshotStore::GenerationPath(uint64_t generation) const {
  char name[64];
  std::snprintf(name, sizeof(name), "snap-%012llu.snap",
                static_cast<unsigned long long>(generation));
  return dir_ + "/" + name;
}

std::vector<uint64_t> SnapshotStore::ListGenerations() const {
  std::vector<uint64_t> out;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind("snap-", 0) != 0) continue;
    if (name.size() < 10 || name.substr(name.size() - 5) != ".snap") continue;
    char* end = nullptr;
    unsigned long long gen =
        std::strtoull(name.c_str() + 5, &end, 10);
    if (end == nullptr || std::string(end) != ".snap") continue;
    out.push_back(gen);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

Result<uint64_t> SnapshotStore::ManifestGeneration() const {
  const std::string path = dir_ + "/MANIFEST";
  BinaryReader r(path);
  if (!r.status().ok()) return r.status();
  // Fixed frame: magic, version, generation, CRC over those 16 bytes.
  uint32_t magic = r.ReadU32();
  uint32_t version = r.ReadU32();
  uint64_t generation = r.ReadU64();
  uint32_t stored_crc = r.ReadU32();
  if (!r.status().ok()) return r.status();
  if (magic != kManifestMagic || version != kManifestVersion) {
    return Status::DataLoss("corrupt MANIFEST header: " + path);
  }
  BinaryWriter check;
  check.WriteU32(magic);
  check.WriteU32(version);
  check.WriteU64(generation);
  if (stored_crc != Crc32(check.buffer().data(), check.buffer().size())) {
    return Status::DataLoss("MANIFEST CRC mismatch: " + path);
  }
  return generation;
}

Status SnapshotStore::WriteManifest(uint64_t generation,
                                    CommitDurability durability) const {
  BinaryWriter w;
  w.WriteU32(kManifestMagic);
  w.WriteU32(kManifestVersion);
  w.WriteU64(generation);
  w.WriteU32(Crc32(w.buffer().data(), w.buffer().size()));

  const std::string path = dir_ + "/MANIFEST";
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot write: " + tmp);
  const std::string& bytes = w.buffer();
  // The injected ENOSPC fires before any byte reaches the temp file —
  // the most hostile point for the MANIFEST, whose old copy must stay
  // authoritative.
  bool ok = !FaultPoint(fault_sites::kSnapshotManifest, generation);
  if (!ok) errno = ENOSPC;
  ok = ok && std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0;
  if (durability == CommitDurability::kSync) {
    ok = ok && TimedFsync(::fileno(f)) == 0;
  }
  int write_errno = ok ? 0 : errno;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    if (write_errno == 0) write_errno = errno;
    std::remove(tmp.c_str());
    return Status::Internal("short write: " + tmp + " (" +
                            std::strerror(write_errno) + ")");
  }
  KillPoint(kill_sites::kManifestTmp, generation);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp);
  }
  if (durability == CommitDurability::kLazy) return Status::OK();
  return SyncDir(dir_);
}

void SnapshotStore::CollectGarbage(uint64_t newest) const {
  // Keep the newest keep-N generations; everything older — and any
  // stale temp file from a previous crash — is removed. GC failures are
  // non-fatal: worst case the directory holds an extra generation.
  std::vector<uint64_t> gens = ListGenerations();
  std::sort(gens.begin(), gens.end(), std::greater<uint64_t>());
  size_t kept = 0;
  for (uint64_t gen : gens) {
    if (kept < static_cast<size_t>(options_.keep_generations) ||
        gen == newest) {
      ++kept;
      continue;
    }
    std::remove(GenerationPath(gen).c_str());
  }
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      stale.push_back(dir_ + "/" + name);
    }
  }
  ::closedir(d);
  for (const auto& path : stale) std::remove(path.c_str());
}

Result<uint64_t> SnapshotStore::Commit(
    const std::vector<SnapshotSection>& sections, CommitDurability durability) {
  if (sections.size() > kMaxSections) {
    return Status::InvalidArgument("too many snapshot sections");
  }
  obs::TraceSpan span("snapshot.commit");
  const SnapMetrics& metrics = SnapMetrics::Get();
  Timer commit_timer;
  // Next generation: one past everything seen on disk or in the
  // manifest, so an orphan from a crashed commit can never collide.
  uint64_t gen = 0;
  for (uint64_t g : ListGenerations()) gen = std::max(gen, g);
  if (auto m = ManifestGeneration(); m.ok()) gen = std::max(gen, *m);
  ++gen;

  // Frame the whole snapshot in memory first so the file write is two
  // plain chunks with a kill point between them (a deterministic torn
  // state for the recovery harness).
  BinaryWriter frame;
  frame.WriteU32(kSnapMagic);
  frame.WriteU32(kSnapVersion);
  frame.WriteU64(sections.size());
  for (const auto& s : sections) {
    frame.WriteString(s.name);
    frame.WriteU64(s.payload.size());
    frame.WriteBytes(s.payload.data(), s.payload.size());
    // The CRC chains over name + payload, so a flipped bit anywhere in
    // the frame (not just the payload) fails verification.
    uint32_t crc = Crc32(s.name.data(), s.name.size());
    frame.WriteU32(Crc32(s.payload.data(), s.payload.size(), crc));
  }
  frame.WriteU32(kSnapTrailer);
  const std::string& bytes = frame.buffer();

  if (options_.disk_budget_bytes > 0) {
    // Project the post-GC footprint: the new snapshot plus the newest
    // keep-1 existing generations (everything older is collected). The
    // check runs before any byte is written, so a rejected commit
    // leaves the store bit-identical to before the call.
    std::vector<uint64_t> gens = ListGenerations();  // ascending
    size_t keep_existing =
        static_cast<size_t>(options_.keep_generations) - 1;
    uint64_t projected = bytes.size();
    for (size_t i = 0; i < gens.size() && i < keep_existing; ++i) {
      struct stat st;
      uint64_t g = gens[gens.size() - 1 - i];
      if (::stat(GenerationPath(g).c_str(), &st) == 0) {
        projected += static_cast<uint64_t>(st.st_size);
      }
    }
    if (projected > options_.disk_budget_bytes) {
      metrics.budget_rejects->Add();
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "snapshot.commit: disk budget exhausted (%llu bytes "
                    "projected > %llu limit)",
                    static_cast<unsigned long long>(projected),
                    static_cast<unsigned long long>(
                        options_.disk_budget_bytes));
      return Status::ResourceExhausted(msg);
    }
  }

  const std::string path = GenerationPath(gen);
  const std::string tmp = path + ".tmp";
  {
    FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      return Status::Internal("cannot write snapshot: " + tmp);
    }
    size_t half = bytes.size() / 2;
    bool ok = std::fwrite(bytes.data(), 1, half, f) == half;
    ok = ok && std::fflush(f) == 0;  // push the prefix to the OS first
    if (ok) KillPoint(kill_sites::kTmpPartial, gen);
    if (ok && FaultPoint(fault_sites::kSnapshotWrite, gen)) {
      // Simulated ENOSPC: the device filled after the prefix landed —
      // the same torn state the kTmpPartial kill leaves, but surfaced
      // as an error the caller must handle instead of a crash.
      errno = ENOSPC;
      ok = false;
    }
    ok = ok && std::fwrite(bytes.data() + half, 1, bytes.size() - half, f) ==
                   bytes.size() - half;
    ok = ok && std::fflush(f) == 0;
    if (durability == CommitDurability::kSync) {
      ok = ok && TimedFsync(::fileno(f)) == 0;
    }
    int write_errno = ok ? 0 : errno;
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
      if (write_errno == 0) write_errno = errno;
      std::remove(tmp.c_str());
      return Status::Internal("short write of snapshot: " + tmp + " (" +
                              std::strerror(write_errno) + ")");
    }
  }
  KillPoint(kill_sites::kTmpSynced, gen);

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  // No directory fsync here: the one at the end of WriteManifest makes
  // both renames durable together. Metadata journaling preserves their
  // order, and even a manifest that outlives its snapshot is harmless —
  // LoadLatest falls back generation by generation.
  KillPoint(kill_sites::kRenamed, gen);

  if (Status st = WriteManifest(gen, durability); !st.ok()) {
    // Roll back: remove the orphan snapshot unless the MANIFEST already
    // reached it (a post-rename fsync failure must not delete the data
    // the manifest now points at).
    auto now = ManifestGeneration();
    if (!(now.ok() && *now == gen)) std::remove(path.c_str());
    return st;
  }
  KillPoint(kill_sites::kCommitted, gen);

  CollectGarbage(gen);
  KillPoint(kill_sites::kGcDone, gen);
  metrics.commits->Add();
  metrics.bytes_written->Add(static_cast<int64_t>(bytes.size()));
  metrics.commit_ms->Observe(commit_timer.ElapsedMillis());
  return gen;
}

Result<std::vector<SnapshotSection>> SnapshotStore::LoadLatest(
    uint64_t* generation) const {
  // A concurrent committer can race this reader: between listing the
  // candidates and opening one, a Commit + keep-N GC may delete every
  // generation the reader saw (keep_generations = 1 makes the window
  // one commit wide). When every candidate fails AND the store moved
  // forward since the candidates were computed, the failure is that
  // race, not data loss — recompute the candidates and retry. Bounded:
  // each retry re-reads a strictly newer MANIFEST, and a store that is
  // genuinely corrupt never advances, so the loop exits on the first
  // stable pass.
  Status last = Status::NotFound("no snapshot in " + dir_);
  constexpr int kMaxLoadAttempts = 5;
  for (int attempt = 0; attempt < kMaxLoadAttempts; ++attempt) {
    // Candidate order: the MANIFEST generation (the last known-good
    // commit point) first, then every other generation newest-first. A
    // renamed snapshot whose commit died before the MANIFEST update is
    // only used when the manifest itself is gone.
    std::vector<uint64_t> candidates;
    auto manifest = ManifestGeneration();
    if (manifest.ok()) candidates.push_back(*manifest);
    std::vector<uint64_t> gens = ListGenerations();
    std::sort(gens.begin(), gens.end(), std::greater<uint64_t>());
    for (uint64_t g : gens) {
      if (manifest.ok() && g >= *manifest) continue;
      candidates.push_back(g);
    }

    for (size_t i = 0; i < candidates.size(); ++i) {
      uint64_t gen = candidates[i];
      auto sections = ReadSnapshotFile(GenerationPath(gen));
      if (sections.ok()) {
        if (i > 0) {
          SnapMetrics::Get().fallbacks->Add();
          AUTOCE_LOG(Warning)
              << "snapshot store " << dir_ << ": generation "
              << candidates[0] << " unreadable, fell back to generation "
              << gen;
        }
        if (generation != nullptr) *generation = gen;
        return sections;
      }
      last = sections.status();
    }

    auto now = ManifestGeneration();
    bool moved = now.ok() && (!manifest.ok() || *now > *manifest);
    if (!moved) break;
    SnapMetrics::Get().load_retries->Add();
    AUTOCE_LOG(Warning) << "snapshot store " << dir_
                        << ": generations collected under a concurrent "
                           "commit, retrying load at generation "
                        << *now;
  }
  return last;
}

}  // namespace autoce::util
