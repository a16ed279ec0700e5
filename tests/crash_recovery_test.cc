// Kill-point recovery harness (tentpole of the crash-safety work): for
// every registered persistence kill site, a helper process is started
// with AUTOCE_KILLPOINTS=<site> so it dies mid-persistence with exit
// code 137 (the in-process equivalent of `kill -9`), then restarted
// with --resume. The resumed run must finish and produce a final model
// digest bit-identical to an uninterrupted baseline — at
// AUTOCE_THREADS=1 and 8, since the determinism contract promises the
// same bits at any thread count.
//
// The helper binary path is injected at compile time
// (AUTOCE_CRASH_HELPER_PATH, see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/snapshot.h"

namespace autoce {
namespace {

struct RunResult {
  int exit_code = -1;
  bool signaled = false;
  std::string output;
};

/// Runs `cmd` (already env-prefixed) via popen, capturing stdout.
RunResult RunCmd(const std::string& cmd) {
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else {
    r.signaled = true;
  }
  return r;
}

std::string ExtractDigest(const std::string& output) {
  size_t pos = output.find("DIGEST ");
  if (pos == std::string::npos) return "";
  return output.substr(pos + 7, 16);
}

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  auto store = util::SnapshotStore::Open(dir);
  if (store.ok()) {
    for (uint64_t g : store->ListGenerations()) {
      std::remove(store->GenerationPath(g).c_str());
    }
    std::remove((dir + "/MANIFEST").c_str());
    std::remove((dir + "/MANIFEST.tmp").c_str());
  }
  return dir;
}

std::string HelperCmd(const std::string& dir, int threads,
                      const std::string& killpoints, bool resume) {
  std::string cmd = "env -u AUTOCE_KILLPOINTS AUTOCE_THREADS=" +
                    std::to_string(threads);
  if (!killpoints.empty()) {
    cmd += " AUTOCE_KILLPOINTS=" + killpoints;
  }
  cmd += " " AUTOCE_CRASH_HELPER_PATH " --dir=" + dir;
  if (resume) cmd += " --resume";
  cmd += " 2>/dev/null";
  return cmd;
}

class KillPointSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KillPointSweepTest, EverySiteResumesToBitIdenticalModel) {
  const int threads = GetParam();

  // Uninterrupted baseline.
  RunResult baseline =
      RunCmd(HelperCmd(
          FreshDir("crash_baseline_t" + std::to_string(threads)), threads,
          "", false));
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string want = ExtractDigest(baseline.output);
  ASSERT_EQ(want.size(), 16u) << baseline.output;

  for (const char* site : util::AllKillSites()) {
    // The adapt.* sites fire on the online-adaptation path, which this
    // helper never takes — adapt_crash_recovery_test.cc sweeps them.
    if (std::string(site).rfind("adapt.", 0) == 0) continue;
    std::string dir =
        FreshDir(std::string("crash_") + site + "_t" +
                 std::to_string(threads));

    // 1. The armed run must die at the site with the kill exit code.
    RunResult killed = RunCmd(HelperCmd(dir, threads, site, false));
    ASSERT_EQ(killed.exit_code, util::kKillExitCode)
        << site << ": expected the kill point to fire, got exit "
        << killed.exit_code << "\n" << killed.output;

    // 2. The restarted run resumes from the last durable checkpoint and
    //    must reach the exact same final model.
    RunResult resumed = RunCmd(HelperCmd(dir, threads, "", true));
    ASSERT_EQ(resumed.exit_code, 0) << site << "\n" << resumed.output;
    EXPECT_EQ(ExtractDigest(resumed.output), want) << site;
  }
}

TEST_P(KillPointSweepTest, RepeatedKillsStillConvergeToBaseline) {
  // Kill at the advisor checkpoint with p = 0.5: the run dies at a
  // pseudo-random (but seed-deterministic) checkpoint. Resume, killing
  // again, until a run survives — progress is monotone because every
  // resume starts from a later-or-equal durable generation.
  const int threads = GetParam();
  RunResult baseline =
      RunCmd(HelperCmd(
          FreshDir("crash_repeat_base_t" + std::to_string(threads)), threads,
          "", false));
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string want = ExtractDigest(baseline.output);

  std::string dir = FreshDir("crash_repeat_t" + std::to_string(threads));
  std::string spec = std::string(util::kill_sites::kAdvisorCheckpoint) +
                     ":0.5";
  RunResult first = RunCmd(HelperCmd(dir, threads, spec, false));
  ASSERT_TRUE(first.exit_code == 0 ||
              first.exit_code == util::kKillExitCode)
      << first.exit_code;
  int attempts = 0;
  RunResult last = first;
  while (last.exit_code == util::kKillExitCode && attempts < 16) {
    last = RunCmd(HelperCmd(dir, threads, spec, true));
    ++attempts;
  }
  ASSERT_EQ(last.exit_code, 0) << "never survived after " << attempts
                               << " resumes\n" << last.output;
  EXPECT_EQ(ExtractDigest(last.output), want);
}

INSTANTIATE_TEST_SUITE_P(Threads, KillPointSweepTest,
                         ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace autoce
