// Shared plumbing of the opbench workloads: options, the per-run report,
// timing and medians. Every workload drives the program only
// through its public headers and times the calls from here.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace opbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Median of an unsorted sample; 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lanes of every parallel section (the machine the figures come from has 4).
inline constexpr std::size_t kLanes = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 2018;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run hands back to main(): operation accounting, correctness
/// violations, and every metric it measured (by BENCHMARK.json name).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, double> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok && violations.size() < 20) violations.push_back(what);
  }
};

/// Timed set-ups per run; their median is `setup_s`.
inline constexpr int kSetups = 5;

/// Median wall in seconds of `times` cold runs of `setup`. Each of the first
/// `times - 1` runs happens in a forked child of this process, which has not
/// set up yet, so process-global lazy caches (such as the Gaussian
/// peak-statistics memo) are filled inside every timed run; the last run
/// happens here and its state is kept. Call it before any thread is
/// started. Returns NaN, which main() reports as a failed check, when a
/// child cannot be started or does not report.
inline double cold_setup_s(int times, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 1; i < times; ++i) {
    int fd[2];
    if (pipe(fd) != 0) return std::nan("");
    const pid_t pid = fork();
    if (pid == 0) {
      close(fd[0]);
      const auto t0 = Clock::now();
      setup();
      const double sec = ms_since(t0) / 1000.0;
      _exit(write(fd[1], &sec, sizeof sec) == sizeof sec ? 0 : 1);
    }
    close(fd[1]);
    double sec = std::nan("");
    const bool got = pid > 0 && read(fd[0], &sec, sizeof sec) == sizeof sec;
    close(fd[0]);
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nan("");
    s.push_back(sec);
  }
  const auto t0 = Clock::now();
  setup();
  s.push_back(ms_since(t0) / 1000.0);
  return median(s);
}

Report run_svc_day(const Options& opt);
Report run_acrr_plan(const Options& opt);
Report run_mc_sla_risk(const Options& opt);

}  // namespace opbench
