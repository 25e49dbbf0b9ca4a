#include "tools/bench_baseline.h"

#include <filesystem>

#include "src/util/math.h"

namespace tp::bench {

namespace {

/// n for a name "BENCH_<n>.json" with 1-18 decimal digits; -1 otherwise.
i64 bench_number(const std::string& name) {
  const std::string prefix = "BENCH_";
  const std::string suffix = ".json";
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return -1;
  const std::string digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.size() > 18) return -1;
  i64 n = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    n = n * 10 + (c - '0');
  }
  return n;
}

}  // namespace

std::string find_baseline(const std::string& dir, const std::string& out) {
  namespace fs = std::filesystem;
  std::string best;
  i64 best_n = -1;
  if (!fs::is_directory(dir)) return best;
  const std::string out_name = fs::path(out).filename().string();
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == out_name) continue;
    const i64 n = bench_number(name);
    if (n > best_n) {
      best_n = n;
      best = entry.path().string();
    }
  }
  return best;
}

}  // namespace tp::bench
