// Baseline selection for benchstat: which committed BENCH_<n>.json a new
// run is diffed against.

#pragma once

#include <string>

namespace tp::bench {

/// The BENCH_<n>.json in `dir` with the largest number n, skipping the
/// file named like `out` (the run's own output).  Names whose suffix is
/// not a plain decimal number (BENCH_ci.json) are ignored, and n compares
/// as a number, so BENCH_14.json wins over BENCH_9.json.  Returns the
/// path, or "" when no such file exists.
std::string find_baseline(const std::string& dir, const std::string& out);

}  // namespace tp::bench
