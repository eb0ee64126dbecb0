// The two workloads. Each fills a Report with every metric it measures
// and records spans into the log when the run is traced.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;  ///< per-run temporary directory (tune cache)
};

void run_spmv_cache(const RunOptions& o, const Machine& m, Report& rep,
                    SpanLog& log);
void run_serve_churn(const RunOptions& o, const Machine& m, Report& rep,
                     SpanLog& log);

}  // namespace perfbench
