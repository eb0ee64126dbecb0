// Ablation: execution backend — the paper's pthread-style persistent
// pinned pool vs OpenMP parallel regions. Same partitions, same kernels;
// only the dispatch/join mechanism differs, so the delta is pure runtime
// overhead (relevant for small matrices where a dispatch costs a
// noticeable fraction of one SpMV). Each column is the median of the
// per-run samples, robust to a preempted run.
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/support/stats.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

void run() {
  BenchConfig cfg = BenchConfig::from_env();
  cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 6;
  std::cout << "=== Ablation: thread-pool vs OpenMP dispatch ===\n["
            << cfg.describe() << "]"
            << (openmp_available() ? "" : " (OpenMP NOT available: both "
                                          "columns use the pool)")
            << "\n";

  TextTable table({"matrix", "threads", "pool us", "openmp us",
                   "pool/openmp"});
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    for (const std::size_t n : {2u, 4u, 8u}) {
      InstanceOptions pool;
      pool.pin_threads = cfg.pin_threads;
      pool.backend = Backend::kPool;
      SpmvInstance inst_pool(mc.mat, Format::kCsr, n, pool);
      const double t_pool = median(
          time_spmv_metrics(inst_pool, cfg.iterations, cfg.warmup)
              .sample_seconds);

      InstanceOptions omp;
      omp.backend = Backend::kOpenMP;
      omp.pin_threads = false;
      SpmvInstance inst_omp(mc.mat, Format::kCsr, n, omp);
      const double t_omp = median(
          time_spmv_metrics(inst_omp, cfg.iterations, cfg.warmup)
              .sample_seconds);

      table.add_row({mc.name, std::to_string(n),
                     fmt_fixed(t_pool * 1e6, 1),
                     fmt_fixed(t_omp * 1e6, 1),
                     fmt_fixed(t_omp > 0 ? t_pool / t_omp : 0.0, 2)});
    }
  });
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace spc

int main() {
  spc::run();
  return 0;
}
