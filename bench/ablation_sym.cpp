// Ablation: conflict-window vs private-y reduction for the symmetric
// formats (sym-csr, sym-csr-vi), on banded symmetric inputs.
//
// The SSS scatter makes multithreaded symmetric SpMV pay a reduction:
// the classic scheme gives every thread a private full-length y and
// folds all of them afterwards, moving ~(2T+1)*8*nrows bytes per run
// regardless of the matrix. The conflict-window scheme bounds each
// thread's scatter reach instead: thread t only ever scatters into
// [win_begin_t, row_begin_t), so the reduction folds just those window
// rows (~32 bytes each: zero, scatter, read, add). On banded matrices
// the windows are a band-width sliver of the private traffic — that
// ratio is this ablation's headline column.
//
// Rows are format x reduce x threads per matrix; "reduce B/run" is the
// closed-form reduction traffic above (the compute phase is identical
// in both modes), "cut" the private/window ratio. A scalar-tier
// verification pass precedes the sweep: window and private results
// must be bit-identical (both fold the same per-thread partial sums in
// the same order), so the two reduction schemes are interchangeable by
// construction; both are held to 1e-12 of serial.
//
// JSONL (under SPC_METRICS) carries "sym_reduce", "sym_window_frac",
// and "reduce_ns"; profile_report turns reduce_ns into a share of the
// timed loop per cell.
//
// A second table sets symmetric storage (§III-C, Lee et al.) against
// the paper's compression formats on the same inputs: size relative to
// CSR plus serial and top-thread-count time for CSR, CSR-DU, CSR-VI and
// both symmetric formats. SSS halves index *and* value data — the
// largest working-set cut available — but pays the scatter and, when
// multithreaded, the reduction above.
//
// Usage: ablation_sym [--smoke] [--gate]
//   --smoke: two small matrices, few iterations — CI wiring check.
//   --gate:  exit 1 unless, on every banded cell at the highest thread
//            count, the window cut is >= 4x and window ns/nnz is within
//            10% of private (it should simply win; the headroom absorbs
//            smoke-length timing noise).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

// A + A^T: numerically symmetric by construction; pooled source values
// keep the sum pool small, so the -vi variant stays applicable.
Triplets symmetrized(const Triplets& a) {
  Triplets s(a.nrows(), a.ncols());
  for (const Entry& e : a.entries()) {
    s.add(e.row, e.col, e.val);
    s.add(e.col, e.row, e.val);
  }
  s.sort_and_combine();
  return s;
}

struct SymCase {
  std::string name;
  Triplets mat;
};

std::vector<SymCase> build_cases(bool smoke) {
  std::vector<SymCase> cases;
  Rng rng(404);
  if (smoke) {
    cases.push_back({"band-sym-s",
                     symmetrized(gen_banded(20000, 40, 20, rng,
                                            ValueModel::pooled(8)))});
    cases.push_back({"lap2d-s", gen_laplacian_2d(120, 120)});
  } else {
    cases.push_back({"band-sym-m",
                     symmetrized(gen_banded(200000, 60, 24, rng,
                                            ValueModel::pooled(8)))});
    cases.push_back({"band-sym-wide",
                     symmetrized(gen_banded(100000, 400, 30, rng,
                                            ValueModel::pooled(12)))});
    cases.push_back({"lap2d-m", gen_laplacian_2d(500, 500)});
    cases.push_back({"stencil9-m", gen_stencil_9pt(400, 400)});
  }
  return cases;
}

// Closed-form reduction traffic per run (bytes). The compute phase is
// identical under both modes, so this is the whole difference.
double reduce_bytes(const SpmvInstance& inst, std::size_t threads) {
  const double n = static_cast<double>(inst.nrows());
  if (inst.sym_reduce() == SymReduce::kPrivate) {
    // Zero T private copies, read them all back, write y once.
    return (2.0 * static_cast<double>(threads) + 1.0) * 8.0 * n;
  }
  // Zero, scatter, read, and fold each window row.
  return 32.0 * static_cast<double>(inst.sym_window_rows());
}

// Scalar-tier agreement: window and private must be *bit-identical*
// (both fold the same per-thread partial sums in ascending thread
// order), and both must sit within 1e-12 relative error of serial (the
// per-thread grouping reassociates foreign scatter contributions, so
// exact equality with serial is not a property either scheme has).
bool verify_bits(const SymCase& sc, Format fmt, std::size_t threads) {
  ::setenv("SPC_ISA", "scalar", 1);
  Rng rng(7);
  const Vector x = random_vector(sc.mat.ncols(), rng);
  InstanceOptions base;
  base.pin_threads = false;

  SpmvInstance serial(sc.mat, fmt, 1, base);
  Vector y_serial(sc.mat.nrows(), 0.0);
  serial.run(x, y_serial);

  bool ok = true;
  Vector y_win;
  for (const SymReduce mode : {SymReduce::kWindow, SymReduce::kPrivate}) {
    InstanceOptions opts = base;
    opts.sym_reduce = mode;
    SpmvInstance inst(sc.mat, fmt, threads, opts);
    Vector y(sc.mat.nrows(), std::numeric_limits<double>::quiet_NaN());
    inst.run(x, y);
    double num = 0.0;
    double den = 0.0;
    for (index_t r = 0; r < sc.mat.nrows(); ++r) {
      num = std::max(num, std::abs(y[r] - y_serial[r]));
      den = std::max(den, std::abs(y_serial[r]));
    }
    if (den > 0.0 && num / den > 1e-12) {
      std::cout << "CHECK FAIL: " << sc.name << " " << format_name(fmt)
                << " x" << threads << " " << sym_reduce_name(mode)
                << " rel error vs serial = " << (num / den) << "\n";
      ok = false;
    }
    if (mode == SymReduce::kWindow) {
      y_win = y;
    } else {
      for (index_t r = 0; r < sc.mat.nrows(); ++r) {
        if (y[r] != y_win[r]) {
          std::cout << "BITCHECK FAIL: " << sc.name << " "
                    << format_name(fmt) << " x" << threads
                    << " window and private disagree at row " << r << "\n";
          ok = false;
          break;
        }
      }
    }
  }
  ::unsetenv("SPC_ISA");
  return ok;
}

// Storage comparison: size/csr and serial vs top-thread-count time.
void print_storage_table(const std::vector<SymCase>& cases,
                         const BenchConfig& cfg, std::size_t max_threads) {
  std::string mt_col = "x";
  mt_col += std::to_string(max_threads);
  mt_col += " ms";
  TextTable table({"matrix", "format", "size/csr", "serial ms", mt_col});
  for (const SymCase& sc : cases) {
    InstanceOptions opts;
    opts.pin_threads = cfg.pin_threads;
    double csr_bytes = 0.0;
    for (const Format f : {Format::kCsr, Format::kCsrDu, Format::kCsrVi,
                           Format::kSymCsr, Format::kSymCsrVi}) {
      SpmvInstance s1(sc.mat, f, 1, opts);
      SpmvInstance sn(sc.mat, f, max_threads, opts);
      const auto bytes = static_cast<double>(s1.matrix_bytes());
      if (f == Format::kCsr) {
        csr_bytes = bytes;
      }
      table.add_row(
          {sc.name, format_name(f), fmt_fixed(bytes / csr_bytes, 2),
           fmt_fixed(time_spmv(s1, cfg.iterations, cfg.warmup) * 1e3, 2),
           fmt_fixed(time_spmv(sn, cfg.iterations, cfg.warmup) * 1e3, 2)});
    }
  }
  std::cout << "\nStorage: symmetric (SSS) vs CSR / CSR-DU / CSR-VI\n";
  table.print(std::cout);
}

int run(bool smoke, bool gate) {
  // The sweep sets the reduction mode programmatically; a stray
  // environment override would collapse every cell to one scheme.
  ::unsetenv("SPC_SYM_REDUCE");

  BenchConfig cfg = BenchConfig::from_env();
  if (smoke) {
    cfg.iterations = 16;
    cfg.warmup = 2;
    cfg.pin_threads = false;  // CI runners are often core-starved
  }
  std::size_t max_threads = 1;
  for (const std::size_t n : cfg.threads) {
    max_threads = std::max(max_threads, n);
  }
  std::cout << "=== Ablation: symmetric reduction (conflict window vs "
               "private y) ===\n["
            << cfg.describe() << (smoke ? ", smoke" : "") << "]\n";

  const std::vector<SymCase> cases = build_cases(smoke);
  const Format formats[] = {Format::kSymCsr, Format::kSymCsrVi};

  TextTable table({"matrix", "format", "reduce", "threads", "ns/nnz",
                   "reduce B/run", "cut", "win frac", "reduce share"});
  bool gates_ok = true;

  for (const SymCase& sc : cases) {
    // Correctness first: the timing rows below only mean something if
    // the schemes agree bit-for-bit.
    for (const Format fmt : formats) {
      if (!verify_bits(sc, fmt, max_threads)) {
        gates_ok = false;
      }
    }

    MatrixCase mc;
    mc.name = sc.name;
    mc.cls = "symmetric";
    mc.mat = sc.mat;

    for (const Format fmt : formats) {
      for (const std::size_t n : cfg.threads) {
        if (n < 2) {
          continue;  // both schemes are the serial kernel at T=1
        }
        double private_ns_nnz = 0.0;
        double private_bytes = 0.0;
        for (const SymReduce mode :
             {SymReduce::kPrivate, SymReduce::kWindow}) {
          InstanceOptions opts;
          opts.pin_threads = cfg.pin_threads;
          opts.sym_reduce = mode;
          SpmvInstance inst(sc.mat, fmt, n, opts);
          RunMetrics m =
              time_spmv_metrics(inst, cfg.iterations, cfg.warmup);
          // Median per-iteration sample: robust to the scheduling
          // hiccups that dominate short oversubscribed smoke runs.
          std::vector<double> samples = m.sample_seconds;
          std::sort(samples.begin(), samples.end());
          const double med =
              samples.empty() ? 0.0 : samples[samples.size() / 2];
          const double ns_nnz =
              inst.nnz() > 0
                  ? med * 1e9 / static_cast<double>(inst.nnz())
                  : 0.0;
          const double rbytes = reduce_bytes(inst, n);
          const double cut =
              mode == SymReduce::kWindow && rbytes > 0.0
                  ? private_bytes / rbytes
                  : 0.0;
          const double reduce_share =
              m.seconds > 0.0
                  ? static_cast<double>(m.reduce_ns) * 1e-9 / m.seconds
                  : 0.0;
          table.add_row(
              {sc.name, format_name(fmt),
               sym_reduce_name(inst.sym_reduce()), std::to_string(n),
               fmt_fixed(ns_nnz, 3), fmt_fixed(rbytes, 0),
               mode == SymReduce::kWindow
                   ? (rbytes > 0.0 ? fmt_fixed(cut, 1) + "x" : "inf")
                   : "-",
               fmt_fixed(m.sym_window_frac, 3),
               fmt_fixed(reduce_share, 3)});
          emit_metrics_record("ablation_sym", mc, inst, m, 0.0, {});

          if (mode == SymReduce::kPrivate) {
            private_ns_nnz = ns_nnz;
            private_bytes = rbytes;
          } else if (gate && n == max_threads &&
                     sc.name.rfind("band", 0) == 0) {
            // The acceptance gate: on banded inputs at the top thread
            // count the window scheme must cut reduction bytes >= 4x
            // and must not cost throughput against private-y.
            if (rbytes > 0.0 && cut < 4.0) {
              std::cout << "GATE FAIL: " << sc.name << " "
                        << format_name(fmt) << " x" << n
                        << " reduction cut " << fmt_fixed(cut, 1)
                        << "x < 4x\n";
              gates_ok = false;
            }
            if (private_ns_nnz > 0.0 && ns_nnz > private_ns_nnz * 1.10) {
              std::cout << "GATE FAIL: " << sc.name << " "
                        << format_name(fmt) << " x" << n << " window "
                        << fmt_fixed(ns_nnz, 3) << " ns/nnz > private "
                        << fmt_fixed(private_ns_nnz, 3) << " * 1.10\n";
              gates_ok = false;
            }
          }
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nnote: \"reduce B/run\" is the closed-form reduction "
               "traffic ((2T+1)*8*nrows private, 32*window_rows window); "
               "the compute phase is identical in both modes. \"cut\" is "
               "private/window. \"reduce share\" is the reduction phase's "
               "share of the timed loop. Scalar-tier window/private "
               "bit-identity (and 1e-12 agreement with serial) is "
               "checked before timing.\n";
  print_storage_table(cases, cfg, max_threads);
  if (gate) {
    std::cout << (gates_ok ? "\nGATES PASS\n" : "\nGATES FAIL\n");
  }
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace spc

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else {
      std::cerr << "usage: ablation_sym [--smoke] [--gate]\n";
      return 2;
    }
  }
  return spc::run(smoke, gate);
}
