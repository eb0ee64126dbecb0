// The per-format table behind SpmvInstance (internal header).
//
// Every storage format has exactly one entry in format_ops.cpp: an
// encoder plus a FormatOps object that owns the encoded matrix and
// answers everything the instance's generic runtime asks of a format —
//   * the per-unit cost profile its partition and chunk plan balance,
//   * its capabilities: work stealing, the reduction its
//     multithreaded runs need, tiling, NUMA repacking,
//   * the arrays a generic NUMA repack copies per worker, and the span
//     of each that a unit range reads,
//   * its tiled-store spec,
//   * bind(): the kernel closures over a list of unit ranges.
// SpmvInstance drives these hooks and names no format itself, so adding
// a format is one enumerator in instance.hpp, one entry here, and its
// kernels.
//
// Units are what the format partitions: rows for most formats, block
// rows for BCSR, columns for CSC, permuted row positions for JDS.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "spc/formats/csr_du.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/parallel/kernel_binding.hpp"
#include "spc/parallel/partition.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/spmv/sym_spmv.hpp"
#include "spc/spmv/tiling.hpp"
#include "spc/support/aligned.hpp"

namespace spc {

enum class Format;
struct InstanceOptions;

namespace detail {

inline constexpr std::size_t kMaxArrays = 6;

/// The execution arrays one bound closure reads, in the order of the
/// format's repack_arrays() (or TiledArray order for tiled bindings).
/// Each pointer indexes with the same absolute positions as the shared
/// array: it is the shared array itself or a worker's rebased arena
/// copy (support/first_touch.hpp rebase_ptr), so one closure body
/// serves both.
using ArraySet = std::array<const void*, kMaxArrays>;

/// One array the generic NUMA repack may copy per worker, with the rule
/// that maps a unit range [b, e) to the element span it reads.
struct RepackArray {
  enum class Rule : std::uint8_t {
    kRowPtr,  ///< [b, e + 1): the format's row pointer
    kUnits,   ///< [b * per, e * per): `per` elements per unit
    kNnz,     ///< [rp[b] * per, rp[e] * per) through the kRowPtr array
    kShared,  ///< never copied (small read-shared tables)
    kCustom,  ///< computed by the format's spans() override
  };
  const void* base = nullptr;
  std::size_t elem = 0;  ///< bytes per element
  Rule rule = Rule::kNnz;
  usize_t per = 1;
};

/// Element span [lo, hi) of one array.
struct Span {
  usize_t lo = 0;
  usize_t hi = 0;
};
using SpanSet = std::array<Span, kMaxArrays>;

/// Array order of the tiled store's ArraySet (absent arrays are null).
enum TiledArray : std::size_t { kSegPtr, kSegRow, kCol, kVal, kVi, kCtl };

/// One unit range to bind, over `arrays`. The symmetric kernels scatter
/// columns below direct_begin into win[c - win_begin]; direct_begin ==
/// 0 sends every scatter to the y the closure is handed.
struct BindRange {
  index_t begin = 0;
  index_t end = 0;
  ArraySet arrays{};
  value_t* win = nullptr;
  index_t win_begin = 0;
  index_t direct_begin = 0;
};

/// How the workers of a multithreaded run combine their results.
enum class Reduce : std::uint8_t {
  kNone,     ///< disjoint rows of y, written directly
  kPrivate,  ///< full-length private y per worker, summed afterwards
  kSym,      ///< symmetric scatter: conflict windows or private y
};

/// Closures bound from an entry point into it, so it neither copies nor
/// moves; the instance holds it by unique_ptr.
class FormatOps {
 public:
  FormatOps() = default;
  FormatOps(const FormatOps&) = delete;
  FormatOps& operator=(const FormatOps&) = delete;
  virtual ~FormatOps() = default;

  /// Per-thread work is a unit range of one kernel writing only its own
  /// rows of y, so multithreaded runs split it into chunks that any
  /// worker may steal.
  virtual bool stealable() const { return false; }
  virtual Reduce reduce() const { return Reduce::kNone; }

  virtual usize_t bytes() const = 0;
  virtual index_t units() const = 0;
  /// Cost prefix over units (units() + 1 entries) for the partition and
  /// the chunk plan. Default: true non-zeros per row, from `t`.
  virtual aligned_vector<index_t> costs(const Triplets& t) const;

  /// Arrays the NUMA repack copies per worker; empty when the format
  /// only runs over its shared arrays.
  virtual std::vector<RepackArray> repack_arrays() const { return {}; }
  /// Spans of repack_arrays() read by each consecutive range
  /// bounds[i]..bounds[i+1].
  virtual std::vector<SpanSet> spans(const std::vector<index_t>& bounds) const;
  /// Bytes of the read-shared tables (kShared arrays), which a tiled
  /// store does not replace.
  virtual usize_t table_bytes() const { return 0; }

  /// Fills the tiled-store spec; false when the format has no tiled
  /// execution path.
  virtual bool tile_spec(TiledStoreSpec*) const { return false; }

  /// One closure per range. Ranges are consecutive (each begins where
  /// the previous ends); closures capture heap data and PODs only.
  virtual std::vector<BoundKernel> bind(
      const KernelTable& kt, const std::vector<BindRange>& ranges) const = 0;
  /// bind() over tiled-store block ranges (arrays in TiledArray order).
  virtual std::vector<BoundKernel> bind_tiled(
      const KernelTable&, const TiledStore&,
      const std::vector<BindRange>&) const {
    return {};
  }
  /// The full-matrix closure over the shared arrays.
  virtual BoundKernel bind_serial(const KernelTable& kt) const;

  /// Conflict-window plan (Reduce::kSym formats only).
  virtual SymWindowPlan plan_windows(const RowPartition&, std::size_t,
                                     SymReduce) const {
    return {};
  }
  /// Unit-class histogram of the ctl stream (DU formats; else null).
  virtual const CsrDu::UnitHistogram* du_histogram() const {
    return nullptr;
  }
};

/// Encodes `t` in `f` and returns its table entry.
std::unique_ptr<FormatOps> encode_format(Format f, const Triplets& t,
                                         const InstanceOptions& opts);

/// The base pointers of `arrays`, as an ArraySet.
ArraySet bases(const std::vector<RepackArray>& arrays);

/// The tiled store's arrays, in TiledArray order (absent ones null).
std::vector<RepackArray> tiled_arrays(const TiledStore& s);

/// Spans of tiled_arrays() read by blocks [b0, b1).
SpanSet tiled_spans(const TiledStore& s, std::size_t b0, std::size_t b1);

}  // namespace detail
}  // namespace spc
