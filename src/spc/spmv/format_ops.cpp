#include "spc/spmv/format_ops.hpp"

#include <algorithm>
#include <tuple>
#include <type_traits>
#include <utility>

#include "spc/formats/bcsr.hpp"
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace detail {
namespace {

using Kind = RepackArray::Rule;

// DU streams with short units (avg elements/unit below this) stay on the
// scalar decoder even at vector tiers. The vector decode pays per 4-block
// for serial delta resolution plus a gather; the scalar decoder's 4-deep
// unrolled index chain beats it until units run well past vector width
// (measured crossover ~12 on the small corpus: 9-elem stencil units lose
// up to 25%, 18+-elem FEM-block units win 10–25%).
constexpr double kDuVectorMinAvgUnitElems = 12.0;

// The vector decoder's engagement gate. RLE units vectorize without any
// serial delta resolution (contiguous loads / strided gathers), so a
// stream whose elements are mostly RLE engages regardless of unit
// length; otherwise the explicit-delta remainder must clear the
// avg-elems crossover on its own — a pooled average would let a few
// long RLE runs drag short delta units onto the losing vector path.
bool du_vector_profitable(const CsrDu::UnitHistogram& h) {
  if (h.nnz == 0) {
    return false;
  }
  if (static_cast<double>(h.rle_elems) >=
      0.5 * static_cast<double>(h.nnz)) {
    return true;
  }
  const usize_t rest_units = h.units - h.rle_units;
  const usize_t rest_elems = h.nnz - h.rle_elems;
  return rest_units != 0 && static_cast<double>(rest_elems) >=
                                kDuVectorMinAvgUnitElems *
                                    static_cast<double>(rest_units);
}

/// The DU kernel table: the vector tier when the stream profits from
/// it, the scalar one otherwise.
const KernelTable& du_table(const KernelTable& kt,
                            const CsrDu::UnitHistogram& h) {
  return du_vector_profitable(h) ? kt : kernel_table(IsaTier::kScalar);
}

template <typename... A, std::size_t... I>
std::tuple<const A*...> typed(const ArraySet& a,
                              std::index_sequence<I...>) {
  return {static_cast<const A*>(a[I])...};
}

/// Binds fn(arrays..., x, y, begin, end) over each range, with the first
/// sizeof...(A) arrays cast to const A*.
template <typename... A, typename Fn>
std::vector<BoundKernel> bind_rows(const std::vector<BindRange>& ranges,
                                   Fn fn) {
  std::vector<BoundKernel> out;
  out.reserve(ranges.size());
  for (const BindRange& r : ranges) {
    const auto arrs = typed<A...>(r.arrays, std::index_sequence_for<A...>{});
    const index_t b = r.begin;
    const index_t e = r.end;
    out.push_back([=](const value_t* x, value_t* y) {
      std::apply([&](const auto*... a) { fn(a..., x, y, b, e); }, arrs);
    });
  }
  return out;
}

/// bind_rows for the symmetric kernels, which also take the range's
/// conflict-window parameters (see spmv_sym_csr_win).
template <typename... A, typename Fn>
std::vector<BoundKernel> bind_sym(const std::vector<BindRange>& ranges,
                                  Fn fn) {
  std::vector<BoundKernel> out;
  out.reserve(ranges.size());
  for (const BindRange& r : ranges) {
    const auto arrs = typed<A...>(r.arrays, std::index_sequence_for<A...>{});
    const BindRange p = r;
    out.push_back([=](const value_t* x, value_t* y) {
      std::apply(
          [&](const auto*... a) {
            fn(a..., x, y, p.win, p.win_begin, p.direct_begin, p.begin,
               p.end);
          },
          arrs);
    });
  }
  return out;
}

/// Calls f(IndT{}) with the value-index type of width w.
template <typename F>
auto with_width(ViWidth w, F&& f) {
  switch (w) {
    case ViWidth::kU8:
      return f(std::uint8_t{});
    case ViWidth::kU16:
      return f(std::uint16_t{});
    case ViWidth::kU32:
      break;
  }
  return f(std::uint32_t{});
}

/// The IndT entry of a per-width kernel triple.
template <typename IndT, typename F8, typename F16, typename F32>
auto by_width(F8 f8, F16 f16, F32 f32) {
  if constexpr (sizeof(IndT) == 1) {
    return f8;
  } else if constexpr (sizeof(IndT) == 2) {
    return f16;
  } else {
    return f32;
  }
}

/// Tiled CSR-family closures: per block, zero its y rows, then run its
/// segments as seg(arrays, x, y, seg_begin, seg_end).
template <typename Seg>
std::vector<BoundKernel> bind_segments(const TiledStore& s,
                                       const std::vector<BindRange>& ranges,
                                       Seg seg) {
  const TileBlock* const blocks = s.blocks.data();
  std::vector<BoundKernel> out;
  out.reserve(ranges.size());
  for (const BindRange& r : ranges) {
    const ArraySet a = r.arrays;
    const auto b0 = static_cast<std::size_t>(r.begin);
    const auto b1 = static_cast<std::size_t>(r.end);
    out.push_back([=](const value_t* x, value_t* y) {
      for (std::size_t b = b0; b < b1; ++b) {
        const TileBlock& blk = blocks[b];
        std::fill(y + blk.row_begin, y + blk.row_end, 0.0);
        seg(a, x, y, blk.seg_begin, blk.seg_end);
      }
    });
  }
  return out;
}

/// Tiled DU-family closures: per block, zero its y rows, then decode its
/// tiles in stripe order as dec(arrays, slice, x + stripe base, y + block
/// base). Each closure carries the slices of its own tiles, addressed
/// through its arrays.
template <typename Dec>
std::vector<BoundKernel> bind_tiles(const TiledStore& s,
                                    const std::vector<BindRange>& ranges,
                                    Dec dec) {
  const TileBlock* const blocks = s.blocks.data();
  const StripeTile* const tiles = s.tiles.data();
  std::vector<BoundKernel> out;
  out.reserve(ranges.size());
  for (const BindRange& r : ranges) {
    const ArraySet a = r.arrays;
    const auto b0 = static_cast<std::size_t>(r.begin);
    const auto b1 = static_cast<std::size_t>(r.end);
    const usize_t t0 = b0 < b1 ? blocks[b0].tile_begin : 0;
    std::vector<CsrDu::Slice> slices;
    for (std::size_t b = b0; b < b1; ++b) {
      const TileBlock& blk = blocks[b];
      for (usize_t ti = blk.tile_begin; ti < blk.tile_end; ++ti) {
        const StripeTile& tile = tiles[ti];
        CsrDu::Slice sl;
        sl.ctl = static_cast<const std::uint8_t*>(a[kCtl]) + tile.ctl_begin;
        sl.ctl_end = static_cast<const std::uint8_t*>(a[kCtl]) + tile.ctl_end;
        sl.values = a[kVal] != nullptr
                        ? static_cast<const value_t*>(a[kVal]) + tile.val_begin
                        : nullptr;
        sl.val_offset = tile.val_begin;
        sl.row_end = blk.row_end - blk.row_begin;
        sl.nnz = tile.nnz;
        slices.push_back(sl);
      }
    }
    out.push_back([=](const value_t* x, value_t* y) {
      for (std::size_t b = b0; b < b1; ++b) {
        const TileBlock& blk = blocks[b];
        std::fill(y + blk.row_begin, y + blk.row_end, 0.0);
        value_t* const yb = y + blk.row_begin;
        for (usize_t ti = blk.tile_begin; ti < blk.tile_end; ++ti) {
          dec(a, slices[ti - t0], x + tiles[ti].x_base, yb);
        }
      }
    });
  }
  return out;
}

/// Prefix of the per-row non-zero counts of `t`.
aligned_vector<index_t> row_nnz_prefix(const Triplets& t) {
  aligned_vector<index_t> rp(t.nrows() + 1, 0);
  for (const Entry& e : t.entries()) {
    ++rp[e.row + 1];
  }
  for (index_t r = 0; r < t.nrows(); ++r) {
    rp[r + 1] += rp[r];
  }
  return rp;
}

/// The slices of consecutive ranges (the stream's full slice when one
/// range covers every row, which needs no ctl scan).
std::vector<CsrDu::Slice> du_slices(const CsrDu& du,
                                    const std::vector<BindRange>& ranges) {
  if (ranges.size() == 1 && ranges[0].begin == 0 &&
      ranges[0].end == du.nrows()) {
    return {du.full()};
  }
  std::vector<index_t> bounds;
  bounds.reserve(ranges.size() + 1);
  bounds.push_back(ranges.empty() ? 0 : ranges[0].begin);
  for (const BindRange& r : ranges) {
    bounds.push_back(r.end);
  }
  return du.slices(bounds);
}

/// DU repack spans: the ctl bytes at [0], the element span at [1].
std::vector<SpanSet> du_spans(const CsrDu& du,
                              const std::vector<index_t>& bounds) {
  const std::uint8_t* const ctl0 = du.ctl().data();
  std::vector<SpanSet> out;
  for (const CsrDu::Slice& s : du.slices(bounds)) {
    SpanSet sp{};
    sp[0] = {static_cast<usize_t>(s.ctl - ctl0),
             static_cast<usize_t>(s.ctl_end - ctl0)};
    sp[1] = {s.val_offset, s.val_offset + s.nnz};
    out.push_back(sp);
  }
  return out;
}

/// Points a slice of `du` at the ctl stream a[0] and, when the slice
/// carries values, the value array a[1].
CsrDu::Slice du_relocate(CsrDu::Slice s, const CsrDu& du,
                         const ArraySet& a) {
  const auto* const ctl = static_cast<const std::uint8_t*>(a[0]);
  s.ctl = ctl + (s.ctl - du.ctl().data());
  s.ctl_end = ctl + (s.ctl_end - du.ctl().data());
  if (s.values != nullptr) {
    s.values = static_cast<const value_t*>(a[1]) + s.val_offset;
  }
  return s;
}

// ------------------------------------------------------------------------
// The per-format entries.
// ------------------------------------------------------------------------

template <typename M>
class Holder : public FormatOps {
 public:
  explicit Holder(M m) : m_(std::move(m)) {}
  usize_t bytes() const override { return m_.bytes(); }
  index_t units() const override { return m_.nrows(); }

 protected:
  M m_;
};

/// CSR (32-bit columns, tileable) and CSR-16 (16-bit columns: they
/// already bound the index working set, so it keeps the untiled path).
template <typename ColT>
class CsrOps final : public Holder<BasicCsr<ColT>> {
 public:
  using Holder<BasicCsr<ColT>>::Holder;
  bool stealable() const override { return true; }
  aligned_vector<index_t> costs(const Triplets&) const override {
    return this->m_.row_ptr();
  }
  std::vector<RepackArray> repack_arrays() const override {
    const auto& m = this->m_;
    return {{m.row_ptr().data(), sizeof(index_t), Kind::kRowPtr},
            {m.col_ind().data(), sizeof(ColT)},
            {m.values().data(), sizeof(value_t)}};
  }
  bool tile_spec(TiledStoreSpec*) const override {
    return sizeof(ColT) == sizeof(std::uint32_t);
  }
  std::vector<BoundKernel> bind(
      const KernelTable& kt,
      const std::vector<BindRange>& ranges) const override {
    if constexpr (sizeof(ColT) == sizeof(std::uint32_t)) {
      return bind_rows<index_t, ColT, value_t>(ranges, kt.csr);
    } else {
      return bind_rows<index_t, ColT, value_t>(ranges, kt.csr16);
    }
  }
  std::vector<BoundKernel> bind_tiled(
      const KernelTable& kt, const TiledStore& s,
      const std::vector<BindRange>& ranges) const override {
    const CsrSegKernelFn fn = kt.csr_seg;
    return bind_segments(
        s, ranges,
        [fn](const ArraySet& a, const value_t* x, value_t* y, usize_t sb,
             usize_t se) {
          fn(static_cast<const index_t*>(a[kSegPtr]),
             static_cast<const index_t*>(a[kSegRow]),
             static_cast<const std::uint32_t*>(a[kCol]),
             static_cast<const value_t*>(a[kVal]), x, y, sb, se);
        });
  }
};

class CsrViOps final : public Holder<CsrVi> {
 public:
  using Holder::Holder;
  bool stealable() const override { return true; }
  aligned_vector<index_t> costs(const Triplets&) const override {
    return m_.row_ptr();
  }
  std::vector<RepackArray> repack_arrays() const override {
    // The unique-value table is tiny and read-shared; it never moves.
    return {{m_.row_ptr().data(), sizeof(index_t), Kind::kRowPtr},
            {m_.col_ind().data(), sizeof(std::uint32_t)},
            {m_.val_ind_raw().data(), static_cast<std::size_t>(m_.width())},
            {m_.vals_unique().data(), sizeof(value_t), Kind::kShared}};
  }
  usize_t table_bytes() const override {
    return m_.vals_unique().size() * sizeof(value_t);
  }
  bool tile_spec(TiledStoreSpec* spec) const override {
    spec->values = false;
    spec->vi_elem = static_cast<std::size_t>(m_.width());
    spec->vi_src = m_.val_ind_raw().data();
    return true;
  }
  std::vector<BoundKernel> bind(
      const KernelTable& kt,
      const std::vector<BindRange>& ranges) const override {
    return with_width(m_.width(), [&](auto ind) {
      using IndT = decltype(ind);
      return bind_rows<index_t, std::uint32_t, IndT, value_t>(
          ranges,
          by_width<IndT>(kt.csr_vi_u8, kt.csr_vi_u16, kt.csr_vi_u32));
    });
  }
  std::vector<BoundKernel> bind_tiled(
      const KernelTable& kt, const TiledStore& s,
      const std::vector<BindRange>& ranges) const override {
    const value_t* const uq = m_.vals_unique().data();
    return with_width(m_.width(), [&](auto ind) {
      using IndT = decltype(ind);
      const auto fn = by_width<IndT>(kt.csr_vi_seg_u8, kt.csr_vi_seg_u16,
                                     kt.csr_vi_seg_u32);
      return bind_segments(
          s, ranges,
          [fn, uq](const ArraySet& a, const value_t* x, value_t* y,
                   usize_t sb, usize_t se) {
            fn(static_cast<const index_t*>(a[kSegPtr]),
               static_cast<const index_t*>(a[kSegRow]),
               static_cast<const std::uint32_t*>(a[kCol]),
               static_cast<const IndT*>(a[kVi]), uq, x, y, sb, se);
          });
    });
  }
};

/// The DU family (the paper's §IV index compression): slices of one ctl
/// stream, the unit histogram that gates the vector decoder, and the
/// encoder options the tiled store re-encodes with.
template <typename M>
class DuBase : public Holder<M> {
 public:
  DuBase(M m, const CsrDuOptions& opts)
      : Holder<M>(std::move(m)), opts_(opts), hist_(du().unit_histogram()) {}
  bool stealable() const override { return true; }
  std::vector<SpanSet> spans(
      const std::vector<index_t>& bounds) const override {
    return du_spans(du(), bounds);
  }
  const CsrDu::UnitHistogram* du_histogram() const override {
    return &hist_;
  }

 protected:
  const CsrDu& du() const {
    if constexpr (std::is_same_v<M, CsrDu>) {
      return this->m_;
    } else {
      return this->m_.du();
    }
  }

  CsrDuOptions opts_;
  CsrDu::UnitHistogram hist_;
};

/// CSR-DU and CSR-DU-RLE.
class DuOps final : public DuBase<CsrDu> {
 public:
  using DuBase::DuBase;
  std::vector<RepackArray> repack_arrays() const override {
    return {{m_.ctl().data(), 1, Kind::kCustom},
            {m_.values().data(), sizeof(value_t), Kind::kCustom}};
  }
  bool tile_spec(TiledStoreSpec* spec) const override {
    spec->du = true;
    spec->du_opts = opts_;
    return true;
  }
  std::vector<BoundKernel> bind(
      const KernelTable& kt,
      const std::vector<BindRange>& ranges) const override {
    const DuKernelFn fn = du_table(kt, hist_).du;
    const std::vector<CsrDu::Slice> sl = du_slices(m_, ranges);
    std::vector<BoundKernel> out;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const CsrDu::Slice s = du_relocate(sl[i], m_, ranges[i].arrays);
      out.push_back([=](const value_t* x, value_t* y) { fn(s, x, y); });
    }
    return out;
  }
  std::vector<BoundKernel> bind_tiled(
      const KernelTable& kt, const TiledStore& s,
      const std::vector<BindRange>& ranges) const override {
    // The gate sees the stripe-local tile streams actually decoded.
    const DuKernelFn fn = du_table(kt, s.du_hist).du_acc;
    return bind_tiles(s, ranges,
                      [fn](const ArraySet&, const CsrDu::Slice& sl,
                           const value_t* x, value_t* y) { fn(sl, x, y); });
  }
};

/// CSR-DU-VI: the DU ctl stream with values through a value index.
class DuViOps final : public DuBase<CsrDuVi> {
 public:
  using DuBase::DuBase;
  std::vector<RepackArray> repack_arrays() const override {
    return {{du().ctl().data(), 1, Kind::kCustom},
            {m_.val_ind_raw().data(), static_cast<std::size_t>(m_.width()),
             Kind::kCustom},
            {m_.vals_unique().data(), sizeof(value_t), Kind::kShared}};
  }
  usize_t table_bytes() const override {
    return m_.vals_unique().size() * sizeof(value_t);
  }
  bool tile_spec(TiledStoreSpec* spec) const override {
    spec->du = true;
    spec->du_opts = opts_;
    spec->values = false;
    spec->vi_elem = static_cast<std::size_t>(m_.width());
    spec->vi_src = m_.val_ind_raw().data();
    return true;
  }
  std::vector<BoundKernel> bind(
      const KernelTable& kt,
      const std::vector<BindRange>& ranges) const override {
    const KernelTable& dt = du_table(kt, hist_);
    const value_t* const uq = m_.vals_unique().data();
    const std::vector<CsrDu::Slice> sl = du_slices(du(), ranges);
    return with_width(m_.width(), [&](auto ind) {
      using IndT = decltype(ind);
      const auto fn = by_width<IndT>(dt.du_vi_u8, dt.du_vi_u16, dt.du_vi_u32);
      std::vector<BoundKernel> out;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        const CsrDu::Slice s = du_relocate(sl[i], du(), ranges[i].arrays);
        const auto* const vi = static_cast<const IndT*>(ranges[i].arrays[1]);
        out.push_back(
            [=](const value_t* x, value_t* y) { fn(s, vi, uq, x, y); });
      }
      return out;
    });
  }
  std::vector<BoundKernel> bind_tiled(
      const KernelTable& kt, const TiledStore& s,
      const std::vector<BindRange>& ranges) const override {
    const KernelTable& dt = du_table(kt, s.du_hist);
    const value_t* const uq = m_.vals_unique().data();
    return with_width(m_.width(), [&](auto ind) {
      using IndT = decltype(ind);
      const auto fn = by_width<IndT>(dt.du_vi_acc_u8, dt.du_vi_acc_u16,
                                     dt.du_vi_acc_u32);
      return bind_tiles(s, ranges,
                        [fn, uq](const ArraySet& a, const CsrDu::Slice& sl,
                                 const value_t* x, value_t* y) {
                          fn(sl, static_cast<const IndT*>(a[kVi]), uq, x, y);
                        });
    });
  }
};

/// Blocked CSR: units are block rows.
class BcsrOps final : public Holder<Bcsr> {
 public:
  using Holder::Holder;
  bool stealable() const override { return true; }
  index_t units() const override { return m_.nblock_rows(); }
  aligned_vector<index_t> costs(const Triplets&) const override {
    return m_.block_row_ptr();
  }
  std::vector<RepackArray> repack_arrays() const override {
    return {{m_.block_row_ptr().data(), sizeof(index_t), Kind::kRowPtr},
            {m_.block_col().data(), sizeof(index_t)},
            {m_.values().data(), sizeof(value_t), Kind::kNnz,
             static_cast<usize_t>(m_.block_rows()) *
                 static_cast<usize_t>(m_.block_cols())}};
  }
  std::vector<BoundKernel> bind(
      const KernelTable&,
      const std::vector<BindRange>& ranges) const override {
    const index_t br = m_.block_rows();
    const index_t bc = m_.block_cols();
    const index_t nr = m_.nrows();
    const index_t nc = m_.ncols();
    return bind_rows<index_t, index_t, value_t>(
        ranges, [=](const index_t* brp, const index_t* bcol,
                    const value_t* vals, const value_t* x, value_t* y,
                    index_t b, index_t e) {
          spmv_bcsr_raw(br, bc, nr, nc, brp, bcol, vals, x, y, b, e);
        });
  }
};

/// ELLPACK: row-major fixed-width rows, so a row range is one span.
class EllOps final : public Holder<Ell> {
 public:
  using Holder::Holder;
  bool stealable() const override { return true; }
  std::vector<RepackArray> repack_arrays() const override {
    const auto w = static_cast<usize_t>(m_.width());
    return {{m_.col_ind().data(), sizeof(index_t), Kind::kUnits, w},
            {m_.values().data(), sizeof(value_t), Kind::kUnits, w}};
  }
  std::vector<BoundKernel> bind(
      const KernelTable&,
      const std::vector<BindRange>& ranges) const override {
    const index_t w = m_.width();
    return bind_rows<index_t, value_t>(
        ranges, [w](const index_t* ci, const value_t* vv, const value_t* x,
                    value_t* y, index_t b, index_t e) {
          spmv_ell_raw(w, ci, vv, x, y, b, e);
        });
  }
};

/// The symmetric formats (§III-C): stored-lower-triangle costs, the
/// conflict-window reduction, and no stealing — a stolen chunk would
/// scatter into its owner's window concurrently with the owner.
template <typename M>
class SymOps : public Holder<M> {
 public:
  using Holder<M>::Holder;
  Reduce reduce() const override { return Reduce::kSym; }
  aligned_vector<index_t> costs(const Triplets&) const override {
    return this->m_.row_ptr();
  }
  SymWindowPlan plan_windows(const RowPartition& p, std::size_t nthreads,
                             SymReduce requested) const override {
    return plan_sym_windows(this->m_.row_ptr().data(),
                            this->m_.col_ind().data(), p, nthreads,
                            this->m_.nrows(), requested);
  }
};

class SymCsrOps final : public SymOps<SymCsr> {
 public:
  using SymOps::SymOps;
  std::vector<RepackArray> repack_arrays() const override {
    return {{m_.row_ptr().data(), sizeof(index_t), Kind::kRowPtr},
            {m_.col_ind().data(), sizeof(index_t)},
            {m_.values().data(), sizeof(value_t)},
            {m_.diag().data(), sizeof(value_t), Kind::kUnits}};
  }
  std::vector<BoundKernel> bind(
      const KernelTable& kt,
      const std::vector<BindRange>& ranges) const override {
    return bind_sym<index_t, index_t, value_t, value_t>(ranges, kt.sym_csr);
  }
};

class SymCsrViOps final : public SymOps<SymCsrVi> {
 public:
  using SymOps::SymOps;
  std::vector<RepackArray> repack_arrays() const override {
    const auto w = static_cast<std::size_t>(m_.width());
    return {{m_.row_ptr().data(), sizeof(index_t), Kind::kRowPtr},
            {m_.col_ind().data(), sizeof(index_t)},
            {m_.val_ind_raw().data(), w},
            {m_.diag_ind_raw().data(), w, Kind::kUnits},
            {m_.vals_unique().data(), sizeof(value_t), Kind::kShared}};
  }
  std::vector<BoundKernel> bind(
      const KernelTable& kt,
      const std::vector<BindRange>& ranges) const override {
    return with_width(m_.width(), [&](auto ind) {
      using IndT = decltype(ind);
      return bind_sym<index_t, index_t, IndT, IndT, value_t>(
          ranges, by_width<IndT>(kt.sym_csr_vi_u8, kt.sym_csr_vi_u16,
                                 kt.sym_csr_vi_u32));
    });
  }
};

/// COO: each range binary-searches its entry span once, at bind time.
class CooOps final : public Holder<Coo> {
 public:
  using Holder::Holder;
  std::vector<BoundKernel> bind(
      const KernelTable&,
      const std::vector<BindRange>& ranges) const override {
    const auto& rows = m_.rows();
    const index_t* const rr = rows.data();
    const index_t* const cc = m_.cols().data();
    const value_t* const vv = m_.values().data();
    std::vector<BoundKernel> out;
    for (const BindRange& r : ranges) {
      const index_t r0 = r.begin;
      const index_t r1 = r.end;
      const auto lo = static_cast<usize_t>(
          std::lower_bound(rows.begin(), rows.end(), r0) - rows.begin());
      const auto hi = static_cast<usize_t>(
          std::lower_bound(rows.begin(), rows.end(), r1) - rows.begin());
      out.push_back([=](const value_t* x, value_t* y) {
        std::fill(y + r0, y + r1, 0.0);
        for (usize_t k = lo; k < hi; ++k) {
          y[rr[k]] += vv[k] * x[cc[k]];
        }
      });
    }
    return out;
  }
};

/// Range kernels over the format object (heap-held by the instance, so
/// the pointer survives an instance move): DIA, JDS and CSC. JDS units
/// are permuted row positions, balanced by the permuted rows' lengths.
template <typename M, void (*Kernel)(const M&, const value_t*, value_t*,
                                     index_t, index_t)>
class RangeOps : public Holder<M> {
 public:
  using Holder<M>::Holder;
  std::vector<BoundKernel> bind(
      const KernelTable&,
      const std::vector<BindRange>& ranges) const override {
    const M* const m = &this->m_;
    std::vector<BoundKernel> out;
    for (const BindRange& r : ranges) {
      const index_t b = r.begin;
      const index_t e = r.end;
      out.push_back(
          [=](const value_t* x, value_t* y) { Kernel(*m, x, y, b, e); });
    }
    return out;
  }
};

using DiaOps = RangeOps<Dia, &spmv_dia_range>;

class JdsOps final : public RangeOps<Jds, &spmv_jds_range> {
 public:
  using RangeOps::RangeOps;
  aligned_vector<index_t> costs(const Triplets& t) const override {
    const aligned_vector<index_t> rp = row_nnz_prefix(t);
    aligned_vector<index_t> pptr(t.nrows() + 1, 0);
    for (index_t i = 0; i < t.nrows(); ++i) {
      const index_t r = m_.perm()[i];
      pptr[i + 1] = pptr[i] + (rp[r + 1] - rp[r]);
    }
    return pptr;
  }
};

/// CSC (§II-C): units are columns; each worker accumulates its column
/// range into a private y, and the instance sums the copies.
class CscOps final : public RangeOps<Csc, &spmv_csc_cols> {
 public:
  using RangeOps::RangeOps;
  index_t units() const override { return m_.ncols(); }
  Reduce reduce() const override { return Reduce::kPrivate; }
  aligned_vector<index_t> costs(const Triplets&) const override {
    return m_.col_ptr();
  }
  BoundKernel bind_serial(const KernelTable&) const override {
    const Csc* const m = &m_;
    return [=](const value_t* x, value_t* y) { spmv(*m, x, y); };
  }
};

/// DCSR (Willcock–Lumsdaine comparator): one command-stream slice per
/// range.
class DcsrOps final : public Holder<Dcsr> {
 public:
  using Holder::Holder;
  std::vector<BoundKernel> bind(
      const KernelTable&,
      const std::vector<BindRange>& ranges) const override {
    std::vector<BoundKernel> out;
    for (const BindRange& r : ranges) {
      const Dcsr::Slice s = r.begin == 0 && r.end == m_.nrows()
                                ? m_.full()
                                : m_.slice(r.begin, r.end);
      out.push_back([=](const value_t* x, value_t* y) { spmv(s, x, y); });
    }
    return out;
  }
};

// ------------------------------------------------------------------------
// The table: one entry per Format, in enum (= presentation) order.
// ------------------------------------------------------------------------

using Ptr = std::unique_ptr<FormatOps>;

struct Entry {
  Format format;
  const char* name;
  bool symmetric;
  Ptr (*encode)(const Triplets&, const InstanceOptions&);
};

CsrDuOptions du_options(const InstanceOptions& o, bool rle) {
  CsrDuOptions du = o.du;
  du.enable_rle = rle;
  return du;
}

const Entry kEntries[] = {
    {Format::kCsr, "csr", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<CsrOps<std::uint32_t>>(Csr::from_triplets(t));
     }},
    {Format::kCsr16, "csr16", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       SPC_CHECK_MSG(csr16_applicable(t), "csr16 requires ncols <= 65536");
       return std::make_unique<CsrOps<std::uint16_t>>(
           Csr16::from_triplets(t));
     }},
    {Format::kCoo, "coo", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<CooOps>(Coo::from_triplets(t));
     }},
    {Format::kCsc, "csc", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<CscOps>(Csc::from_triplets(t));
     }},
    {Format::kBcsr, "bcsr", false,
     [](const Triplets& t, const InstanceOptions& o) -> Ptr {
       return std::make_unique<BcsrOps>(
           Bcsr::from_triplets(t, o.bcsr_block_rows, o.bcsr_block_cols));
     }},
    {Format::kEll, "ell", false,
     [](const Triplets& t, const InstanceOptions& o) -> Ptr {
       return std::make_unique<EllOps>(
           Ell::from_triplets(t, o.ell_max_width_factor));
     }},
    {Format::kDia, "dia", false,
     [](const Triplets& t, const InstanceOptions& o) -> Ptr {
       return std::make_unique<DiaOps>(Dia::from_triplets(t, o.dia_max_diags));
     }},
    {Format::kJds, "jds", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<JdsOps>(Jds::from_triplets(t));
     }},
    {Format::kCsrDu, "csr-du", false,
     [](const Triplets& t, const InstanceOptions& o) -> Ptr {
       const CsrDuOptions du = du_options(o, false);
       return std::make_unique<DuOps>(CsrDu::from_triplets(t, du), du);
     }},
    {Format::kCsrDuRle, "csr-du-rle", false,
     [](const Triplets& t, const InstanceOptions& o) -> Ptr {
       const CsrDuOptions du = du_options(o, true);
       return std::make_unique<DuOps>(CsrDu::from_triplets(t, du), du);
     }},
    {Format::kCsrVi, "csr-vi", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<CsrViOps>(CsrVi::from_triplets(t));
     }},
    {Format::kCsrDuVi, "csr-du-vi", false,
     [](const Triplets& t, const InstanceOptions& o) -> Ptr {
       return std::make_unique<DuViOps>(CsrDuVi::from_triplets(t, o.du),
                                        o.du);
     }},
    {Format::kDcsr, "dcsr", false,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<DcsrOps>(Dcsr::from_triplets(t));
     }},
    {Format::kSymCsr, "sym-csr", true,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<SymCsrOps>(SymCsr::from_triplets(t));
     }},
    {Format::kSymCsrVi, "sym-csr-vi", true,
     [](const Triplets& t, const InstanceOptions&) -> Ptr {
       return std::make_unique<SymCsrViOps>(SymCsrVi::from_triplets(t));
     }},
};

const Entry& entry(Format f) {
  const auto i = static_cast<std::size_t>(f);
  SPC_CHECK_MSG(i < std::size(kEntries) && kEntries[i].format == f,
                "format missing from the format table");
  return kEntries[i];
}

}  // namespace

aligned_vector<index_t> FormatOps::costs(const Triplets& t) const {
  return row_nnz_prefix(t);
}

std::vector<SpanSet> FormatOps::spans(
    const std::vector<index_t>& bounds) const {
  const std::vector<RepackArray> arrs = repack_arrays();
  const index_t* rp = nullptr;
  for (const RepackArray& a : arrs) {
    if (a.rule == Kind::kRowPtr) {
      rp = static_cast<const index_t*>(a.base);
    }
  }
  std::vector<SpanSet> out;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const auto b = static_cast<usize_t>(bounds[i]);
    const auto e = static_cast<usize_t>(bounds[i + 1]);
    SpanSet sp{};
    for (std::size_t k = 0; k < arrs.size(); ++k) {
      const usize_t per = arrs[k].per;
      switch (arrs[k].rule) {
        case Kind::kRowPtr:
          sp[k] = {b, e + 1};
          break;
        case Kind::kUnits:
          sp[k] = {b * per, e * per};
          break;
        case Kind::kNnz:
          sp[k] = {rp[b] * per, rp[e] * per};
          break;
        case Kind::kShared:
        case Kind::kCustom:
          break;
      }
    }
    out.push_back(sp);
  }
  return out;
}

ArraySet bases(const std::vector<RepackArray>& arrays) {
  ArraySet a{};
  for (std::size_t k = 0; k < arrays.size(); ++k) {
    a[k] = arrays[k].base;
  }
  return a;
}

BoundKernel FormatOps::bind_serial(const KernelTable& kt) const {
  BindRange r;
  r.end = units();
  r.arrays = bases(repack_arrays());
  return std::move(bind(kt, {r})[0]);
}

std::unique_ptr<FormatOps> encode_format(Format f, const Triplets& t,
                                         const InstanceOptions& opts) {
  return entry(f).encode(t, opts);
}

std::vector<RepackArray> tiled_arrays(const TiledStore& s) {
  const auto arr = [](const auto& v, std::size_t elem) {
    return RepackArray{v.empty() ? nullptr : v.data(), elem, Kind::kCustom};
  };
  return {arr(s.seg_ptr, sizeof(index_t)), arr(s.seg_row, sizeof(index_t)),
          arr(s.col, sizeof(std::uint32_t)), arr(s.val, sizeof(value_t)),
          arr(s.vi, s.vi_elem),              arr(s.ctl, 1)};
}

SpanSet tiled_spans(const TiledStore& s, std::size_t b0, std::size_t b1) {
  SpanSet sp{};
  if (b0 >= b1) {
    return sp;
  }
  const TileBlock& first = s.blocks[b0];
  const TileBlock& last = s.blocks[b1 - 1];
  const Span elems{first.val_begin, last.val_begin + last.nnz};
  const auto present = [](const auto& v, Span span) {
    return v.empty() ? Span{} : span;
  };
  sp[kSegPtr] = present(s.seg_ptr, {first.seg_begin, last.seg_end + 1});
  sp[kSegRow] = present(s.seg_row, {first.seg_begin, last.seg_end});
  sp[kCol] = present(s.col, elems);
  sp[kVal] = present(s.val, elems);
  sp[kVi] = present(s.vi, elems);
  sp[kCtl] = present(s.ctl, {first.ctl_begin, last.ctl_end});
  return sp;
}

}  // namespace detail

std::string format_name(Format f) { return detail::entry(f).name; }

Format parse_format(const std::string& name) {
  const std::string n = to_lower(name);
  for (const detail::Entry& e : detail::kEntries) {
    if (n == e.name) {
      return e.format;
    }
  }
  throw InvalidArgument("unknown format: " + name);
}

const std::vector<Format>& all_formats() {
  static const std::vector<Format> kAll = [] {
    std::vector<Format> v;
    for (const detail::Entry& e : detail::kEntries) {
      v.push_back(e.format);
    }
    return v;
  }();
  return kAll;
}

bool format_requires_symmetry(Format f) {
  return detail::entry(f).symmetric;
}

}  // namespace spc
