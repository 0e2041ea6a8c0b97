#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "dataframe/arith_semantics.h"
#include "dataframe/kahan.h"
#include "dataframe/kernel_context.h"
#include "dataframe/ops.h"
#include "dataframe/row_key.h"

namespace lafp::df {

namespace {

/// Streaming accumulator for one aggregate over one group.
struct AggState {
  KahanSum sum;
  int64_t isum = 0;
  int64_t count = 0;  // non-null count
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
  // int64/timestamp extremes stay in the integer domain: a double holds
  // neither INT64_MAX nor 2^53 + 1.
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  std::string smin, smax;
  bool has_str = false;
  std::unordered_set<std::string> distinct;
};

bool IsStringy(DataType t) {
  return t == DataType::kString || t == DataType::kCategory;
}

// Approximate per-row cost of a hash table keyed by encoded row keys
// (node + key string), matching pandas' transient groupby/dedup footprint.
constexpr int64_t kHashScratchBytesPerRow = 48;

void Accumulate(AggState* st, AggFunc func, const Column& col, size_t row) {
  if (!col.IsValid(row)) return;
  if (func == AggFunc::kNunique) {
    std::string key;
    internal::AppendRowKey(col, row, &key);
    st->distinct.insert(std::move(key));
    return;
  }
  if (IsStringy(col.type())) {
    const std::string& s = col.StringAt(row);
    if (func == AggFunc::kCount) {
      ++st->count;
      return;
    }
    if (!st->has_str) {
      st->smin = st->smax = s;
      st->has_str = true;
    } else {
      if (s < st->smin) st->smin = s;
      if (s > st->smax) st->smax = s;
    }
    ++st->count;
    return;
  }
  double v;
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t x = col.IntAt(row);
      // NumPy int64 sum wraps; plain += would be signed-overflow UB.
      st->isum = WrapAdd(st->isum, x);
      st->sum.Add(static_cast<double>(x));
      ++st->count;
      st->imin = std::min(st->imin, x);
      st->imax = std::max(st->imax, x);
      return;
    }
    case DataType::kDouble:
      v = col.DoubleAt(row);
      if (std::isnan(v)) return;  // pandas skipna
      break;
    case DataType::kBool:
      v = col.BoolAt(row) ? 1.0 : 0.0;
      st->isum += col.BoolAt(row) ? 1 : 0;
      break;
    default:
      return;
  }
  st->sum.Add(v);
  ++st->count;
  if (v < st->dmin) st->dmin = v;
  if (v > st->dmax) st->dmax = v;
}

/// Accumulate rows [begin, end) of `col` into `st`: the Reduce hot loop
/// with the type switch and validity dispatch hoisted out of the inner
/// loop. Row order and the per-row operations match Accumulate exactly
/// (same Kahan add sequence, same min/max comparisons), so the resulting
/// state is bit-identical to the per-row path. Numeric columns accumulate
/// the same fields for every AggFunc (EmitAgg picks what it needs), so
/// the loop is func-independent; string/nunique fall back per row.
void AccumulateRange(AggState* st, AggFunc func, const Column& col,
                     size_t begin, size_t end) {
  if (func != AggFunc::kNunique && !IsStringy(col.type())) {
    const uint8_t* valid = col.validity_data();
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp: {
        const int64_t* vals = col.int_data();
        for (size_t i = begin; i < end; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          st->isum = WrapAdd(st->isum, vals[i]);
          st->sum.Add(static_cast<double>(vals[i]));
          ++st->count;
          st->imin = std::min(st->imin, vals[i]);
          st->imax = std::max(st->imax, vals[i]);
        }
        return;
      }
      case DataType::kDouble: {
        const double* vals = col.double_data();
        for (size_t i = begin; i < end; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          const double v = vals[i];
          if (std::isnan(v)) continue;  // pandas skipna
          st->sum.Add(v);
          ++st->count;
          if (v < st->dmin) st->dmin = v;
          if (v > st->dmax) st->dmax = v;
        }
        return;
      }
      case DataType::kBool: {
        const uint8_t* vals = col.bool_data();
        for (size_t i = begin; i < end; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          const double v = vals[i] != 0 ? 1.0 : 0.0;
          st->isum += vals[i] != 0 ? 1 : 0;
          st->sum.Add(v);
          ++st->count;
          if (v < st->dmin) st->dmin = v;
          if (v > st->dmax) st->dmax = v;
        }
        return;
      }
      default:
        return;  // mirrors Accumulate's default: nothing to do
    }
  }
  for (size_t i = begin; i < end; ++i) Accumulate(st, func, col, i);
}

/// Fold a morsel-partial accumulator into `into`. Called serially in fixed
/// morsel order, so the merged state (including the Kahan compensation) is a
/// pure function of the morsel geometry, never of the thread count.
void MergeState(AggState* into, AggState* from) {
  into->sum.MergeFrom(from->sum);
  into->isum = WrapAdd(into->isum, from->isum);
  into->count += from->count;
  into->dmin = std::min(into->dmin, from->dmin);
  into->dmax = std::max(into->dmax, from->dmax);
  into->imin = std::min(into->imin, from->imin);
  into->imax = std::max(into->imax, from->imax);
  if (from->has_str) {
    if (!into->has_str) {
      into->smin = std::move(from->smin);
      into->smax = std::move(from->smax);
      into->has_str = true;
    } else {
      if (from->smin < into->smin) into->smin = std::move(from->smin);
      if (from->smax > into->smax) into->smax = std::move(from->smax);
    }
  }
  if (into->distinct.empty()) {
    into->distinct.swap(from->distinct);
  } else {
    for (auto& key : from->distinct) into->distinct.insert(key);
  }
}

/// Output column type for an aggregate over a source column type.
DataType AggOutputType(AggFunc func, DataType src) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kNunique:
      return DataType::kInt64;
    case AggFunc::kMean:
      return DataType::kDouble;
    case AggFunc::kSum:
      return (src == DataType::kInt64 || src == DataType::kBool)
                 ? DataType::kInt64
                 : DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (IsStringy(src)) return DataType::kString;
      return src == DataType::kDouble ? DataType::kDouble : src;
  }
  return DataType::kDouble;
}

Status EmitAgg(ColumnBuilder* builder, const AggState& st, AggFunc func,
               DataType src) {
  switch (func) {
    case AggFunc::kCount:
      builder->AppendInt(st.count);
      return Status::OK();
    case AggFunc::kNunique:
      builder->AppendInt(static_cast<int64_t>(st.distinct.size()));
      return Status::OK();
    case AggFunc::kSum:
      if (builder->type() == DataType::kInt64) {
        builder->AppendInt(st.isum);
      } else {
        builder->AppendDouble(st.sum.Total());
      }
      return Status::OK();
    case AggFunc::kMean:
      if (st.count == 0) {
        builder->AppendNull();
      } else {
        builder->AppendDouble(st.sum.Total() / static_cast<double>(st.count));
      }
      return Status::OK();
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (IsStringy(src)) {
        if (!st.has_str) {
          builder->AppendNull();
        } else {
          builder->AppendString(func == AggFunc::kMin ? st.smin : st.smax);
        }
        return Status::OK();
      }
      if (st.count == 0) {
        builder->AppendNull();
        return Status::OK();
      }
      if (src == DataType::kInt64 || src == DataType::kTimestamp) {
        builder->AppendInt(func == AggFunc::kMin ? st.imin : st.imax);
        return Status::OK();
      }
      double v = func == AggFunc::kMin ? st.dmin : st.dmax;
      if (builder->type() == DataType::kDouble) {
        builder->AppendDouble(v);
      } else {
        builder->AppendInt(static_cast<int64_t>(v));
      }
      return Status::OK();
    }
  }
  return Status::Invalid("bad aggregate");
}

}  // namespace

Result<Scalar> Reduce(const Column& col, AggFunc func) {
  const size_t n = col.size();
  AggState st;
  if (NumMorsels(n) <= 1) {
    // Single morsel: the legacy sequential accumulation, byte-for-byte.
    AccumulateRange(&st, func, col, 0, n);
  } else {
    // Partial aggregate per morsel, merged serially in morsel order. The
    // morsel boundaries depend only on (n, morsel_rows), so the result is
    // bit-identical across thread counts.
    const size_t morsel_rows = KernelContext::Current().morsel_rows();
    std::vector<AggState> partials(NumMorsels(n));
    LAFP_RETURN_NOT_OK(RunMorsels(n, [&](size_t begin, size_t end) {
      AccumulateRange(&partials[begin / morsel_rows], func, col, begin, end);
      return Status::OK();
    }));
    st = std::move(partials[0]);
    for (size_t m = 1; m < partials.size(); ++m) {
      MergeState(&st, &partials[m]);
    }
  }
  switch (func) {
    case AggFunc::kCount:
      return Scalar::Int(st.count);
    case AggFunc::kNunique:
      return Scalar::Int(static_cast<int64_t>(st.distinct.size()));
    case AggFunc::kSum:
      if (col.type() == DataType::kInt64 || col.type() == DataType::kBool) {
        return Scalar::Int(st.isum);
      }
      if (!IsNumeric(col.type())) {
        return Status::TypeError("sum on non-numeric column");
      }
      return Scalar::Double(st.sum.Total());
    case AggFunc::kMean:
      if (!IsNumeric(col.type())) {
        return Status::TypeError("mean on non-numeric column");
      }
      if (st.count == 0) return Scalar::Null();
      return Scalar::Double(st.sum.Total() / static_cast<double>(st.count));
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (IsStringy(col.type())) {
        if (!st.has_str) return Scalar::Null();
        return Scalar::String(func == AggFunc::kMin ? st.smin : st.smax);
      }
      if (st.count == 0) return Scalar::Null();
      const int64_t extreme = func == AggFunc::kMin ? st.imin : st.imax;
      if (col.type() == DataType::kInt64) return Scalar::Int(extreme);
      if (col.type() == DataType::kTimestamp) {
        return Scalar::Timestamp(extreme);
      }
      return Scalar::Double(func == AggFunc::kMin ? st.dmin : st.dmax);
    }
  }
  return Status::Invalid("bad aggregate");
}

Result<DataFrame> GroupByAgg(const DataFrame& df,
                             const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs) {
  if (keys.empty()) return Status::Invalid("groupby requires key columns");
  std::vector<const Column*> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& k : keys) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(k));
    key_cols.push_back(c.get());
  }
  std::vector<const Column*> agg_cols;
  agg_cols.reserve(aggs.size());
  for (const auto& spec : aggs) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(spec.column));
    agg_cols.push_back(c.get());
  }

  // Hash-aggregation scratch space is charged against the budget for the
  // duration of the kernel: whole-frame group-bys on huge inputs are a
  // real OOM source that partitioned two-phase aggregation avoids.
  ScopedReservation scratch;
  LAFP_RETURN_NOT_OK(ScopedReservation::Make(
      df.tracker(),
      static_cast<int64_t>(df.num_rows()) * kHashScratchBytesPerRow,
      &scratch));

  // Group discovery: composite key -> dense group id.
  std::unordered_map<std::string, size_t> group_ids;
  std::vector<int64_t> representative_row;  // first row of each group
  std::vector<std::vector<AggState>> states;  // [group][agg]
  const size_t n = df.num_rows();
  if (NumMorsels(n) <= 1) {
    // Single morsel: the legacy sequential hash-aggregation, byte-for-byte.
    for (size_t r = 0; r < n; ++r) {
      std::string key = internal::RowKey(key_cols, r);
      auto [it, inserted] = group_ids.emplace(std::move(key), states.size());
      if (inserted) {
        representative_row.push_back(static_cast<int64_t>(r));
        states.emplace_back(aggs.size());
      }
      auto& group_states = states[it->second];
      for (size_t a = 0; a < aggs.size(); ++a) {
        Accumulate(&group_states[a], aggs[a].func, *agg_cols[a], r);
      }
    }
  } else {
    // Each morsel builds a private hash table over its row range; the
    // partials are then merged serially in morsel order, which reproduces
    // the global first-appearance group order (a group's first morsel is
    // visited first, and within a morsel insertion order is row order) and
    // keeps every per-group state a pure function of the morsel geometry.
    struct LocalGroups {
      std::unordered_map<std::string, size_t> ids;
      std::vector<const std::string*> key_in_order;  // stable map-node keys
      std::vector<int64_t> first_row;
      std::vector<std::vector<AggState>> states;
    };
    const size_t morsel_rows = KernelContext::Current().morsel_rows();
    std::vector<LocalGroups> locals(NumMorsels(n));
    LAFP_RETURN_NOT_OK(RunMorsels(n, [&](size_t begin, size_t end) {
      LocalGroups& loc = locals[begin / morsel_rows];
      for (size_t r = begin; r < end; ++r) {
        std::string key = internal::RowKey(key_cols, r);
        auto [it, inserted] = loc.ids.emplace(std::move(key),
                                              loc.states.size());
        if (inserted) {
          loc.key_in_order.push_back(&it->first);
          loc.first_row.push_back(static_cast<int64_t>(r));
          loc.states.emplace_back(aggs.size());
        }
        auto& group_states = loc.states[it->second];
        for (size_t a = 0; a < aggs.size(); ++a) {
          Accumulate(&group_states[a], aggs[a].func, *agg_cols[a], r);
        }
      }
      return Status::OK();
    }));
    for (auto& loc : locals) {
      for (size_t g = 0; g < loc.states.size(); ++g) {
        auto [it, inserted] =
            group_ids.emplace(*loc.key_in_order[g], states.size());
        if (inserted) {
          representative_row.push_back(loc.first_row[g]);
          states.push_back(std::move(loc.states[g]));
        } else {
          auto& dst = states[it->second];
          for (size_t a = 0; a < aggs.size(); ++a) {
            MergeState(&dst[a], &loc.states[g][a]);
          }
        }
      }
    }
  }

  std::vector<std::string> out_names;
  std::vector<ColumnPtr> out_cols;
  // Key columns: gather representative rows.
  for (size_t k = 0; k < keys.size(); ++k) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr keyed,
                          key_cols[k]->Take(representative_row));
    out_names.push_back(keys[k]);
    out_cols.push_back(std::move(keyed));
  }
  // Aggregate output columns.
  for (size_t a = 0; a < aggs.size(); ++a) {
    DataType out_type = AggOutputType(aggs[a].func, agg_cols[a]->type());
    ColumnBuilder builder(out_type, df.tracker());
    builder.Reserve(states.size());
    for (const auto& group_states : states) {
      LAFP_RETURN_NOT_OK(EmitAgg(&builder, group_states[a], aggs[a].func,
                                 agg_cols[a]->type()));
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr out, builder.Finish());
    out_names.push_back(aggs[a].out_name);
    out_cols.push_back(std::move(out));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

Result<DataFrame> DropDuplicates(const DataFrame& df,
                                 const std::vector<std::string>& subset) {
  std::vector<const Column*> key_cols;
  if (subset.empty()) {
    for (size_t i = 0; i < df.num_columns(); ++i) {
      key_cols.push_back(df.column(i).get());
    }
  } else {
    for (const auto& k : subset) {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(k));
      key_cols.push_back(c.get());
    }
  }
  ScopedReservation scratch;
  LAFP_RETURN_NOT_OK(ScopedReservation::Make(
      df.tracker(),
      static_cast<int64_t>(df.num_rows()) * kHashScratchBytesPerRow,
      &scratch));
  std::unordered_set<std::string> seen;
  std::vector<int64_t> keep;
  for (size_t r = 0; r < df.num_rows(); ++r) {
    std::string key = internal::RowKey(key_cols, r);
    if (seen.insert(std::move(key)).second) {
      keep.push_back(static_cast<int64_t>(r));
    }
  }
  return df.TakeRows(keep);
}

Result<ColumnPtr> Unique(const Column& col) {
  std::unordered_set<std::string> seen;
  std::vector<int64_t> keep;
  for (size_t r = 0; r < col.size(); ++r) {
    std::string key;
    internal::AppendRowKey(col, r, &key);
    if (seen.insert(std::move(key)).second) {
      keep.push_back(static_cast<int64_t>(r));
    }
  }
  return col.Take(keep);
}

Result<DataFrame> ValueCounts(const Column& col,
                              const std::string& value_name) {
  std::unordered_map<std::string, std::pair<int64_t, int64_t>>
      counts;  // key -> (first row, count)
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsValid(r)) continue;  // pandas value_counts drops NaN
    std::string key;
    internal::AppendRowKey(col, r, &key);
    auto [it, inserted] =
        counts.emplace(std::move(key),
                       std::make_pair(static_cast<int64_t>(r), int64_t{0}));
    ++it->second.second;
  }
  std::vector<std::pair<int64_t, int64_t>> rows(counts.size());
  size_t i = 0;
  for (const auto& [_, rc] : counts) rows[i++] = rc;
  // Descending count; ties by first appearance for determinism.
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<int64_t> take(rows.size());
  std::vector<int64_t> cnts(rows.size());
  for (size_t k = 0; k < rows.size(); ++k) {
    take[k] = rows[k].first;
    cnts[k] = rows[k].second;
  }
  LAFP_ASSIGN_OR_RETURN(ColumnPtr values, col.Take(take));
  LAFP_ASSIGN_OR_RETURN(
      ColumnPtr count_col,
      Column::MakeInt(std::move(cnts), {}, col.tracker()));
  return DataFrame::Make({value_name, "count"},
                         {std::move(values), std::move(count_col)});
}

Result<DataFrame> Describe(const DataFrame& df) {
  std::vector<std::string> out_names{"stat"};
  std::vector<ColumnPtr> out_cols;
  std::vector<std::string> stats{"count", "mean", "std", "min", "max"};
  {
    ColumnBuilder stat_col(DataType::kString, df.tracker());
    for (const auto& s : stats) stat_col.AppendString(s);
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, stat_col.Finish());
    out_cols.push_back(std::move(c));
  }
  for (size_t i = 0; i < df.num_columns(); ++i) {
    const Column& col = *df.column(i);
    if (!IsNumeric(col.type())) continue;
    KahanSum sum, sumsq;
    int64_t count = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < col.size(); ++r) {
      if (!col.IsValid(r)) continue;
      LAFP_ASSIGN_OR_RETURN(double v, col.NumericAt(r));
      if (std::isnan(v)) continue;
      sum.Add(v);
      sumsq.Add(v * v);
      ++count;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    double total = sum.Total();
    double total_sq = sumsq.Total();
    double mean = count > 0 ? total / count : std::nan("");
    double var =
        count > 1
            ? std::max(0.0, (total_sq - total * total / count) / (count - 1))
            : std::nan("");
    ColumnBuilder b(DataType::kDouble, df.tracker());
    b.AppendDouble(static_cast<double>(count));
    b.AppendDouble(mean);
    b.AppendDouble(count > 1 ? std::sqrt(var) : std::nan(""));
    b.AppendDouble(count > 0 ? mn : std::nan(""));
    b.AppendDouble(count > 0 ? mx : std::nan(""));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, b.Finish());
    out_names.push_back(df.names()[i]);
    out_cols.push_back(std::move(c));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

}  // namespace lafp::df
