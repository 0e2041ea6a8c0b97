#include <algorithm>
#include <unordered_map>

#include "common/macros.h"
#include "dataframe/ops.h"
#include "dataframe/row_key.h"

namespace lafp::df {

namespace {

/// Build an output column by taking `indices` from `src`, where -1 emits a
/// null (the unmatched side of a left join).
Result<ColumnPtr> TakeWithNulls(const Column& src,
                                const std::vector<int64_t>& indices) {
  DataType t = src.type();
  if (t == DataType::kCategory) t = DataType::kString;
  ColumnBuilder builder(t, src.tracker());
  builder.Reserve(indices.size());
  for (int64_t idx : indices) {
    if (idx < 0) {
      builder.AppendNull();
    } else {
      builder.AppendFrom(src, static_cast<size_t>(idx));
    }
  }
  return builder.Finish();
}

/// Column `c` of every frame is a category over equal dictionaries:
/// concatenated codes over the first frame's dictionary. nullptr when the
/// dictionaries differ.
Result<ColumnPtr> ConcatSameCategories(const std::vector<DataFrame>& frames,
                                       size_t c) {
  const DictionaryPtr& dict = frames[0].column(c)->dictionary();
  size_t total = 0;
  bool any_null = false;
  for (const auto& f : frames) {
    const Column& src = *f.column(c);
    if (src.dictionary() != dict && *src.dictionary() != *dict) {
      return ColumnPtr();
    }
    total += src.size();
    any_null = any_null || src.has_nulls();
  }
  std::vector<int32_t> codes;
  std::vector<uint8_t> validity;
  codes.reserve(total);
  if (any_null) validity.reserve(total);
  for (const auto& f : frames) {
    const Column& src = *f.column(c);
    codes.insert(codes.end(), src.codes().begin(), src.codes().end());
    if (!any_null) continue;
    if (src.has_nulls()) {
      validity.insert(validity.end(), src.validity().begin(),
                      src.validity().end());
    } else {
      validity.resize(validity.size() + src.size(), 1);
    }
  }
  return Column::MakeCategory(std::move(codes), std::move(validity), dict,
                              frames[0].tracker());
}

}  // namespace

Result<DataFrame> Merge(const DataFrame& left, const DataFrame& right,
                        const std::vector<std::string>& on, JoinType how) {
  if (on.empty()) return Status::Invalid("merge requires key columns");
  std::vector<const Column*> lkeys, rkeys;
  for (const auto& k : on) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr lc, left.column(k));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr rc, right.column(k));
    lkeys.push_back(lc.get());
    rkeys.push_back(rc.get());
  }

  // Build phase on the right side. The hash table is charged against the
  // budget while the join runs (large build sides OOM, matching pandas).
  ScopedReservation scratch;
  LAFP_RETURN_NOT_OK(ScopedReservation::Make(
      right.tracker(), static_cast<int64_t>(right.num_rows()) * 56,
      &scratch));
  std::unordered_map<std::string, std::vector<int64_t>> table;
  table.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    table[internal::RowKey(rkeys, r)].push_back(static_cast<int64_t>(r));
  }

  // Probe phase streaming the left side.
  std::vector<int64_t> left_idx, right_idx;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    auto it = table.find(internal::RowKey(lkeys, r));
    if (it == table.end()) {
      if (how == JoinType::kLeft) {
        left_idx.push_back(static_cast<int64_t>(r));
        right_idx.push_back(-1);
      }
      continue;
    }
    for (int64_t rr : it->second) {
      left_idx.push_back(static_cast<int64_t>(r));
      right_idx.push_back(rr);
    }
  }

  // Column naming: keys once, then left non-keys, then right non-keys;
  // overlapping non-key names get _x/_y suffixes (pandas default).
  auto is_key = [&](const std::string& n) {
    return std::find(on.begin(), on.end(), n) != on.end();
  };
  std::vector<std::string> out_names;
  std::vector<ColumnPtr> out_cols;
  for (const auto& k : on) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, left.column(k));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr taken, c->Take(left_idx));
    out_names.push_back(k);
    out_cols.push_back(std::move(taken));
  }
  for (size_t i = 0; i < left.num_columns(); ++i) {
    const std::string& n = left.names()[i];
    if (is_key(n)) continue;
    std::string out_name = right.HasColumn(n) ? n + "_x" : n;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr taken, left.column(i)->Take(left_idx));
    out_names.push_back(std::move(out_name));
    out_cols.push_back(std::move(taken));
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    const std::string& n = right.names()[i];
    if (is_key(n)) continue;
    std::string out_name = left.HasColumn(n) ? n + "_y" : n;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr taken,
                          TakeWithNulls(*right.column(i), right_idx));
    out_names.push_back(std::move(out_name));
    out_cols.push_back(std::move(taken));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

Result<DataFrame> Concat(const std::vector<DataFrame>& frames) {
  if (frames.empty()) return DataFrame();
  const DataFrame& first = frames[0];
  for (const auto& f : frames) {
    if (f.names() != first.names()) {
      return Status::Invalid("concat: schema mismatch");
    }
  }
  std::vector<std::string> out_names = first.names();
  std::vector<ColumnPtr> out_cols;
  for (size_t c = 0; c < first.num_columns(); ++c) {
    DataType t = first.column(c)->type();
    // Widen int+double mixes to double; strings/categories to string.
    for (const auto& f : frames) {
      DataType ft = f.column(c)->type();
      if (ft == t) continue;
      if (IsNumeric(ft) && IsNumeric(t)) {
        t = DataType::kDouble;
      } else if ((ft == DataType::kCategory && t == DataType::kString) ||
                 (ft == DataType::kString && t == DataType::kCategory)) {
        t = DataType::kString;
      } else {
        return Status::TypeError("concat: column '" + out_names[c] +
                                 "' type mismatch");
      }
    }
    if (t == DataType::kCategory) {
      // pandas keeps the categorical dtype when every piece has the same
      // categories (partitions of one column always do); otherwise the
      // result is object, i.e. string.
      LAFP_ASSIGN_OR_RETURN(ColumnPtr cat, ConcatSameCategories(frames, c));
      if (cat != nullptr) {
        out_cols.push_back(std::move(cat));
        continue;
      }
      t = DataType::kString;
    }
    ColumnBuilder builder(t, first.tracker());
    size_t total = 0;
    for (const auto& f : frames) total += f.num_rows();
    builder.Reserve(total);
    for (const auto& f : frames) {
      const Column& src = *f.column(c);
      if (src.type() == t ||
          (t == DataType::kString && src.type() == DataType::kCategory)) {
        for (size_t r = 0; r < src.size(); ++r) {
          if (t == DataType::kString && src.type() == DataType::kCategory) {
            if (!src.IsValid(r)) {
              builder.AppendNull();
            } else {
              builder.AppendString(src.StringAt(r));
            }
          } else {
            builder.AppendFrom(src, r);
          }
        }
      } else {
        // Numeric widening path.
        for (size_t r = 0; r < src.size(); ++r) {
          if (!src.IsValid(r)) {
            builder.AppendNull();
            continue;
          }
          LAFP_ASSIGN_OR_RETURN(double v, src.NumericAt(r));
          builder.AppendDouble(v);
        }
      }
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, builder.Finish());
    out_cols.push_back(std::move(col));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

}  // namespace lafp::df
