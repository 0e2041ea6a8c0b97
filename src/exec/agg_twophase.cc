#include "exec/agg_twophase.h"

#include <cmath>

#include "common/macros.h"
#include "dataframe/arith_semantics.h"
#include "dataframe/kahan.h"
#include "dataframe/row_key.h"

namespace lafp::exec {

using df::AggFunc;
using df::AggSpec;
using df::Column;
using df::ColumnPtr;
using df::DataFrame;
using df::Scalar;

namespace {

std::string PartialName(size_t i, const char* tag) {
  return "__p" + std::to_string(i) + "_" + tag;
}

/// -1/0/+1 compare of two non-null scalars of compatible type.
int CompareScalars(const Scalar& a, const Scalar& b) {
  if (a.type() == df::DataType::kString ||
      a.type() == df::DataType::kCategory) {
    return a.string_value().compare(b.string_value());
  }
  if (a.type() == b.type() && (a.type() == df::DataType::kInt64 ||
                                a.type() == df::DataType::kTimestamp)) {
    // Exact: int64 partials above 2^53 must not tie through double.
    const int64_t x = a.int_value(), y = b.int_value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  double x = *a.AsDouble();
  double y = *b.AsDouble();
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace

GroupByCombiner::GroupByCombiner(std::vector<std::string> keys,
                                 std::vector<AggSpec> aggs)
    : keys_(std::move(keys)), aggs_(std::move(aggs)) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    switch (a.func) {
      case AggFunc::kSum:
        partial_specs_.push_back({a.column, AggFunc::kSum,
                                  PartialName(i, "sum")});
        break;
      case AggFunc::kCount:
        partial_specs_.push_back({a.column, AggFunc::kCount,
                                  PartialName(i, "cnt")});
        break;
      case AggFunc::kMin:
        partial_specs_.push_back({a.column, AggFunc::kMin,
                                  PartialName(i, "min")});
        break;
      case AggFunc::kMax:
        partial_specs_.push_back({a.column, AggFunc::kMax,
                                  PartialName(i, "max")});
        break;
      case AggFunc::kMean:
        partial_specs_.push_back({a.column, AggFunc::kSum,
                                  PartialName(i, "sum")});
        partial_specs_.push_back({a.column, AggFunc::kCount,
                                  PartialName(i, "cnt")});
        break;
      case AggFunc::kNunique:
        supported_ = false;
        break;
    }
  }
}

Status GroupByCombiner::AddPartition(const DataFrame& partition) {
  if (!supported_) return Status::Invalid("nunique is not two-phase");
  LAFP_ASSIGN_OR_RETURN(DataFrame partial,
                        df::GroupByAgg(partition, keys_, partial_specs_));
  partials_.push_back(std::move(partial));
  return Status::OK();
}

Result<DataFrame> GroupByCombiner::PartialAggregate(
    const DataFrame& partition) const {
  if (!supported_) return Status::Invalid("nunique is not two-phase");
  return df::GroupByAgg(partition, keys_, partial_specs_);
}

Status GroupByCombiner::AddPartial(DataFrame partial) {
  if (!supported_) return Status::Invalid("nunique is not two-phase");
  partials_.push_back(std::move(partial));
  return Status::OK();
}

Result<DataFrame> GroupByCombiner::Finish() {
  if (!supported_) return Status::Invalid("nunique is not two-phase");
  if (partials_.empty()) {
    return Status::Invalid("no partitions were aggregated");
  }
  LAFP_ASSIGN_OR_RETURN(DataFrame all, df::Concat(partials_));
  partials_.clear();

  // Combine pass: re-aggregate partials by the same keys.
  std::vector<AggSpec> combine_specs;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    switch (a.func) {
      case AggFunc::kSum:
        combine_specs.push_back({PartialName(i, "sum"), AggFunc::kSum,
                                 a.out_name});
        break;
      case AggFunc::kCount:
        combine_specs.push_back({PartialName(i, "cnt"), AggFunc::kSum,
                                 a.out_name});
        break;
      case AggFunc::kMin:
        combine_specs.push_back({PartialName(i, "min"), AggFunc::kMin,
                                 a.out_name});
        break;
      case AggFunc::kMax:
        combine_specs.push_back({PartialName(i, "max"), AggFunc::kMax,
                                 a.out_name});
        break;
      case AggFunc::kMean:
        combine_specs.push_back({PartialName(i, "sum"), AggFunc::kSum,
                                 PartialName(i, "sum")});
        combine_specs.push_back({PartialName(i, "cnt"), AggFunc::kSum,
                                 PartialName(i, "cnt")});
        break;
      case AggFunc::kNunique:
        break;
    }
  }
  LAFP_ASSIGN_OR_RETURN(DataFrame combined,
                        df::GroupByAgg(all, keys_, combine_specs));
  // Resolve means and project to the requested output schema. Groups
  // whose inputs were all null have count 0; pandas (and the single-phase
  // kernel) yield a null mean there, whereas sum/count division would
  // produce a *valid* NaN — observably different to checksums and dropna.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].func != AggFunc::kMean) continue;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr sum_col,
                          combined.column(PartialName(i, "sum")));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr cnt_col,
                          combined.column(PartialName(i, "cnt")));
    const size_t n = combined.num_rows();
    std::vector<double> values(n);
    std::vector<uint8_t> validity(n, 1);
    bool any_empty = false;
    for (size_t r = 0; r < n; ++r) {
      int64_t cnt = cnt_col->IsValid(r) ? cnt_col->IntAt(r) : 0;
      if (cnt == 0) {
        values[r] = std::nan("");
        validity[r] = 0;
        any_empty = true;
        continue;
      }
      LAFP_ASSIGN_OR_RETURN(double sum, sum_col->NumericAt(r));
      values[r] = sum / static_cast<double>(cnt);
    }
    if (!any_empty) validity.clear();
    LAFP_ASSIGN_OR_RETURN(
        ColumnPtr mean_col,
        Column::MakeDouble(std::move(values), std::move(validity),
                           combined.tracker()));
    LAFP_ASSIGN_OR_RETURN(combined,
                          combined.WithColumn(aggs_[i].out_name, mean_col));
  }
  std::vector<std::string> out_names = keys_;
  for (const auto& a : aggs_) out_names.push_back(a.out_name);
  return combined.Select(out_names);
}

ReduceCombiner::ReduceCombiner(AggFunc func) : func_(func) {}

// Partial layout. nunique: one string column "key" holding the partition's
// distinct row keys in first-seen order. Every other function: one row
// with "dtype" (the source column's DataType, which decides sum's result
// type) plus "sum" and "count" (sum/mean), "count" (count) or "value"
// (min/max: the partition's extreme, null when it has none).
Result<DataFrame> ReduceCombiner::PartialReduce(
    const DataFrame& partition) const {
  if (partition.num_columns() != 1) {
    return Status::TypeError("reduce expects a series partition");
  }
  const Column& col = *partition.column(size_t{0});
  MemoryTracker* tracker = col.tracker();
  if (func_ == AggFunc::kNunique) {
    std::unordered_set<std::string> seen;
    std::vector<std::string> keys;
    for (size_t r = 0; r < col.size(); ++r) {
      if (!col.IsValid(r)) continue;
      std::string key;
      df::internal::AppendRowKey(col, r, &key);
      if (seen.insert(key).second) keys.push_back(std::move(key));
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr key_col,
                          Column::MakeString(std::move(keys), {}, tracker));
    return DataFrame::Make({"key"}, {key_col});
  }
  std::vector<std::string> names;
  std::vector<ColumnPtr> cols;
  auto add = [&](const char* name, const Scalar& value) -> Status {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, Column::MakeConstant(value, 1, tracker));
    names.push_back(name);
    cols.push_back(std::move(c));
    return Status::OK();
  };
  LAFP_RETURN_NOT_OK(
      add("dtype", Scalar::Int(static_cast<int64_t>(col.type()))));
  if (func_ == AggFunc::kSum || func_ == AggFunc::kMean) {
    LAFP_ASSIGN_OR_RETURN(Scalar s, df::Reduce(col, AggFunc::kSum));
    LAFP_RETURN_NOT_OK(add("sum", s));
  }
  if (func_ == AggFunc::kMin || func_ == AggFunc::kMax) {
    LAFP_ASSIGN_OR_RETURN(Scalar m, df::Reduce(col, func_));
    LAFP_RETURN_NOT_OK(add("value", m));
  } else {
    LAFP_ASSIGN_OR_RETURN(Scalar c, df::Reduce(col, AggFunc::kCount));
    LAFP_RETURN_NOT_OK(add("count", c));
  }
  return DataFrame::Make(std::move(names), std::move(cols));
}

Status ReduceCombiner::AddPartial(const DataFrame& partial) {
  // Partials may have crossed a process boundary: check every field.
  const Status malformed = Status::Invalid("malformed reduce partial");
  if (func_ == AggFunc::kNunique) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr keys, partial.column("key"));
    if (keys->type() != df::DataType::kString) return malformed;
    for (size_t r = 0; r < keys->size(); ++r) {
      if (keys->IsValid(r)) distinct_.insert(keys->StringAt(r));
    }
    return Status::OK();
  }
  if (partial.num_rows() != 1) return malformed;
  auto field = [&](const char* name) -> Result<Scalar> {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, partial.column(name));
    return c->ScalarAt(0);
  };
  LAFP_ASSIGN_OR_RETURN(Scalar dtype, field("dtype"));
  if (dtype.type() != df::DataType::kInt64 || dtype.int_value() < 0 ||
      dtype.int_value() > static_cast<int64_t>(df::DataType::kCategory)) {
    return malformed;
  }
  if (seen_type_ == df::DataType::kNull) {
    seen_type_ = static_cast<df::DataType>(dtype.int_value());
  }
  if (func_ == AggFunc::kSum || func_ == AggFunc::kMean) {
    LAFP_ASSIGN_OR_RETURN(Scalar s, field("sum"));
    if (s.type() == df::DataType::kInt64) {
      isum_ = df::WrapAdd(isum_, s.int_value());
      sum_.Add(static_cast<double>(s.int_value()));
    } else if (s.type() == df::DataType::kDouble) {
      sum_.Add(s.double_value());
    } else {
      return malformed;
    }
  }
  if (func_ != AggFunc::kMin && func_ != AggFunc::kMax) {
    LAFP_ASSIGN_OR_RETURN(Scalar c, field("count"));
    if (c.type() != df::DataType::kInt64) return malformed;
    count_ += c.int_value();
    return Status::OK();
  }
  LAFP_ASSIGN_OR_RETURN(Scalar m, field("value"));
  if (m.is_null()) return Status::OK();
  if (!has_value_) {
    min_ = max_ = m;
    has_value_ = true;
    return Status::OK();
  }
  if (func_ == AggFunc::kMin && CompareScalars(m, min_) < 0) min_ = m;
  if (func_ == AggFunc::kMax && CompareScalars(m, max_) > 0) max_ = m;
  return Status::OK();
}

Status ReduceCombiner::AddPartition(const DataFrame& partition) {
  LAFP_ASSIGN_OR_RETURN(DataFrame partial, PartialReduce(partition));
  return AddPartial(partial);
}

Result<Scalar> ReduceCombiner::Finish() {
  switch (func_) {
    case AggFunc::kNunique:
      return Scalar::Int(static_cast<int64_t>(distinct_.size()));
    case AggFunc::kCount:
      return Scalar::Int(count_);
    case AggFunc::kSum:
      if (seen_type_ == df::DataType::kInt64 ||
          seen_type_ == df::DataType::kBool) {
        return Scalar::Int(isum_);
      }
      return Scalar::Double(sum_.Total());
    case AggFunc::kMean:
      if (count_ == 0) return Scalar::Null();
      return Scalar::Double(sum_.Total() / static_cast<double>(count_));
    case AggFunc::kMin:
      return has_value_ ? min_ : Scalar::Null();
    case AggFunc::kMax:
      return has_value_ ? max_ : Scalar::Null();
  }
  return Status::Invalid("bad reduce function");
}

}  // namespace lafp::exec
