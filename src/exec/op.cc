#include "exec/op.h"

#include <sstream>

namespace lafp::exec {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kReadCsv:
      return "read_csv";
    case OpKind::kSelect:
      return "select";
    case OpKind::kGetColumn:
      return "get_item";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kCompare:
      return "compare";
    case OpKind::kBooleanAnd:
      return "and";
    case OpKind::kBooleanOr:
      return "or";
    case OpKind::kBooleanNot:
      return "not";
    case OpKind::kIsNull:
      return "isna";
    case OpKind::kStrContains:
      return "str_contains";
    case OpKind::kSetColumn:
      return "set_item";
    case OpKind::kDropColumns:
      return "drop";
    case OpKind::kRename:
      return "rename";
    case OpKind::kArith:
      return "arith";
    case OpKind::kAbs:
      return "abs";
    case OpKind::kRound:
      return "round";
    case OpKind::kFillNa:
      return "fillna";
    case OpKind::kDropNa:
      return "dropna";
    case OpKind::kAsType:
      return "astype";
    case OpKind::kToDatetime:
      return "to_datetime";
    case OpKind::kDtAccessor:
      return "dt";
    case OpKind::kGroupByAgg:
      return "groupby_agg";
    case OpKind::kReduce:
      return "reduce";
    case OpKind::kMerge:
      return "merge";
    case OpKind::kSortValues:
      return "sort_values";
    case OpKind::kDropDuplicates:
      return "drop_duplicates";
    case OpKind::kUnique:
      return "unique";
    case OpKind::kValueCounts:
      return "value_counts";
    case OpKind::kDescribe:
      return "describe";
    case OpKind::kHead:
      return "head";
    case OpKind::kPrint:
      return "print";
    case OpKind::kLen:
      return "len";
    case OpKind::kIsIn:
      return "isin";
    case OpKind::kConcat:
      return "concat";
    case OpKind::kReadLfc:
      return "read_lfc";
    case OpKind::kMaterialized:
      return "materialized";
    case OpKind::kFusedMap:
      return "fused_map";
  }
  return "?";
}

std::string OpDesc::ToString() const {
  std::ostringstream os;
  os << OpKindName(kind);
  switch (kind) {
    case OpKind::kReadCsv:
      os << "(" << path;
      if (!csv_options.usecols.empty()) {
        os << ", usecols=[";
        for (size_t i = 0; i < csv_options.usecols.size(); ++i) {
          if (i > 0) os << ",";
          os << csv_options.usecols[i];
        }
        os << "]";
      }
      if (!csv_options.dtypes.empty()) os << ", dtypes=" << csv_options.dtypes.size();
      os << ")";
      break;
    case OpKind::kReadLfc:
      os << "(" << path;
      if (!lfc_options.usecols.empty()) {
        os << ", usecols=[";
        for (size_t i = 0; i < lfc_options.usecols.size(); ++i) {
          if (i > 0) os << ",";
          os << lfc_options.usecols[i];
        }
        os << "]";
      }
      if (!lfc_options.prune.empty()) {
        os << ", prune=[";
        for (size_t i = 0; i < lfc_options.prune.size(); ++i) {
          if (i > 0) os << " & ";
          const auto& p = lfc_options.prune[i];
          os << p.column << df::CompareOpSymbol(p.op) << p.scalar.ToString();
        }
        os << "]";
      }
      os << ")";
      break;
    case OpKind::kGetColumn:
    case OpKind::kSetColumn:
      os << "[" << column << "]";
      break;
    case OpKind::kCompare:
      os << "(" << df::CompareOpSymbol(compare_op);
      if (has_scalar) os << " " << scalar.ToString();
      os << ")";
      break;
    case OpKind::kArith:
      os << "(" << df::ArithOpSymbol(arith_op);
      if (has_scalar) os << " " << scalar.ToString();
      os << ")";
      break;
    case OpKind::kReduce:
      os << "(" << df::AggFuncName(agg_func) << ")";
      break;
    case OpKind::kGroupByAgg: {
      os << "(keys=[";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) os << ",";
        os << columns[i];
      }
      os << "], aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) os << ",";
        os << df::AggFuncName(aggs[i].func) << "(" << aggs[i].column << ")";
      }
      os << "])";
      break;
    }
    case OpKind::kSelect:
    case OpKind::kDropColumns:
    case OpKind::kSortValues:
    case OpKind::kMerge: {
      os << "([";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) os << ",";
        os << columns[i];
      }
      os << "])";
      break;
    }
    case OpKind::kHead:
      os << "(" << n << ")";
      break;
    case OpKind::kDtAccessor:
      os << "." << df::DtFieldName(dt_field);
      break;
    case OpKind::kAsType:
      os << "(" << df::DataTypeName(dtype) << ")";
      break;
    case OpKind::kFusedMap: {
      os << "(";
      if (!column.empty()) os << "filter[" << column << "]";
      for (size_t i = 0; i < fused.size(); ++i) {
        if (i > 0 || !column.empty()) os << " -> ";
        os << fused[i].ToString();
      }
      os << ")";
      break;
    }
    default:
      break;
  }
  return os.str();
}

std::string OpDesc::Fingerprint() const {
  std::ostringstream os;
  os << static_cast<int>(kind) << "|" << path << "|";
  for (const auto& c : csv_options.usecols) os << c << ",";
  os << "|";
  for (const auto& [k, v] : csv_options.dtypes) {
    os << k << ":" << static_cast<int>(v) << ",";
  }
  os << "|" << csv_options.nrows;
  os << "|";
  for (const auto& c : columns) os << c << ",";
  os << "|" << column << "|" << static_cast<int>(compare_op) << "|"
     << static_cast<int>(arith_op) << "|" << scalar_on_left << "|"
     << has_scalar << "|" << scalar.ToString() << "|"
     << static_cast<int>(scalar.type()) << "|";
  for (const auto& a : aggs) {
    os << a.column << ":" << static_cast<int>(a.func) << ":" << a.out_name
       << ",";
  }
  os << "|" << static_cast<int>(agg_func) << "|";
  for (bool b : ascending) os << (b ? 1 : 0);
  os << "|" << static_cast<int>(join_type) << "|"
     << static_cast<int>(dtype) << "|" << static_cast<int>(dt_field) << "|"
     << n << "|";
  for (const auto& [k, v] : rename) os << k << ">" << v << ",";
  os << "|" << str_arg << "|" << digits << "|";
  for (const auto& s : scalar_list) {
    os << static_cast<int>(s.type()) << ":" << s.ToString() << ",";
  }
  os << "|";
  for (const auto& c : lfc_options.usecols) os << c << ",";
  os << "|" << lfc_options.nrows << "|" << lfc_options.prune_enabled << "|";
  for (const auto& p : lfc_options.prune) {
    // Pruned and unpruned scans are distinct nodes: their outputs differ.
    os << p.column << ":" << static_cast<int>(p.op) << ":"
       << static_cast<int>(p.scalar.type()) << ":" << p.scalar.ToString()
       << ",";
  }
  os << "|";
  // kFusedMap steps, recursively: two fused nodes are equal only if every
  // step matches (dedup correctness depends on this).
  for (const auto& f : fused) os << "{" << f.Fingerprint() << "}";
  return os.str();
}

int ExpectedArity(const OpDesc& desc) {
  switch (desc.kind) {
    case OpKind::kReadCsv:
    case OpKind::kReadLfc:
    case OpKind::kMaterialized:
      return 0;
    case OpKind::kFilter:
    case OpKind::kBooleanAnd:
    case OpKind::kBooleanOr:
    case OpKind::kMerge:
      return 2;
    case OpKind::kFusedMap:
      // Filter+project variant consumes (frame, mask); the pure series
      // chain consumes just the series.
      return desc.column.empty() ? 1 : 2;
    case OpKind::kCompare:
    case OpKind::kArith:
    case OpKind::kSetColumn:
      return desc.has_scalar ? 1 : 2;
    case OpKind::kPrint:
    case OpKind::kConcat:
      return -1;  // variadic
    default:
      return 1;
  }
}

bool IsMapOp(OpKind kind) {
  switch (kind) {
    case OpKind::kSelect:
    case OpKind::kGetColumn:
    case OpKind::kFilter:
    case OpKind::kCompare:
    case OpKind::kBooleanAnd:
    case OpKind::kBooleanOr:
    case OpKind::kBooleanNot:
    case OpKind::kIsNull:
    case OpKind::kStrContains:
    case OpKind::kSetColumn:
    case OpKind::kDropColumns:
    case OpKind::kRename:
    case OpKind::kArith:
    case OpKind::kAbs:
    case OpKind::kRound:
    case OpKind::kFillNa:
    case OpKind::kDropNa:
    case OpKind::kAsType:
    case OpKind::kToDatetime:
    case OpKind::kDtAccessor:
    case OpKind::kIsIn:
    case OpKind::kFusedMap:  // row-wise by construction: filter + per-row steps
      return true;
    default:
      return false;
  }
}

bool GetColumnEffects(const OpDesc& desc, std::vector<std::string>* used,
                      std::vector<std::string>* modified) {
  used->clear();
  modified->clear();
  switch (desc.kind) {
    case OpKind::kSelect:
      *used = desc.columns;
      return true;
    case OpKind::kGetColumn:
      *used = {desc.column};
      return true;
    case OpKind::kSetColumn:
      *modified = {desc.column};
      return true;
    case OpKind::kDropColumns:
      return true;  // drops columns; reads nothing per-row
    case OpKind::kRename:
      for (const auto& [from, to] : desc.rename) {
        used->push_back(from);
        modified->push_back(to);
      }
      return true;
    case OpKind::kCompare:
    case OpKind::kArith:
    case OpKind::kAbs:
    case OpKind::kRound:
    case OpKind::kAsType:
    case OpKind::kToDatetime:
    case OpKind::kDtAccessor:
    case OpKind::kIsNull:
    case OpKind::kStrContains:
    case OpKind::kBooleanAnd:
    case OpKind::kBooleanOr:
    case OpKind::kBooleanNot:
    case OpKind::kIsIn:
      // Series-level transforms: operate on whichever single column flows
      // in; they do not touch other columns of a frame.
      return true;
    case OpKind::kSortValues:
    case OpKind::kDropDuplicates:
      // Read their key columns, modify nothing.
      *used = desc.columns;
      return true;
    case OpKind::kFillNa:
    case OpKind::kDropNa:
      // Reads every column (to find nulls); modifies in place.
      return false;
    default:
      return false;  // unknown effects: pushdown barrier
  }
}

bool IsRowwiseInvariant(OpKind kind) {
  switch (kind) {
    case OpKind::kSelect:
    case OpKind::kGetColumn:
    case OpKind::kSetColumn:
    case OpKind::kDropColumns:
    case OpKind::kRename:
    case OpKind::kCompare:
    case OpKind::kArith:
    case OpKind::kAbs:
    case OpKind::kRound:
    case OpKind::kFillNa:
    case OpKind::kAsType:
    case OpKind::kToDatetime:
    case OpKind::kDtAccessor:
    case OpKind::kIsNull:
    case OpKind::kStrContains:
    case OpKind::kBooleanAnd:
    case OpKind::kBooleanOr:
    case OpKind::kBooleanNot:
    case OpKind::kIsIn:
    case OpKind::kSortValues:       // value of surviving rows unchanged
    case OpKind::kDropDuplicates:   // filtering first removes the same rows
    case OpKind::kFilter:
      return true;
    default:
      return false;
  }
}

}  // namespace lafp::exec
