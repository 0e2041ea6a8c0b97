#ifndef LAFP_EXEC_OP_H_
#define LAFP_EXEC_OP_H_

#include <map>
#include <string>
#include <vector>

#include "dataframe/ops.h"
#include "io/columnar.h"
#include "io/csv.h"

namespace lafp::exec {

/// The operator vocabulary of the LaFP task graph (paper §2.5). Each node
/// of the graph is one OpDesc plus edges to its inputs.
enum class OpKind : int {
  kReadCsv = 0,     // leaf; path + CsvReadOptions
  kSelect,          // df[["a","b"]]         (frame -> frame)
  kGetColumn,       // df["a"] / df.a        (frame -> series)
  kFilter,          // df[mask]              (frame, mask -> frame)
  kCompare,         // col <op> scalar|col   (series[,series] -> bool series)
  kBooleanAnd,      // mask & mask
  kBooleanOr,       // mask | mask
  kBooleanNot,      // ~mask
  kIsNull,          // col.isna()
  kStrContains,     // col.str.contains(s)
  kSetColumn,       // df["x"] = series|scalar (frame[,series] -> frame)
  kDropColumns,     // df.drop(columns=[...])
  kRename,          // df.rename(columns={...})
  kArith,           // series <op> scalar|series
  kAbs,             // series.abs()
  kRound,           // series.round(d)
  kFillNa,          // df/series.fillna(v)
  kDropNa,          // df.dropna()
  kAsType,          // series.astype(t)
  kToDatetime,      // to_datetime(series)
  kDtAccessor,      // series.dt.<field>
  kGroupByAgg,      // df.groupby(keys).agg(...)
  kReduce,          // series.sum()/mean()/... (series -> scalar)
  kMerge,           // merge(left, right, on=...)
  kSortValues,      // df.sort_values(by=...)
  kDropDuplicates,  // df.drop_duplicates(subset=...)
  kUnique,          // series.unique()
  kValueCounts,     // series.value_counts()
  kDescribe,        // df.describe()
  kHead,            // df.head(n)
  kPrint,           // lazy print (paper §3.3); side effect, returns none
  kLen,             // len(df) -> scalar (lazy integer)
  kIsIn,            // col.isin([...]) -> bool series
  kConcat,          // pd.concat([a, b, ...]) (variadic)
  kReadLfc,         // leaf; path + LfcReadOptions (native columnar scan)
  kMaterialized,    // leaf carrying a cached result (cache splice); the
                    // payload lives on the TaskNode, never in OpDesc
  kFusedMap,        // optimizer-fused elementwise chain (§fusion): either
                    // filter+project+steps (frame, mask -> series; `column`
                    // names the projected column) or a pure series chain
                    // (series -> series; `column` empty). The per-element
                    // steps live in `fused`, applied in order in one
                    // morsel pass with no intermediate materialization.
};

const char* OpKindName(OpKind kind);

/// Full description of one operator instance. A plain struct: only the
/// fields relevant to `kind` are meaningful (documented per field).
struct OpDesc {
  OpKind kind = OpKind::kReadCsv;

  std::string path;                 // kReadCsv / kReadLfc
  io::CsvReadOptions csv_options;   // kReadCsv (usecols/dtypes carry the
                                    // column-selection & metadata rewrites)
  io::LfcReadOptions lfc_options;   // kReadLfc (usecols/nrows mirror the
                                    // CSV knobs; prune holds zone-map
                                    // predicates attached by the optimizer)

  std::vector<std::string> columns;  // kSelect / kDropColumns /
                                     // kGroupByAgg keys / kMerge on /
                                     // kSortValues by / kDropDuplicates subset
  std::string column;                // kGetColumn / kSetColumn target

  df::CompareOp compare_op = df::CompareOp::kEq;  // kCompare
  df::ArithOp arith_op = df::ArithOp::kAdd;       // kArith
  bool scalar_on_left = false;                    // kArith: scalar <op> col
  bool has_scalar = false;     // kCompare/kArith/kSetColumn/kFillNa use
                               // `scalar` instead of a second input
  df::Scalar scalar;           // see has_scalar

  std::vector<df::AggSpec> aggs;       // kGroupByAgg
  df::AggFunc agg_func = df::AggFunc::kSum;  // kReduce
  std::vector<bool> ascending;         // kSortValues
  df::JoinType join_type = df::JoinType::kInner;  // kMerge
  df::DataType dtype = df::DataType::kString;     // kAsType
  df::DtField dt_field = df::DtField::kDayOfWeek; // kDtAccessor
  size_t n = 5;                        // kHead
  std::map<std::string, std::string> rename;  // kRename
  std::string str_arg;                 // kStrContains needle; kPrint prefix
  std::vector<df::Scalar> scalar_list;  // kIsIn membership values
  int digits = 0;                      // kRound

  /// kFusedMap: the fused elementwise steps, in application order. Each
  /// entry is a full OpDesc of an eligible step kind (kArith/kCompare with
  /// has_scalar, kAbs, kRound, kBooleanNot, kIsNull) whose single input is
  /// the running value of the chain.
  std::vector<OpDesc> fused;

  /// Human-readable summary for debug dumps / DOT output.
  std::string ToString() const;

  /// Structural fingerprint for common-subexpression detection (§3.5):
  /// two nodes with equal fingerprints and equal input nodes compute the
  /// same value.
  std::string Fingerprint() const;
};

/// Number of dataframe inputs `desc` consumes (print is variadic and
/// returns -1).
int ExpectedArity(const OpDesc& desc);

/// A map op applies independently per partition (row-wise): the
/// partitioned executor runs it partition-local.
bool IsMapOp(OpKind kind);

/// Columns a filter predicate / op uses and modifies — the safe-point
/// machinery of predicate pushdown (§3.2). `used` is filled with the
/// columns `desc` reads from its primary input; `modified` with columns it
/// creates or overwrites. Returns false if the op's column usage cannot be
/// determined statically (pushdown must then treat it as a barrier).
bool GetColumnEffects(const OpDesc& desc, std::vector<std::string>* used,
                      std::vector<std::string>* modified);

/// True if filtering rows of the op's input cannot change the op's output
/// on the surviving rows (condition (2) of §3.2). False for aggregations,
/// joins, sorts, row-multiplying ops, etc.
bool IsRowwiseInvariant(OpKind kind);

}  // namespace lafp::exec

#endif  // LAFP_EXEC_OP_H_
