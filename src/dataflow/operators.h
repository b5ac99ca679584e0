#ifndef CQ_DATAFLOW_OPERATORS_H_
#define CQ_DATAFLOW_OPERATORS_H_

/// \file operators.h
/// \brief Stateless dataflow operators: the Dataflow Model's ParDo family
/// (paper §4.1.1) plus sources and sinks.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cql/expr.h"
#include "cql/vector_eval.h"
#include "dataflow/operator.h"
#include "runtime/columnar_batch.h"

namespace cq {

/// \brief Identity operator: a named injection point for records and
/// watermarks (the in-graph stand-in for an external source).
class PassThroughOperator : public Operator {
 public:
  explicit PassThroughOperator(std::string name) : Operator(std::move(name)) {}
  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    out->Emit(element);
    return Status::OK();
  }
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kPassthrough;
  }
  bool PreservesPartitioning() const override { return true; }
};

/// \brief ParDo with exactly one output per input (map).
class MapOperator : public Operator {
 public:
  using Fn = std::function<Result<Tuple>(const Tuple&)>;
  MapOperator(std::string name, Fn fn)
      : Operator(std::move(name)), fn_(std::move(fn)) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    CQ_ASSIGN_OR_RETURN(Tuple t, fn_(element.tuple));
    out->Emit(StreamElement::Record(std::move(t), element.timestamp));
    return Status::OK();
  }

 private:
  Fn fn_;
};

/// \brief Predicate filter; accepts an Expr or an arbitrary function.
class FilterOperator : public Operator {
 public:
  using Fn = std::function<bool(const Tuple&)>;
  FilterOperator(std::string name, Fn fn)
      : Operator(std::move(name)), fn_(std::move(fn)) {}
  FilterOperator(std::string name, ExprPtr predicate)
      : Operator(std::move(name)),
        fn_([predicate](const Tuple& t) { return predicate->Matches(t); }),
        expr_(std::move(predicate)) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    if (fn_(element.tuple)) out->Emit(element);
    return Status::OK();
  }

  // Vectorized path: predicates given as an Expr evaluate column-wise into
  // the selection bitmap — no row materialisation. Arbitrary-function
  // filters stay on the row path (kNone via CanProcessColumnar false).
  ColumnarSupport columnar_support() const override {
    return expr_ ? ColumnarSupport::kTransform : ColumnarSupport::kNone;
  }
  bool CanProcessColumnar(const std::vector<ValueType>& in_types,
                          std::vector<ValueType>* out_types) const override {
    if (!expr_) return false;
    ValueType t;
    if (!CanVectorize(*expr_, in_types, &t)) return false;
    // Matches() collapses non-bool results to false row-wise; the
    // vectorizer only ever yields kBool or all-NULL predicates, both of
    // which FilterSelection maps to "no match" exactly like the row path.
    if (t != ValueType::kBool && t != ValueType::kNull) return false;
    if (out_types) *out_types = in_types;  // selection-only: schema unchanged
    return true;
  }
  void ProcessColumnarTransform(ColumnarBatch* batch,
                                const OperatorContext&) override {
    Column keep = EvalVector(*expr_, batch->columns(), batch->num_rows());
    batch->FilterSelection(keep);
  }

  // Record-wise and schema-preserving: survivors keep their key columns.
  bool PreservesPartitioning() const override { return true; }

 private:
  Fn fn_;
  ExprPtr expr_;  // set when constructed from an Expr (vectorizable)
};

/// \brief ParDo with zero or more outputs per input (flat map).
class FlatMapOperator : public Operator {
 public:
  using Fn = std::function<Result<std::vector<Tuple>>(const Tuple&)>;
  FlatMapOperator(std::string name, Fn fn)
      : Operator(std::move(name)), fn_(std::move(fn)) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    CQ_ASSIGN_OR_RETURN(std::vector<Tuple> ts, fn_(element.tuple));
    for (auto& t : ts) {
      out->Emit(StreamElement::Record(std::move(t), element.timestamp));
    }
    return Status::OK();
  }

 private:
  Fn fn_;
};

/// \brief Projection via expressions (the map special case the SQL frontend
/// compiles to).
class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::string name, std::vector<ExprPtr> exprs)
      : Operator(std::move(name)), exprs_(std::move(exprs)) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    std::vector<Value> vals;
    vals.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      CQ_ASSIGN_OR_RETURN(Value v, e->Eval(element.tuple));
      vals.push_back(std::move(v));
    }
    out->Emit(StreamElement::Record(Tuple(std::move(vals)), element.timestamp));
    return Status::OK();
  }

  // Vectorized path: every projection expression runs as a typed loop and
  // the batch's column set is swapped in place (timestamps, selection, and
  // watermark positions are untouched).
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kTransform;
  }
  bool CanProcessColumnar(const std::vector<ValueType>& in_types,
                          std::vector<ValueType>* out_types) const override {
    std::vector<ValueType> types;
    types.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      ValueType t;
      if (!CanVectorize(*e, in_types, &t)) return false;
      types.push_back(t);
    }
    if (out_types) *out_types = std::move(types);
    return true;
  }
  void ProcessColumnarTransform(ColumnarBatch* batch,
                                const OperatorContext&) override {
    std::vector<Column> cols;
    cols.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      cols.push_back(EvalVector(*e, batch->columns(), batch->num_rows()));
    }
    batch->ReplaceColumns(std::move(cols));
  }

 private:
  std::vector<ExprPtr> exprs_;
};

/// \brief Collects records into a BoundedStream (test/bench sink).
class CollectSinkOperator : public Operator {
 public:
  CollectSinkOperator(std::string name, BoundedStream* out)
      : Operator(std::move(name)), out_(out) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector*) override {
    out_->Append(element);
    return Status::OK();
  }

 private:
  BoundedStream* out_;
};

/// \brief Invokes a callback per record (application sink).
class CallbackSinkOperator : public Operator {
 public:
  using Fn = std::function<Status(const StreamElement&)>;
  CallbackSinkOperator(std::string name, Fn fn)
      : Operator(std::move(name)), fn_(std::move(fn)) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector*) override {
    return fn_(element);
  }

 private:
  Fn fn_;
};

/// \brief Counts records and tracks the max timestamp (throughput probes).
class CountingSinkOperator : public Operator {
 public:
  explicit CountingSinkOperator(std::string name)
      : Operator(std::move(name)) {}

  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector*) override {
    ++count_;
    if (element.timestamp > max_ts_) max_ts_ = element.timestamp;
    return Status::OK();
  }

  // Vectorized path: counts selected rows straight off the batch — no
  // tuple materialisation at all.
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kConsume;
  }
  bool CanProcessColumnar(const std::vector<ValueType>&,
                          std::vector<ValueType>*) const override {
    return true;
  }
  Status ProcessColumnarSegment(size_t, const ColumnarBatch& batch,
                                size_t begin, size_t end,
                                const OperatorContext&, Collector*,
                                bool* handled) override {
    *handled = true;
    for (size_t i = begin; i < end; ++i) {
      if (!batch.IsSelected(i)) continue;
      ++count_;
      if (batch.timestamp(i) > max_ts_) max_ts_ = batch.timestamp(i);
    }
    return Status::OK();
  }

  uint64_t count() const { return count_; }
  Timestamp max_timestamp() const { return max_ts_; }

 private:
  uint64_t count_ = 0;
  Timestamp max_ts_ = kMinTimestamp;
};

}  // namespace cq

#endif  // CQ_DATAFLOW_OPERATORS_H_
