#ifndef CQ_DATAFLOW_GRAPH_H_
#define CQ_DATAFLOW_GRAPH_H_

/// \file graph.h
/// \brief The dataflow DAG (paper §4.1.1, Fig. 5): operators as nodes,
/// directed edges carrying records and watermarks between them.
///
/// Graphs are mutable while live: the continuous-query service splices new
/// query subgraphs into a running dataflow (AddNode/Connect) and tears them
/// down again (RemoveNode). Removal tombstones the node — ids
/// are never reused, so NodeId remains a stable handle — and erases every
/// edge touching it. Validate() checks the invariants dynamic mutation can
/// break: acyclicity, no dangling edges, port arities, and input-count
/// consistency.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/operator.h"

namespace cq {

using NodeId = size_t;

/// \brief A DAG of operators under construction / execution.
class DataflowGraph {
 public:
  /// \brief Adds an operator; returns its node id.
  NodeId AddNode(std::unique_ptr<Operator> op);

  /// \brief Wires `from`'s output into `to`'s input port `to_port`.
  Status Connect(NodeId from, NodeId to, size_t to_port = 0);

  /// \brief Removes a node from a (possibly live) graph: erases every edge
  /// into and out of it, then tombstones the slot. The node id is never
  /// reused. Returns the extracted operator (callers may keep it alive while
  /// concurrent readers drain, or drop it immediately).
  Result<std::unique_ptr<Operator>> RemoveNode(NodeId id);

  /// \brief True when `id` names a present (non-removed) node.
  bool is_live(NodeId id) const {
    return id < nodes_.size() && nodes_[id].op != nullptr;
  }

  /// \brief Id-space bound: includes tombstoned slots (node ids are stable).
  size_t num_nodes() const { return nodes_.size(); }

  /// \brief Count of live (non-removed) nodes.
  size_t num_live_nodes() const;

  Operator* node(NodeId id) { return nodes_[id].op.get(); }
  const Operator* node(NodeId id) const { return nodes_[id].op.get(); }

  struct Edge {
    NodeId to;
    size_t port;
  };
  const std::vector<Edge>& outputs(NodeId id) const {
    return nodes_[id].outputs;
  }
  size_t num_inputs(NodeId id) const { return nodes_[id].num_inputs; }

  /// \brief Live nodes with no incoming edges (the graph's sources).
  std::vector<NodeId> SourceNodes() const;

  /// \brief Topological order over live nodes; PlanError on a cycle.
  Result<std::vector<NodeId>> TopologicalOrder() const;

  /// \brief Validates the mutation invariants: acyclic; every edge ends at a
  /// live node on a port within the operator's arity; recorded input counts
  /// match the edges. Call after splicing into / tearing out of a live graph.
  Status Validate() const;

  /// \brief Extracts ownership of a node's operator (for rewrite passes
  /// such as chain fusion). The graph must not be executed afterwards.
  std::unique_ptr<Operator> ReleaseOperator(NodeId id) {
    return std::move(nodes_[id].op);
  }

  std::string ToString() const;

 private:
  struct Node {
    std::unique_ptr<Operator> op;
    std::vector<Edge> outputs;
    size_t num_inputs = 0;  // count of incoming edges
  };
  std::vector<Node> nodes_;
};

}  // namespace cq

#endif  // CQ_DATAFLOW_GRAPH_H_
