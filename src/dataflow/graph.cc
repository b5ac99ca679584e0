#include "dataflow/graph.h"

#include <algorithm>
#include <deque>

namespace cq {

NodeId DataflowGraph::AddNode(std::unique_ptr<Operator> op) {
  nodes_.push_back(Node{std::move(op), {}, 0});
  return nodes_.size() - 1;
}

Status DataflowGraph::Connect(NodeId from, NodeId to, size_t to_port) {
  if (!is_live(from) || !is_live(to)) {
    return Status::InvalidArgument("Connect: node id out of range or removed");
  }
  if (to_port >= nodes_[to].op->num_input_ports()) {
    return Status::InvalidArgument(
        "Connect: port " + std::to_string(to_port) + " out of range for '" +
        nodes_[to].op->name() + "'");
  }
  nodes_[from].outputs.push_back({to, to_port});
  nodes_[to].num_inputs++;
  return Status::OK();
}

Result<std::unique_ptr<Operator>> DataflowGraph::RemoveNode(NodeId id) {
  if (!is_live(id)) {
    return Status::InvalidArgument("RemoveNode: node id out of range or "
                                   "already removed");
  }
  // Erase inbound edges (upstream nodes pointing at `id`).
  for (auto& n : nodes_) {
    if (n.op == nullptr || n.outputs.empty()) continue;
    n.outputs.erase(std::remove_if(n.outputs.begin(), n.outputs.end(),
                                   [id](const Edge& e) { return e.to == id; }),
                    n.outputs.end());
  }
  // Erase outbound edges (decrement downstream input counts).
  for (const auto& e : nodes_[id].outputs) {
    nodes_[e.to].num_inputs--;
  }
  std::unique_ptr<Operator> op = std::move(nodes_[id].op);
  nodes_[id].outputs.clear();
  nodes_[id].num_inputs = 0;
  return op;
}

size_t DataflowGraph::num_live_nodes() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.op != nullptr) ++n;
  }
  return n;
}

std::vector<NodeId> DataflowGraph::SourceNodes() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op != nullptr && nodes_[i].num_inputs == 0) out.push_back(i);
  }
  return out;
}

Result<std::vector<NodeId>> DataflowGraph::TopologicalOrder() const {
  std::vector<size_t> indegree(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    for (const auto& e : n.outputs) indegree[e.to]++;
  }
  std::deque<NodeId> ready;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op != nullptr && indegree[i] == 0) ready.push_back(i);
  }
  size_t live = num_live_nodes();
  std::vector<NodeId> order;
  order.reserve(live);
  while (!ready.empty()) {
    NodeId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const auto& e : nodes_[id].outputs) {
      if (--indegree[e.to] == 0) ready.push_back(e.to);
    }
  }
  if (order.size() != live) {
    return Status::PlanError("dataflow graph has a cycle");
  }
  return order;
}

Status DataflowGraph::Validate() const {
  std::vector<size_t> inputs_seen(nodes_.size(), 0);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.op == nullptr) {
      if (!n.outputs.empty() || n.num_inputs != 0) {
        return Status::Internal("removed node " + std::to_string(i) +
                                " still has edges");
      }
      continue;
    }
    for (const auto& e : n.outputs) {
      if (e.to >= nodes_.size() || nodes_[e.to].op == nullptr) {
        return Status::Internal("dangling edge " + std::to_string(i) +
                                " -> " + std::to_string(e.to));
      }
      if (e.port >= nodes_[e.to].op->num_input_ports()) {
        return Status::Internal(
            "edge " + std::to_string(i) + " -> " + std::to_string(e.to) +
            " targets port " + std::to_string(e.port) + " beyond arity of '" +
            nodes_[e.to].op->name() + "'");
      }
      inputs_seen[e.to]++;
    }
  }
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op != nullptr && inputs_seen[i] != nodes_[i].num_inputs) {
      return Status::Internal("node " + std::to_string(i) +
                              " input count out of sync with edges");
    }
  }
  CQ_RETURN_NOT_OK(TopologicalOrder().status());
  return Status::OK();
}

std::string DataflowGraph::ToString() const {
  std::string out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op == nullptr) continue;
    out += "[" + std::to_string(i) + "] " + nodes_[i].op->name();
    if (!nodes_[i].outputs.empty()) {
      out += " ->";
      for (const auto& e : nodes_[i].outputs) {
        out += " " + std::to_string(e.to) + ":" + std::to_string(e.port);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace cq
