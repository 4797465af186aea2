#include "steiner/candidates.hpp"

#include <algorithm>
#include <unordered_set>

namespace fpr {

namespace {

std::vector<NodeId> subsample(std::vector<NodeId> nodes, int max_candidates) {
  if (max_candidates <= 0 || static_cast<int>(nodes.size()) <= max_candidates) return nodes;
  std::vector<NodeId> picked;
  picked.reserve(static_cast<std::size_t>(max_candidates));
  const double stride = static_cast<double>(nodes.size()) / max_candidates;
  for (int i = 0; i < max_candidates; ++i) {
    picked.push_back(nodes[static_cast<std::size_t>(i * stride)]);
  }
  return picked;
}

}  // namespace

std::vector<NodeId> steiner_candidates(const Graph& g, std::span<const NodeId> terminals,
                                       PathOracle& oracle, CandidateStrategy strategy,
                                       int max_candidates) {
  const std::unordered_set<NodeId> terminal_set(terminals.begin(), terminals.end());
  std::vector<NodeId> nodes;

  switch (strategy) {
    case CandidateStrategy::kAllNodes: {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (g.node_active(v) && terminal_set.count(v) == 0) nodes.push_back(v);
      }
      break;
    }
    case CandidateStrategy::kCorridor: {
      std::unordered_set<NodeId> corridor;
      for (std::size_t i = 0; i < terminals.size(); ++i) {
        const auto& spt = oracle.from(terminals[i]);
        for (std::size_t j = i + 1; j < terminals.size(); ++j) {
          if (!spt.reached(terminals[j])) continue;
          for (const NodeId v : spt.path_nodes_to(terminals[j])) {
            corridor.insert(v);
            g.for_each_incident(v, [&](NodeId nbr, EdgeId e) {
              if (g.edge_usable(e)) corridor.insert(nbr);
            });
          }
        }
      }
      // fpr-lint: allow(unordered-iter) order-independent: membership filter only, and nodes is sorted on the next line
      for (const NodeId v : corridor) {
        if (g.node_active(v) && terminal_set.count(v) == 0) nodes.push_back(v);
      }
      std::sort(nodes.begin(), nodes.end());
      break;
    }
  }
  return subsample(std::move(nodes), max_candidates);
}

}  // namespace fpr
