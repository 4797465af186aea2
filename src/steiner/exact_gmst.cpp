#include "steiner/exact_gmst.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/contract.hpp"

namespace fpr {

namespace {

/// Backpointer for reconstructing the optimal tree.
struct Choice {
  enum class Kind : std::uint8_t { kNone, kRoot, kMerge, kEdge };
  Kind kind = Kind::kNone;
  std::uint32_t sub = 0;    // for kMerge: one side of the split
  NodeId from = kInvalidNode;  // for kEdge: the relaxing neighbor
  EdgeId edge = kInvalidEdge;  // for kEdge
};

}  // namespace

std::optional<RoutingTree> exact_gmst(const Graph& g, std::span<const NodeId> net,
                                      PathOracle& /*oracle*/, int max_terminals) {
  std::vector<NodeId> terminals(net.begin(), net.end());
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()), terminals.end());
  const int k = static_cast<int>(terminals.size());
  if (k > max_terminals) return std::nullopt;
  if (k < 2) return RoutingTree(g, {});
  for (const NodeId t : terminals) {
    if (!g.node_active(t)) return std::nullopt;
  }

  const auto n = static_cast<std::size_t>(g.node_count());
  const std::uint32_t full = (1u << k) - 1;
  std::vector<std::vector<Weight>> dp(full + 1, std::vector<Weight>(n, kInfiniteWeight));
  std::vector<std::vector<Choice>> choice(full + 1, std::vector<Choice>(n));

  for (int i = 0; i < k; ++i) {
    const auto t = static_cast<std::size_t>(terminals[static_cast<std::size_t>(i)]);
    dp[1u << i][t] = 0;
    choice[1u << i][t].kind = Choice::Kind::kRoot;
  }

  using Entry = std::pair<Weight, NodeId>;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    auto& row = dp[mask];
    auto& ch = choice[mask];
    // Merge two complementary sub-trees meeting at v. Enumerating sub < rest
    // (canonical split) halves the work.
    for (std::uint32_t sub = (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask) {
      const std::uint32_t rest = mask ^ sub;
      if (sub > rest) continue;
      const auto& a = dp[sub];
      const auto& b = dp[rest];
      for (std::size_t v = 0; v < n; ++v) {
        const Weight c = a[v] + b[v];
        if (c < row[v]) {
          row[v] = c;
          ch[v] = Choice{Choice::Kind::kMerge, sub, kInvalidNode, kInvalidEdge};
        }
      }
    }
    // Dijkstra relaxation: grow the tree for this mask along graph edges.
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (std::size_t v = 0; v < n; ++v) {
      if (row[v] < kInfiniteWeight) heap.emplace(row[v], static_cast<NodeId>(v));
    }
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > row[static_cast<std::size_t>(u)]) continue;
      g.for_each_incident(u, [&](NodeId v, EdgeId e) {
        if (!g.edge_usable(e)) return;
        const Weight nd = d + g.edge_weight(e);
        auto& dv = row[static_cast<std::size_t>(v)];
        if (nd < dv) {
          dv = nd;
          ch[static_cast<std::size_t>(v)] = Choice{Choice::Kind::kEdge, 0, u, e};
          heap.emplace(nd, v);
        }
      });
    }
  }

  const auto root = static_cast<std::size_t>(terminals[0]);
  if (dp[full][root] >= kInfiniteWeight) return std::nullopt;

  // Reconstruct edges by walking the backpointers.
  std::vector<EdgeId> edges;
  std::vector<std::pair<std::uint32_t, NodeId>> stack{{full, terminals[0]}};
  while (!stack.empty()) {
    const auto [mask, v] = stack.back();
    stack.pop_back();
    const Choice& c = choice[mask][static_cast<std::size_t>(v)];
    switch (c.kind) {
      case Choice::Kind::kRoot:
        break;
      case Choice::Kind::kMerge:
        stack.emplace_back(c.sub, v);
        stack.emplace_back(mask ^ c.sub, v);
        break;
      case Choice::Kind::kEdge:
        edges.push_back(c.edge);
        stack.emplace_back(mask, c.from);
        break;
      case Choice::Kind::kNone:
        FPR_CHECK(false, "exact GMST reconstruction reached an unset dp cell (mask "
                             << mask << ", node " << v << ")");
        break;
    }
  }

  RoutingTree tree(g, std::move(edges));
  tree.prune_leaves(terminals);
  return tree;
}

std::optional<RoutingTree> exact_gmst(const Graph& g, std::span<const NodeId> net,
                                      int max_terminals) {
  PathOracle oracle(g);
  return exact_gmst(g, net, oracle, max_terminals);
}

}  // namespace fpr
