#include "nmc_lint/call_graph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <string>

#include "nmc_lint/scopes.h"

namespace nmc::lint {

namespace {

std::vector<std::string> SplitQualified(const std::string& name) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= name.size()) {
    const size_t sep = name.find("::", begin);
    if (sep == std::string::npos) {
      if (begin < name.size()) parts.push_back(name.substr(begin));
      break;
    }
    if (sep > begin) parts.push_back(name.substr(begin, sep - begin));
    begin = sep + 2;
  }
  return parts;
}

/// `quals` must be a suffix of the node's namespace::class path for a
/// qualified call to resolve to it (`GeometricSkip::EnsureGap` matches
/// nmc::common + GeometricSkip).
bool QualSuffixMatches(const FunctionSymbol& node,
                       const std::vector<std::string>& quals) {
  std::vector<std::string> path = SplitQualified(node.name_space);
  if (!node.class_name.empty()) path.push_back(node.class_name);
  if (quals.size() > path.size()) return false;
  return std::equal(quals.rbegin(), quals.rend(), path.rbegin());
}

}  // namespace

// ---- construction ---------------------------------------------------------

CallGraph CallGraph::Build(const std::vector<const FileSymbols*>& files) {
  CallGraph graph;
  // Node order: files in the caller's (sorted) order, functions in source
  // order within each file — the determinism everything downstream rests on.
  std::vector<size_t> offsets(files.size(), 0);
  for (size_t fi = 0; fi < files.size(); ++fi) {
    offsets[fi] = graph.nodes_.size();
    for (const FunctionSymbol& fn : files[fi]->functions) {
      graph.nodes_.push_back(fn);
    }
  }
  graph.adjacency_.resize(graph.nodes_.size());

  std::map<std::string, std::vector<size_t>> by_name;
  for (size_t n = 0; n < graph.nodes_.size(); ++n) {
    by_name[graph.nodes_[n].name].push_back(n);
  }

  auto add_edge = [&](size_t caller, size_t callee, int line) {
    for (const GraphEdge& edge : graph.adjacency_[caller]) {
      if (edge.callee == callee) return;  // keep the earliest call site
    }
    graph.adjacency_[caller].push_back({callee, line});
  };

  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const CallSite& call : files[fi]->calls) {
      const size_t caller = offsets[fi] + call.caller_index;
      const FunctionSymbol& from = graph.nodes_[caller];
      if (!call.quals.empty() && call.quals.front() == "std") continue;
      const auto found = by_name.find(call.name);
      if (found == by_name.end()) continue;
      std::vector<size_t> candidates = found->second;
      if (!call.quals.empty()) {
        std::vector<size_t> matched;
        for (const size_t n : candidates) {
          if (QualSuffixMatches(graph.nodes_[n], call.quals)) {
            matched.push_back(n);
          }
        }
        if (matched.empty()) continue;
        candidates = std::move(matched);
      } else if (call.member_call) {
        // `x.f()` / `x->f()`: the receiver's type is unknown, so prefer
        // member functions, the caller's own class first (this->f()).
        std::vector<size_t> members, own_class;
        for (const size_t n : candidates) {
          if (graph.nodes_[n].class_name.empty()) continue;
          members.push_back(n);
          if (!from.class_name.empty() &&
              graph.nodes_[n].class_name == from.class_name) {
            own_class.push_back(n);
          }
        }
        if (!own_class.empty()) {
          candidates = std::move(own_class);
        } else if (!members.empty()) {
          candidates = std::move(members);
        }
      } else {
        // Bare call: same class beats same file beats same namespace beats
        // the whole overload set.
        auto tier = [&](auto pred) {
          std::vector<size_t> out;
          for (const size_t n : candidates) {
            if (pred(graph.nodes_[n])) out.push_back(n);
          }
          return out;
        };
        std::vector<size_t> best;
        if (!from.class_name.empty()) {
          best = tier([&](const FunctionSymbol& f) {
            return f.class_name == from.class_name;
          });
        }
        if (best.empty()) {
          best = tier([&](const FunctionSymbol& f) {
            return f.file == from.file;
          });
        }
        if (best.empty() && !from.name_space.empty()) {
          best = tier([&](const FunctionSymbol& f) {
            return f.name_space == from.name_space;
          });
        }
        if (!best.empty()) candidates = std::move(best);
      }
      for (const size_t callee : candidates) {
        add_edge(caller, callee, call.line);
      }
    }
  }
  for (std::vector<GraphEdge>& edges : graph.adjacency_) {
    std::sort(edges.begin(), edges.end(),
              [](const GraphEdge& a, const GraphEdge& b) {
                return a.callee < b.callee;
              });
  }
  return graph;
}

// ---- roots and reachability -----------------------------------------------

std::vector<size_t> CallGraph::ReentrancyRoots() const {
  auto named = [](const auto& table, const std::string& name) {
    return std::any_of(std::begin(table), std::end(table),
                       [&](const char* entry) { return name == entry; });
  };
  std::vector<size_t> roots;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const FunctionSymbol& fn = nodes_[n];
    if ((InProtocolCode(fn.file) &&
         named(kReentrantAuditEntryPoints, fn.name)) ||
        (InLibraryCode(fn.file) &&
         named(kReentrantAuditClasses, fn.class_name)) ||
        fn.annotation == ThreadAnnotation::kReentrant) {
      roots.push_back(n);
    }
  }
  return roots;
}

Reachability CallGraph::ReachableFrom(const std::vector<size_t>& roots) const {
  Reachability reach;
  reach.parent.assign(nodes_.size(), Reachability::kUnreached);
  reach.parent_line.assign(nodes_.size(), 0);
  reach.depth.assign(nodes_.size(), -1);
  std::deque<size_t> queue;
  for (const size_t root : roots) {
    if (reach.depth[root] != -1) continue;
    reach.depth[root] = 0;
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const size_t from = queue.front();
    queue.pop_front();
    for (const GraphEdge& edge : adjacency_[from]) {
      if (reach.depth[edge.callee] != -1) continue;
      reach.depth[edge.callee] = reach.depth[from] + 1;
      reach.parent[edge.callee] = from;
      reach.parent_line[edge.callee] = edge.line;
      queue.push_back(edge.callee);
    }
  }
  return reach;
}

std::vector<size_t> CallGraph::ChainTo(const Reachability& reach,
                                       size_t node) const {
  std::vector<size_t> chain;
  if (!reach.Reached(node)) return chain;
  for (size_t cur = node;; cur = reach.parent[cur]) {
    chain.push_back(cur);
    if (reach.parent[cur] == Reachability::kUnreached) break;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::string CallGraph::RenderChain(const std::vector<size_t>& chain) const {
  std::string out = " [call chain: ";
  for (size_t i = 0; i < chain.size(); ++i) {
    const FunctionSymbol& fn = nodes_[chain[i]];
    if (i > 0) out += " -> ";
    out += fn.Display() + " (" + fn.file + ":" + std::to_string(fn.line) + ")";
  }
  return out + "]";
}

std::vector<FlowStep> CallGraph::ChainFlow(const Reachability& reach,
                                           const std::vector<size_t>& chain,
                                           const std::string& hazard_file,
                                           int hazard_line,
                                           const std::string& hazard_note)
    const {
  std::vector<FlowStep> flow;
  for (size_t i = 0; i < chain.size(); ++i) {
    const FunctionSymbol& fn = nodes_[chain[i]];
    if (i == 0) {
      flow.push_back({fn.file, fn.line, fn.Display() + "() is an entry point"});
    } else {
      const FunctionSymbol& caller = nodes_[chain[i - 1]];
      flow.push_back({caller.file, reach.parent_line[chain[i]],
                      "calls " + fn.Display() + "()"});
    }
  }
  flow.push_back({hazard_file, hazard_line, hazard_note});
  return flow;
}

// ---- interprocedural rules ------------------------------------------------

void RunInterprocRules(const std::vector<const FileSymbols*>& files,
                       const CallGraph& graph,
                       std::map<std::string, std::vector<Finding>>*
                           findings_by_file) {
  // (file index, per-file function index) → graph node index; Build()
  // appended nodes in exactly this order.
  std::vector<size_t> offsets(files.size(), 0);
  {
    size_t total = 0;
    for (size_t fi = 0; fi < files.size(); ++fi) {
      offsets[fi] = total;
      total += files[fi]->functions.size();
    }
  }
  // 1. NO_STATIC_LOCAL_IN_REENTRANT: mutable function-local statics
  //    anywhere the reentrancy audit can reach (depth 0 included — a static
  //    local directly in ProcessBatch is just as shared).
  const Reachability audit = graph.ReachableFrom(graph.ReentrancyRoots());
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const FileSymbols& file = *files[fi];
    if (!InLibraryCode(file.file)) continue;
    for (const StaticLocal& local : file.static_locals) {
      const size_t node = offsets[fi] + local.function_index;
      if (!audit.Reached(node)) continue;
      const FunctionSymbol& fn = file.functions[local.function_index];
      const std::vector<size_t> chain = graph.ChainTo(audit, node);
      const std::string named =
          local.hint.empty() ? "" : " '" + local.hint + "'";
      Finding finding;
      finding.file = file.file;
      finding.line = local.line;
      finding.rule = "NO_STATIC_LOCAL_IN_REENTRANT";
      finding.message =
          "mutable function-local static" + named + " in " + fn.Display() +
          "() is process-wide state on a reentrant path; hoist it into a "
          "member, or make it const/thread_local" +
          graph.RenderChain(chain);
      finding.flow = graph.ChainFlow(audit, chain, file.file, local.line,
                                     "static local" + named);
      (*findings_by_file)[file.file].push_back(std::move(finding));
    }
  }

  // 2. THREAD_COMPAT: a declared-reentrant function may only call resolved
  //    callees that are themselves declared reentrant.
  const std::vector<FunctionSymbol>& nodes = graph.nodes();
  for (size_t n = 0; n < nodes.size(); ++n) {
    const FunctionSymbol& caller = nodes[n];
    if (caller.annotation != ThreadAnnotation::kReentrant ||
        !InLibraryCode(caller.file)) {
      continue;
    }
    for (const GraphEdge& edge : graph.adjacency()[n]) {
      const FunctionSymbol& callee = nodes[edge.callee];
      if (callee.annotation == ThreadAnnotation::kReentrant) continue;
      Finding finding;
      finding.file = caller.file;
      finding.line = edge.line;
      finding.rule = "THREAD_COMPAT";
      if (callee.annotation == ThreadAnnotation::kNotThreadSafe) {
        finding.message = "reentrant " + caller.Display() +
                          "() calls not-thread-safe " + callee.Display() +
                          "() (" + callee.file + ":" +
                          std::to_string(callee.line) +
                          "); a reentrant function may only call reentrant "
                          "functions";
      } else {
        finding.message = "reentrant " + caller.Display() +
                          "() calls unannotated " + callee.Display() + "() (" +
                          callee.file + ":" + std::to_string(callee.line) +
                          "); annotate the callee (// nmc: reentrant or "
                          "// nmc: not-thread-safe(reason)) or drop the "
                          "caller's contract";
      }
      finding.flow = {
          {caller.file, caller.line,
           caller.Display() + "() declared reentrant"},
          {caller.file, edge.line, "calls " + callee.Display() + "()"},
          {callee.file, callee.line, callee.Display() + "() defined here"}};
      (*findings_by_file)[caller.file].push_back(std::move(finding));
    }
  }
}

}  // namespace nmc::lint
