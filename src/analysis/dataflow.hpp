#pragma once
// A small gen/kill dataflow framework over the statement CFGs (cfg.hpp)
// for sfplint v3's flow-sensitive passes.
//
// Facts are dense bit indices chosen by the client pass — typically one
// per tracked local variable. The solver runs the classic worklist
// iteration to a fixpoint: `may` problems join with union (a fact holds
// if it reaches on SOME path) from an all-zero start, `must` problems
// join with intersection (the fact holds on EVERY path) from an all-one
// start, in either direction. Edge kills refine branch conditions: a pass
// can kill a fact along one edge of a guard such as `if (fd < 0) return;`
// so the guard's early return does not carry it.

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"

namespace sfp::analysis {

/// Bit-vector per CFG node: facts[node][fact] in {0, 1}.
using fact_sets = std::vector<std::vector<char>>;

struct dataflow_problem {
  int num_facts = 0;
  bool forward = true;
  bool may = true;             ///< union join; false = intersection (must)
  fact_sets gen, kill;         ///< indexed [node][fact]
  std::vector<char> boundary;  ///< entry out-set (forward) / exit in-set
                               ///< (backward); empty = all zeros
  /// Facts killed when control takes the edge (from, to) specifically.
  std::map<std::pair<int, int>, std::vector<char>> edge_kill;
};

struct dataflow_result {
  fact_sets in, out;  ///< fixpoint in/out sets per node
};

/// All-zero fact sets sized for `cfg` x `num_facts`.
fact_sets make_fact_sets(const function_cfg& cfg, int num_facts);

dataflow_result solve_dataflow(const function_cfg& cfg,
                               const dataflow_problem& p);

}  // namespace sfp::analysis
