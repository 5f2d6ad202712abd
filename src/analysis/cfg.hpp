#pragma once
// Statement-level control-flow graphs for sfplint v3.
//
// Each extracted function body (the call_graph's body byte ranges) is
// parsed by a recursive-descent statement walker over the stripped +
// preprocessor-blanked text into a CFG: one node per statement or control
// header, edges for sequencing, branching (if/else, switch), loops
// (while / for / range-for / do-while with back edges, break/continue
// routed to the enclosing construct), and early exits (return/throw edge
// straight to the synthetic exit node). try/catch is over-approximated:
// every statement of a try block may edge into each handler.
//
// The walker is a lexer-level approximation, like the rest of sfplint: a
// lambda or local class inside a statement is swallowed as one opaque
// node (its internal control flow is invisible), goto is not modelled,
// and short-circuit/ternary expressions are single nodes. The dataflow
// passes riding on the CFG (overflow-arith, use-after-move, the
// path-sensitive unchecked-status) inherit this envelope and
// over-approximate toward reporting, with `lint: <rule>-ok` as the
// reviewed escape hatch.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/call_graph.hpp"
#include "analysis/source_model.hpp"

namespace sfp::analysis {

struct cfg_node {
  enum class kind {
    entry,   ///< synthetic function entry (empty byte range)
    exit,    ///< synthetic function exit
    stmt,    ///< plain statement (ends at `;` or swallows a `{...}`)
    branch,  ///< if/switch header
    loop,    ///< while/for/do condition header; target of back edges
    ret,     ///< return statement (edges to exit)
    raise,   ///< throw statement (edges to exit)
  };
  kind k = kind::stmt;
  std::size_t begin = 0;  ///< byte range in the blanked file text
  std::size_t end = 0;
  int line = 0;
  std::vector<int> succ;
  std::vector<int> pred;
  /// For branch/loop nodes: the successor entered when the condition
  /// holds (then-branch / loop body / first switch case); -1 when the
  /// body is empty. Every *other* successor is a false/fallthrough edge —
  /// the edge-kill facility in dataflow.hpp uses the distinction to model
  /// `if (fd < 0) return;` style error-branch guards.
  int then_succ = -1;
};

struct function_cfg {
  int function = -1;  ///< index into call_graph::functions (-1 in fixtures)
  std::vector<cfg_node> nodes;  ///< [0] = entry, [1] = exit
  int entry = 0;
  int exit = 1;
  std::size_t num_edges() const;
};

/// Build one CFG from the body byte range [body_begin, body_end) — the
/// braces included — of `text` (stripped + preprocessor-blanked).
/// `file` supplies line provenance.
function_cfg build_cfg(const source_file& file, std::string_view text,
                       std::size_t body_begin, std::size_t body_end);

/// CFGs for every function in `graph`, index-aligned with
/// `graph.functions`.
std::vector<function_cfg> build_cfgs(const source_tree& tree,
                                     const call_graph& graph);

/// One local variable (parameter or block-scope declaration), extracted
/// by the same lexer-level heuristics the CFG uses.
struct local_decl {
  std::string name;
  std::string type;        ///< normalized, cv/storage words and <args> dropped
  std::size_t pos = 0;     ///< byte offset of the declared name
  int line = 0;
  bool parameter = false;
  bool reference = false;  ///< declared `T&` / `T&&`
  bool pointer = false;    ///< declared `T*`
};

/// Parameters and block-scope declarations of `fn` over the blanked
/// `text`. Single-declarator forms only: `int a = 1, b = 2;` yields `a`.
std::vector<local_decl> collect_locals(const source_file& file,
                                       std::string_view text,
                                       const function_def& fn);

}  // namespace sfp::analysis
