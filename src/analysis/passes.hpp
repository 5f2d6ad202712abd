#pragma once
// The sfplint rule passes. Each pass returns findings with a stable rule
// slug, repo-relative file, 1-based line, and a human-readable message.
// run_all() executes every pass, then applies the inline suppression
// convention: a finding on a line annotated `// lint: <rule>-ok — <reason>`
// moves to the suppressed list instead of failing the gate.
//
// The rule catalogue lives in ONE place: rule_catalogue() below. The CLI's
// --list-rules output, run_all()'s suppressibility decisions, and the
// docs/static_analysis.md rule table are all generated from / checked
// against it (analysis_test asserts every slug run_all() can emit appears
// in the catalogue exactly once).
//
// Token-level rules (per-file scans):
//   layering-cycle    include cycle between src/ modules (never suppressible)
//   layering-unknown  src/ module absent from the manifest (never
//                     suppressible — extend tools/layering.json instead)
//   layering          include edge that violates the declared layer order
//   determinism       std::rand / time() / random_device / unseeded std
//                     engines inside partitioner modules
//   contract-purity   side-effectful expression inside an SFP_* condition
//   runtime-throw     `throw` in src/runtime outside the designated
//                     abort/timeout implementation files
//   audit-header-loop SFP_AUDIT inside a loop in a header (inlined into
//                     every caller's hot path when audit builds are on)
//   pragma-once       header whose first directive is not #pragma once
//   blocking          bare blocking world call outside the timeout-aware
//                     wrappers (folded in from tools/lint.sh)
//   raw-assert        raw assert()/<cassert> in library code (folded in
//                     from tools/lint.sh)
//   retry-backoff     retry/retransmit loop in src/runtime or src/seam with
//                     no backoff in sight (tight retransmit loops melt the
//                     fabric exactly when it is already degraded)
//   transport-discipline
//                     direct construction of a fabric type (the manifest's
//                     "transport" section, e.g. runtime::world) outside the
//                     fabric module — production code must build fabrics
//                     through the designated runner entry points so every
//                     construction site is auditable
//
// Flow-aware rules (walks over the cross-TU call graph + concurrency
// model; see call_graph.hpp / concurrency_model.hpp):
//   determinism-transitive
//                     a partitioner-module function reaches rand/srand/
//                     time/random_device through a call chain — the
//                     transitive complement to `determinism`, which only
//                     sees direct uses
//   lock-order        cycle in the acquired-while-held lock-order graph
//                     across the whole repo (the static complement to
//                     TSan, which only catches the interleaving that
//                     actually fired)
//   blocking-while-locked
//                     a blocking call (cv wait, recv, barrier, sleep,
//                     collective) is made or transitively reachable while
//                     a mutex is held, outside the designated wait sites
//   unchecked-status  a bool/status-returning transport call
//                     (try_recv/try_recv_any) used as a bare statement in
//                     src/runtime / src/seam — dropped delivery statuses
//                     turn lost messages into silent hangs. v3 upgrade:
//                     a captured status (`bool ok = t.try_recv(...)`)
//                     must be read on EVERY path before it is overwritten
//                     or goes out of scope (backward must-analysis over
//                     the CFG) — a sometimes-checked status no longer
//                     passes
//
// Flow-sensitive rules (ride the per-function statement CFGs + the
// gen/kill dataflow solver; see cfg.hpp / dataflow.hpp):
//   overflow-arith    value-range classes propagated through the SFC
//                     key/threshold math in src/core / src/sfc: an
//                     unchecked `a*b` where both operands are K/Ne-scaled
//                     64-bit values (splitter dichotomy S(x)*nparts), or
//                     a K-scaled value narrowed into a 32-bit local
//                     without an explicit cast
//   resource-leak     an fd acquired in src/runtime (socket/accept/...)
//                     misses its close() on some early-return or
//                     exception edge; error-branch guards (`if (fd < 0)`)
//                     are understood via edge kills, RAII wrappers are
//                     exempt by construction (no raw int local)
//   use-after-move    a moved-from local is read on some path before it
//                     is reassigned / reset / rebound
//   suppression-format
//                     a `// lint:` annotation that is not the canonical
//                     `lint: <slug>-ok — <reason>` form (unknown slug,
//                     missing -ok, missing reason, wrong separator);
//                     the separator/spacing cases are autofixable via
//                     sfplint --fix

#include <string>
#include <string_view>
#include <vector>

#include "analysis/call_graph.hpp"
#include "analysis/cfg.hpp"
#include "analysis/concurrency_model.hpp"
#include "analysis/include_graph.hpp"
#include "analysis/manifest.hpp"
#include "analysis/source_model.hpp"

namespace sfp::analysis {

struct finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

bool operator<(const finding& a, const finding& b);
bool operator==(const finding& a, const finding& b);

/// One catalogue entry; the single source of truth for the rule set.
struct rule_info {
  const char* slug;
  const char* summary;      ///< one line, shown by --list-rules
  bool suppressible;        ///< may be waved through with `lint: <slug>-ok`
};

/// Every rule sfplint can emit, in documentation order.
const std::vector<rule_info>& rule_catalogue();

/// Catalogue entry for `slug`; nullptr when unknown.
const rule_info* rule_by_slug(std::string_view slug);

/// Policy knobs; the defaults encode this repo's rules.
struct pass_options {
  /// Modules where nondeterminism would break curve-slice reproducibility.
  std::vector<std::string> determinism_modules = {"core", "graph", "mgp",
                                                  "sfc"};
  /// Files allowed to make bare blocking world calls.
  std::vector<std::string> blocking_allowed_files = {"src/runtime/world.cpp",
                                                     "src/seam/exchange.cpp"};
  /// Trees the blocking rule scans.
  std::vector<std::string> blocking_trees = {"src/runtime", "src/seam"};
  /// Individual files outside those trees the blocking rule also scans.
  /// dist_scan.cpp lives in core but hosts the collectives' receives, whose
  /// bound is a world abort on rank death or the channel's recv_timeout,
  /// so every blocking call there must carry a bounded-wait justification.
  std::vector<std::string> blocking_extra_files = {"src/core/dist_scan.cpp"};
  /// Designated failure-path implementations allowed to throw in runtime.
  std::vector<std::string> throw_allowed_files = {
      "src/runtime/world.cpp", "src/runtime/fault.cpp",
      "src/runtime/reliable.cpp", "src/runtime/transport.cpp",
      "src/runtime/socket_transport.cpp"};
  /// Trees the retry-backoff rule scans.
  std::vector<std::string> retry_trees = {"src/runtime", "src/seam"};
  /// Designated wait sites: files where blocking while holding a mutex is
  /// the implementation technique (cv waits in the fabric internals).
  std::vector<std::string> wait_allowed_files = {
      "src/runtime/world.cpp", "src/runtime/socket_transport.cpp"};
  /// Trees the unchecked-status rule scans.
  std::vector<std::string> status_trees = {"src/runtime", "src/seam"};
  /// Status-returning calls whose result must not be dropped.
  std::vector<std::string> status_call_names = {"try_recv", "try_recv_any"};
  /// Modules the overflow-arith value-range pass scans (the SFC
  /// key/threshold math whose int64 products gate the serial-parity wall).
  std::vector<std::string> overflow_modules = {"core", "sfc"};
  /// Identifiers treated as K/Ne-scaled regardless of declared type (the
  /// part count multiplies element-weight sums in the splitter dichotomy).
  std::vector<std::string> overflow_seed_names = {"nparts"};
  /// Trees the resource-leak pass scans.
  std::vector<std::string> leak_trees = {"src/runtime"};
  /// Calls whose int result is an owned descriptor.
  std::vector<std::string> leak_acquire_calls = {
      "socket", "accept", "accept4", "open",
      "epoll_create1", "eventfd", "dup", "timerfd_create"};
  /// Calls that release a descriptor (close_fd is the runtime module's
  /// EINTR-safe wrapper around ::close).
  std::vector<std::string> leak_release_calls = {"close", "close_fd"};
};

std::vector<finding> check_layering(const module_graph& g,
                                    const layering_manifest& manifest);
std::vector<finding> check_determinism(const source_tree& tree,
                                       const pass_options& opts = {});
std::vector<finding> check_contract_discipline(const source_tree& tree,
                                               const pass_options& opts = {});
std::vector<finding> check_header_hygiene(const source_tree& tree);
std::vector<finding> check_blocking_calls(const source_tree& tree,
                                          const pass_options& opts = {});
std::vector<finding> check_raw_assert(const source_tree& tree);
std::vector<finding> check_retry_backoff(const source_tree& tree,
                                         const pass_options& opts = {});
std::vector<finding> check_transport_discipline(
    const source_tree& tree, const layering_manifest& manifest);

/// The whole-repo lock-order graph: vertices are file-scoped mutex
/// identities, an edge A -> B means B is acquired (directly or through a
/// call chain) while A is held, with one witness site per edge.
struct lock_edge {
  int from = -1;     ///< index into `mutexes`
  int to = -1;
  std::string file;  ///< witness acquisition / call site
  int line = 0;
};

struct lock_order_graph {
  std::vector<std::string> mutexes;  ///< "<file>::<expr>" identities
  std::vector<lock_edge> edges;      ///< deduped on (from, to)
  /// First cycle found, as mutex names with front() repeated at the back
  /// ("a -> b -> a"); empty when the graph is acyclic.
  std::vector<std::string> cycle;
};

lock_order_graph build_lock_order_graph(const source_tree& tree,
                                        const call_graph& graph,
                                        const concurrency_model& model);

std::vector<finding> check_determinism_transitive(
    const source_tree& tree, const call_graph& graph,
    const concurrency_model& model, const pass_options& opts = {});
std::vector<finding> check_lock_order(const lock_order_graph& lock_graph);
std::vector<finding> check_blocking_while_locked(
    const source_tree& tree, const call_graph& graph,
    const concurrency_model& model, const pass_options& opts = {});
std::vector<finding> check_unchecked_status(const source_tree& tree,
                                            const pass_options& opts = {});

// --- v3 flow-sensitive passes (statement CFGs + gen/kill dataflow) ------

std::vector<finding> check_overflow_arith(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs, const pass_options& opts = {});
std::vector<finding> check_resource_leak(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs, const pass_options& opts = {});
std::vector<finding> check_use_after_move(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs);
/// The path-sensitive unchecked-status upgrade: emits under the same
/// "unchecked-status" slug as the statement-position pass it extends.
std::vector<finding> check_status_paths(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs, const pass_options& opts = {});
std::vector<finding> check_suppression_format(const source_tree& tree);

/// Everything run_all() knows at the end of a scan.
struct analysis_result {
  std::vector<finding> findings;    ///< outstanding violations, sorted
  std::vector<finding> suppressed;  ///< silenced by `lint: <rule>-ok` tags
  module_graph graph;
  call_graph calls;              ///< the cross-TU semantic model
  concurrency_model concurrency;
  lock_order_graph lock_order;
  std::vector<function_cfg> cfgs;  ///< per-function statement CFGs
  std::size_t files_scanned = 0;
};

analysis_result run_all(const source_tree& tree,
                        const layering_manifest& manifest,
                        const pass_options& opts = {});

/// Keep only findings (and suppressions) whose rule is in `slugs`; the
/// CLI's --rule=<slug>[,<slug>] triage mode. Unknown slugs are the
/// caller's problem — validate against rule_by_slug() first.
void filter_rules(analysis_result& r, const std::vector<std::string>& slugs);

}  // namespace sfp::analysis
