#include "analysis/passes.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "analysis/dataflow.hpp"
#include "util/contract.hpp"

namespace sfp::analysis {

namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Position of `token` as a whole identifier (prev/next not ident chars),
/// searching from `from`; npos when absent.
std::size_t find_token(std::string_view text, std::string_view token,
                       std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string_view::npos;
}

/// True when `token(` appears as a free-function call: whole token, not a
/// member call (`.token(` / `->token(`). Qualified calls (`std::token(`)
/// match. Returns the position or npos.
std::size_t find_free_call(std::string_view text, std::string_view token,
                           std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = find_token(text, token, pos)) != std::string_view::npos) {
    std::size_t after = pos + token.size();
    while (after < text.size() && (text[after] == ' ' || text[after] == '\t'))
      ++after;
    const bool is_call = after < text.size() && text[after] == '(';
    const bool member = pos > 0 && (text[pos - 1] == '.' ||
                                    (pos > 1 && text[pos - 1] == '>' &&
                                     text[pos - 2] == '-'));
    if (is_call && !member) return pos;
    pos = pos + token.size();
  }
  return std::string_view::npos;
}

bool path_in(const std::string& path, const std::vector<std::string>& list) {
  return std::find(list.begin(), list.end(), path) != list.end();
}

bool path_under(const std::string& path,
                const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes)
    if (path.compare(0, p.size(), p) == 0) return true;
  return false;
}

bool module_in(const std::string& module,
               const std::vector<std::string>& list) {
  return std::find(list.begin(), list.end(), module) != list.end();
}

/// Side-effect heuristic over a stripped condition expression: increment,
/// decrement, compound assignment, or plain assignment.
bool has_side_effect(std::string_view cond) {
  for (std::size_t i = 0; i + 1 < cond.size(); ++i) {
    const char a = cond[i];
    const char b = cond[i + 1];
    if ((a == '+' && b == '+') || (a == '-' && b == '-')) return true;
  }
  for (std::size_t i = 0; i < cond.size(); ++i) {
    if (cond[i] != '=') continue;
    const char prev = i > 0 ? cond[i - 1] : '\0';
    const char prev2 = i > 1 ? cond[i - 2] : '\0';
    const char next = i + 1 < cond.size() ? cond[i + 1] : '\0';
    if (next == '=') {
      ++i;  // '==' comparison
      continue;
    }
    if (prev == '=' || prev == '!') continue;  // second char of == / !=
    if (prev == '<' || prev == '>') {
      // <= / >= are comparisons; <<= / >>= are assignments.
      if (prev2 == prev) return true;
      continue;
    }
    if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
        prev == '%' || prev == '&' || prev == '|' || prev == '^')
      return true;  // compound assignment
    return true;    // plain assignment
  }
  return false;
}

/// Extract the first macro argument starting at the '(' at `open`;
/// returns the argument text and sets `ok` false on unbalanced input.
std::string first_macro_arg(std::string_view text, std::size_t open,
                            bool& ok) {
  int depth = 0;
  std::size_t i = open;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return std::string(text.substr(open + 1, i - open - 1));
    } else if (c == ',' && depth == 1) {
      return std::string(text.substr(open + 1, i - open - 1));
    }
  }
  ok = false;
  return {};
}

// --- shared machinery for the v3 flow-sensitive passes ------------------

/// Identifier beginning exactly at `pos`; empty when none starts there.
std::string_view ident_starting(std::string_view text, std::size_t pos) {
  std::size_t e = pos;
  while (e < text.size() && ident_char(text[e])) ++e;
  return text.substr(pos, e - pos);
}

/// 64-bit integer spellings: a local of one of these types carries
/// element-weight sums / SFC key values in the modules the overflow pass
/// scans, so it is treated as K/Ne-scaled from its declaration on.
bool wide_int_type(std::string_view type) {
  static const char* const kWide[] = {
      "std::int64_t", "int64_t",       "long",          "long long",
      "unsigned long", "unsigned long long", "std::size_t", "size_t",
      "std::uint64_t", "uint64_t",     "std::ptrdiff_t", "ptrdiff_t",
      "graph::weight", "sfp::graph::weight", "weight",
      "std::streamsize", "std::streamoff"};
  for (const char* w : kWide)
    if (type == w) return true;
  return false;
}

/// 32-bit-or-smaller integer spellings (narrowing targets).
bool narrow_int_type(std::string_view type) {
  static const char* const kNarrow[] = {
      "int",           "std::int32_t", "int32_t",  "unsigned",
      "unsigned int",  "std::uint32_t", "uint32_t", "short",
      "unsigned short", "std::int16_t", "std::uint16_t",
      "graph::vid",    "sfp::graph::vid", "vid"};
  for (const char* w : kNarrow)
    if (type == w) return true;
  return false;
}

/// True when the token occurrence at `pos` is a member of some other
/// object (`obj.name` / `obj->name`), not the tracked local itself.
bool member_occurrence(std::string_view stmt, std::size_t pos) {
  return pos > 0 &&
         (stmt[pos - 1] == '.' ||
          (pos > 1 && stmt[pos - 1] == '>' && stmt[pos - 2] == '-'));
}

/// True when some occurrence of `name` in `expr` flows its *value* into
/// the surrounding expression: not a member of another object, not a
/// subscript index (`arr[name]` selects an element, it does not scale
/// it), and not a bare comparison operand (`name > 0 ? ...` produces a
/// bool). This is what keeps the overflow taint from leaking through
/// indexing and range checks.
bool value_mention(std::string_view expr, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = find_token(expr, name, pos)) != std::string_view::npos) {
    const std::size_t occ = pos;
    pos += name.size();
    if (member_occurrence(expr, occ)) continue;
    int depth = 0;
    for (std::size_t i = 0; i < occ; ++i) {
      if (expr[i] == '[') ++depth;
      else if (expr[i] == ']') --depth;
    }
    if (depth > 0) continue;  // subscript index
    std::size_t a = occ;
    while (a > 0 && (expr[a - 1] == ' ' || expr[a - 1] == '\t')) --a;
    if (a > 0 && (expr[a - 1] == '<' || expr[a - 1] == '>')) continue;
    if (a > 1 && expr[a - 1] == '=' &&
        (expr[a - 2] == '=' || expr[a - 2] == '!' || expr[a - 2] == '<' ||
         expr[a - 2] == '>'))
      continue;
    std::size_t b = occ + name.size();
    while (b < expr.size() && (expr[b] == ' ' || expr[b] == '\t')) ++b;
    if (b < expr.size()) {
      const char c = expr[b];
      const char next = b + 1 < expr.size() ? expr[b + 1] : '\0';
      if ((c == '=' || c == '!') && next == '=') continue;
      if (c == '<' || c == '>' || c == '?') continue;
    }
    return true;
  }
  return false;
}

/// True when `stmt` assigns `name` (`name =`, `name +=`, ..., `name <<=`).
bool assigns_var(std::string_view stmt, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = find_token(stmt, name, pos)) != std::string_view::npos) {
    if (member_occurrence(stmt, pos)) {
      pos += name.size();
      continue;
    }
    std::size_t p = pos + name.size();
    while (p < stmt.size() && (stmt[p] == ' ' || stmt[p] == '\t')) ++p;
    if (p < stmt.size()) {
      const char c = stmt[p];
      const char next = p + 1 < stmt.size() ? stmt[p + 1] : '\0';
      if (c == '=' && next != '=') return true;
      if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' ||
           c == '&' || c == '|' || c == '^') &&
          next == '=')
        return true;
      if ((c == '<' || c == '>') && next == c && p + 2 < stmt.size() &&
          stmt[p + 2] == '=')
        return true;
    }
    pos = p;
  }
  return false;
}

/// Occurrences of `name` in `stmt` that read its value: not an assignment
/// target, not the argument of std::move/std::forward, not the receiver
/// of a reinitializing member call, and not the declaration itself
/// (`skip_at` = the declaring occurrence's offset within `stmt`, or npos).
bool reads_var(std::string_view stmt, std::string_view name,
               std::size_t skip_at = std::string_view::npos) {
  std::size_t pos = 0;
  while ((pos = find_token(stmt, name, pos)) != std::string_view::npos) {
    const std::size_t occurrence = pos;
    pos += name.size();
    if (occurrence == skip_at) continue;
    if (member_occurrence(stmt, occurrence)) continue;
    std::size_t p = occurrence + name.size();
    while (p < stmt.size() && (stmt[p] == ' ' || stmt[p] == '\t')) ++p;
    // Assignment target (plain `=`; compound ops read too, so they count).
    if (p < stmt.size() && stmt[p] == '=' &&
        (p + 1 >= stmt.size() || stmt[p + 1] != '='))
      continue;
    // Receiver of a reinitializing member call.
    bool reinit = false;
    for (const char* m : {".reset(", ".clear(", ".assign("})
      if (stmt.compare(p, std::string_view(m).size(), m) == 0) reinit = true;
    if (reinit) continue;
    // Argument of std::move / std::forward<T>.
    std::size_t q = occurrence;
    while (q > 0 && (stmt[q - 1] == ' ' || stmt[q - 1] == '\t')) --q;
    if (q > 0 && stmt[q - 1] == '(') {
      std::size_t r = q - 1;
      while (r > 0 && (stmt[r - 1] == ' ' || stmt[r - 1] == '\t')) --r;
      if (r > 0 && stmt[r - 1] == '>') {  // forward<T>(
        int depth = 0;
        while (r > 0) {
          if (stmt[r - 1] == '>') ++depth;
          else if (stmt[r - 1] == '<' && --depth == 0) { --r; break; }
          --r;
        }
      }
      std::size_t e = r;
      while (e > 0 && ident_char(stmt[e - 1])) --e;
      const std::string_view callee = stmt.substr(e, r - e);
      if (callee == "move" || callee == "forward") continue;
    }
    return true;
  }
  return false;
}

/// True when `stmt` contains `std::move(name)` / `std::forward<..>(name)`
/// with exactly `name` as the argument.
bool moves_var(std::string_view stmt, std::string_view name) {
  for (const char* fn : {"move", "forward"}) {
    std::size_t pos = 0;
    while ((pos = find_token(stmt, fn, pos)) != std::string_view::npos) {
      std::size_t p = pos + std::string_view(fn).size();
      if (p < stmt.size() && stmt[p] == '<') {  // forward<T>
        int depth = 0;
        for (; p < stmt.size(); ++p) {
          if (stmt[p] == '<') ++depth;
          else if (stmt[p] == '>' && --depth == 0) { ++p; break; }
        }
      }
      while (p < stmt.size() && (stmt[p] == ' ' || stmt[p] == '\t')) ++p;
      if (p >= stmt.size() || stmt[p] != '(') { pos = p; continue; }
      ++p;
      while (p < stmt.size() && (stmt[p] == ' ' || stmt[p] == '\t')) ++p;
      if (stmt.compare(p, name.size(), name) == 0 &&
          (p == 0 || !ident_char(stmt[p - 1]))) {
        std::size_t q = p + name.size();
        if (q < stmt.size() && ident_char(stmt[q])) { pos = q; continue; }
        while (q < stmt.size() && (stmt[q] == ' ' || stmt[q] == '\t')) ++q;
        if (q < stmt.size() && stmt[q] == ')') return true;
      }
      pos = p;
    }
  }
  return false;
}

/// The variable receiving the first top-level `=` of `stmt` whose
/// right-hand side contains byte offset `rhs_pos`; empty when `rhs_pos`
/// is not on the right of an assignment.
std::string_view assigned_lhs(std::string_view stmt, std::size_t rhs_pos) {
  int depth = 0;
  std::size_t eq = std::string_view::npos;
  for (std::size_t i = 0; i < rhs_pos && i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    else if (c == ')' || c == ']' || c == '}') --depth;
    else if (c == '=' && depth == 0) {
      const char prev = i > 0 ? stmt[i - 1] : '\0';
      const char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
      if (next == '=' || prev == '=' || prev == '!' || prev == '<' ||
          prev == '>')
        continue;
      eq = i;
      break;
    }
  }
  if (eq == std::string_view::npos) return {};
  std::size_t e = eq;
  while (e > 0 && (stmt[e - 1] == ' ' || stmt[e - 1] == '\t')) --e;
  std::size_t s = e;
  while (s > 0 && ident_char(stmt[s - 1])) --s;
  return stmt.substr(s, e - s);
}

/// Per-function context shared by the flow passes: the blanked file text
/// is cached per file (functions are ordered by file).
struct flow_ctx {
  const source_tree& tree;
  const call_graph& graph;
  int cached_file = -1;
  std::string blanked;

  std::string_view text_of(const function_def& fn) {
    if (fn.file != cached_file) {
      blanked = blank_preprocessor(
          tree.files[static_cast<std::size_t>(fn.file)].stripped);
      cached_file = fn.file;
    }
    return blanked;
  }
  const source_file& file_of(const function_def& fn) const {
    return tree.files[static_cast<std::size_t>(fn.file)];
  }
  static std::string_view node_text(std::string_view text,
                                    const cfg_node& n) {
    return text.substr(n.begin, n.end - n.begin);
  }
};

}  // namespace

bool operator<(const finding& a, const finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

bool operator==(const finding& a, const finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) ==
         std::tie(b.file, b.line, b.rule, b.message);
}

std::vector<finding> check_layering(const module_graph& g,
                                    const layering_manifest& manifest) {
  std::vector<finding> out;

  const std::vector<std::string> cycle = find_include_cycle(g);
  if (!cycle.empty()) {
    std::string path_str;
    for (std::size_t i = 0; i < cycle.size(); ++i)
      path_str += (i ? " -> " : "") + cycle[i];
    // Anchor the report at one edge of the cycle for clickable provenance.
    finding f;
    f.rule = "layering-cycle";
    f.message = "include cycle between src modules: " + path_str;
    for (const auto& e : g.edges) {
      if (e.from_module == cycle[0] && e.to_module == cycle[1]) {
        f.file = e.file;
        f.line = e.line;
        break;
      }
    }
    out.push_back(std::move(f));
  }

  std::set<std::string> unknown_reported;
  for (const auto& e : g.edges) {
    for (const std::string& m : {e.from_module, e.to_module}) {
      if (manifest.known(m) || !unknown_reported.insert(m).second) continue;
      finding f;
      f.rule = "layering-unknown";
      f.file = e.file;
      f.line = e.line;
      f.message = "module '" + m +
                  "' is not declared in the layering manifest; add it to "
                  "tools/layering.json";
      out.push_back(std::move(f));
    }
    if (!manifest.known(e.from_module) || !manifest.known(e.to_module))
      continue;

    bool allowed;
    if (manifest.is_sink(e.from_module)) {
      allowed = manifest.sink_may_include(e.from_module, e.to_module);
    } else if (manifest.is_sink(e.to_module)) {
      allowed = true;  // sinks are includable from anywhere
    } else {
      // Strictly lower layers plus same-group peers; the cycle pass guards
      // against peer edges degenerating into a loop.
      allowed = manifest.rank_of(e.to_module) <= manifest.rank_of(e.from_module);
    }
    if (allowed) continue;
    finding f;
    f.rule = "layering";
    f.file = e.file;
    f.line = e.line;
    f.message = "include of \"" + e.target + "\" breaks the layering: '" +
                e.from_module + "' may not depend on '" + e.to_module + "'";
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<finding> check_determinism(const source_tree& tree,
                                       const pass_options& opts) {
  std::vector<finding> out;
  const auto flag = [&out](const source_file& f, int line, std::string msg) {
    finding v;
    v.rule = "determinism";
    v.file = f.path;
    v.line = line;
    v.message = std::move(msg);
    out.push_back(std::move(v));
  };
  static const char* const kUnseededEngines[] = {
      "mt19937",     "mt19937_64",          "minstd_rand", "minstd_rand0",
      "ranlux24",    "ranlux48",            "knuth_b",     "default_random_engine"};
  for (const auto& f : tree.files) {
    if (f.tree != "src" || !module_in(f.module, opts.determinism_modules))
      continue;
    for (int ln = 1; ln <= f.num_lines(); ++ln) {
      const std::string_view line = f.line(ln);
      for (const char* call : {"rand", "srand"})
        if (find_free_call(line, call) != std::string_view::npos)
          flag(f, ln,
               std::string(call) +
                   "() is nondeterministic global state; take an explicit "
                   "sfp::rng instead");
      if (find_token(line, "random_device") != std::string_view::npos)
        flag(f, ln,
             "std::random_device breaks run-to-run reproducibility; seed an "
             "explicit sfp::rng instead");
      if (find_free_call(line, "time") != std::string_view::npos)
        flag(f, ln,
             "wall-clock seeding/time() makes partitions irreproducible; "
             "thread timestamps through parameters instead");
      for (const char* engine : kUnseededEngines) {
        std::size_t pos = find_token(line, engine);
        if (pos == std::string_view::npos) continue;
        // `std::mt19937 name;` or `std::mt19937 name{};` — a declaration
        // with no explicit seed.
        std::size_t p = pos + std::string_view(engine).size();
        while (p < line.size() && line[p] == ' ') ++p;
        const std::size_t name_start = p;
        while (p < line.size() && ident_char(line[p])) ++p;
        if (p == name_start) continue;  // not a declaration
        while (p < line.size() && line[p] == ' ') ++p;
        const bool plain = p < line.size() && line[p] == ';';
        const bool braced = p + 1 < line.size() && line[p] == '{' &&
                            (line[p + 1] == '}' ||
                             (line[p + 1] == ' ' && p + 2 < line.size() &&
                              line[p + 2] == '}'));
        if (plain || braced)
          flag(f, ln,
               std::string("unseeded std::") + engine +
                   " hides the seeding decision; construct with an explicit "
                   "seed or use sfp::rng");
      }
    }
  }
  return out;
}

std::vector<finding> check_contract_discipline(const source_tree& tree,
                                               const pass_options& opts) {
  std::vector<finding> out;
  for (const auto& f : tree.files) {
    if (f.tree != "src") continue;
    const std::string_view text = f.stripped;

    // (1) Purity of SFP_* conditions: the expression vanishes at lower
    // tiers, so any side effect changes behaviour between builds.
    for (const char* macro : {"SFP_REQUIRE", "SFP_ASSERT", "SFP_AUDIT"}) {
      std::size_t pos = 0;
      while ((pos = find_token(text, macro, pos)) != std::string_view::npos) {
        std::size_t open = pos + std::string_view(macro).size();
        while (open < text.size() &&
               (text[open] == ' ' || text[open] == '\t' ||
                text[open] == '\n'))
          ++open;
        if (open >= text.size() || text[open] != '(') {
          pos = open;
          continue;
        }
        bool ok = true;
        const std::string cond = first_macro_arg(text, open, ok);
        if (ok && has_side_effect(cond)) {
          finding v;
          v.rule = "contract-purity";
          v.file = f.path;
          v.line = f.line_of(pos);
          v.message = std::string(macro) +
                      " condition has a side effect; contract conditions "
                      "must be pure (they compile out at lower tiers)";
          out.push_back(std::move(v));
        }
        pos = open;
      }
    }

    // (2) throw in src/runtime outside the designated failure paths.
    if (f.module == "runtime" && !path_in(f.path, opts.throw_allowed_files)) {
      std::size_t pos = 0;
      while ((pos = find_token(text, "throw", pos)) !=
             std::string_view::npos) {
        finding v;
        v.rule = "runtime-throw";
        v.file = f.path;
        v.line = f.line_of(pos);
        v.message =
            "throw in the runtime hot path; route failures through the "
            "designated failure-path files (world.cpp, fault.cpp, "
            "reliable.cpp)";
        out.push_back(std::move(v));
        pos += 5;
      }
    }

    // (3) SFP_AUDIT inside a loop in a header: the audit tier is meant for
    // module boundaries, not per-iteration checks inlined everywhere.
    if (f.is_header) {
      bool pending_loop = false;
      int paren_depth = 0;
      std::vector<bool> brace_is_loop;
      int loop_depth = 0;
      for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (ident_char(c)) {
          std::size_t end = i;
          while (end < text.size() && ident_char(text[end])) ++end;
          const std::string_view word = text.substr(i, end - i);
          const bool boundary = i == 0 || !ident_char(text[i - 1]);
          if (boundary && (word == "for" || word == "while" || word == "do"))
            pending_loop = true;
          if (boundary &&
              (word == "SFP_AUDIT" || word == "SFP_AUDIT_DIAG") &&
              loop_depth > 0) {
            finding v;
            v.rule = "audit-header-loop";
            v.file = f.path;
            v.line = f.line_of(i);
            v.message =
                "SFP_AUDIT inside a header-inlined loop runs per iteration "
                "in every audit build; hoist it to the loop boundary or "
                "move the loop to a .cpp";
            out.push_back(std::move(v));
          }
          i = end - 1;
          continue;
        }
        if (c == '(') {
          ++paren_depth;
        } else if (c == ')') {
          --paren_depth;
        } else if (c == ';' && paren_depth == 0) {
          pending_loop = false;  // statement-form body / do-while tail
        } else if (c == '{') {
          brace_is_loop.push_back(pending_loop);
          loop_depth += pending_loop ? 1 : 0;
          pending_loop = false;
        } else if (c == '}' && !brace_is_loop.empty()) {
          loop_depth -= brace_is_loop.back() ? 1 : 0;
          brace_is_loop.pop_back();
        }
      }
    }
  }
  return out;
}

std::vector<finding> check_header_hygiene(const source_tree& tree) {
  std::vector<finding> out;
  for (const auto& f : tree.files) {
    if (!f.is_header) continue;
    bool found = false;
    bool ok = false;
    for (int ln = 1; ln <= f.num_lines() && !found; ++ln) {
      std::string_view line = f.line(ln);
      while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
        line.remove_prefix(1);
      while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                               line.back() == '\r'))
        line.remove_suffix(1);
      if (line.empty()) continue;
      found = true;
      ok = line == "#pragma once" || line == "#pragma  once";
    }
    if (!ok) {
      finding v;
      v.rule = "pragma-once";
      v.file = f.path;
      v.line = 1;
      v.message =
          "header must open with #pragma once before any other code";
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::vector<finding> check_blocking_calls(const source_tree& tree,
                                          const pass_options& opts) {
  std::vector<finding> out;
  static const char* const kPatterns[] = {".recv(", ".barrier(",
                                          ".allreduce_", "world::recv"};
  for (const auto& f : tree.files) {
    if (!path_under(f.path, opts.blocking_trees) &&
        !path_in(f.path, opts.blocking_extra_files))
      continue;
    if (path_in(f.path, opts.blocking_allowed_files)) continue;
    for (int ln = 1; ln <= f.num_lines(); ++ln) {
      const std::string_view line = f.line(ln);
      for (const char* pat : kPatterns) {
        if (line.find(pat) == std::string_view::npos) continue;
        finding v;
        v.rule = "blocking";
        v.file = f.path;
        v.line = ln;
        v.message =
            "bare blocking world call outside the timeout-aware wrappers; "
            "route through seam::exchange or annotate why a hang is "
            "impossible";
        out.push_back(std::move(v));
        break;
      }
    }
  }
  return out;
}

std::vector<finding> check_raw_assert(const source_tree& tree) {
  std::vector<finding> out;
  for (const auto& f : tree.files) {
    if (f.tree != "src" && f.tree != "bench" && f.tree != "tools") continue;
    for (int ln = 1; ln <= f.num_lines(); ++ln) {
      const std::string_view line = f.line(ln);
      const bool include_hit =
          line.find("<cassert>") != std::string_view::npos ||
          line.find("\"assert.h\"") != std::string_view::npos ||
          line.find("<assert.h>") != std::string_view::npos;
      // `static_assert` never matches: the preceding '_' is an ident char.
      const bool call_hit =
          find_free_call(line, "assert") != std::string_view::npos;
      if (!include_hit && !call_hit) continue;
      finding v;
      v.rule = "raw-assert";
      v.file = f.path;
      v.line = ln;
      v.message =
          "raw assert() vanishes under NDEBUG with no diagnostics; use "
          "SFP_REQUIRE/SFP_ASSERT/SFP_AUDIT from util/contract.hpp";
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::vector<finding> check_transport_discipline(
    const source_tree& tree, const layering_manifest& manifest) {
  std::vector<finding> out;
  if (manifest.fabric_module.empty()) return out;
  for (const auto& f : tree.files) {
    if (f.tree != "src" || f.module == manifest.fabric_module) continue;
    const std::string_view text = f.stripped;
    for (const std::string& type : manifest.fabric_types) {
      const std::string qualified = manifest.fabric_module + "::" + type;
      std::size_t pos = 0;
      while ((pos = find_token(text, qualified, pos)) !=
             std::string_view::npos) {
        std::size_t p = pos + qualified.size();
        while (p < text.size() &&
               (text[p] == ' ' || text[p] == '\t' || text[p] == '\n'))
          ++p;
        // A construction is the qualified type followed by an argument list
        // (a temporary / new-expression) or by a variable name and then an
        // argument list. Nested-name uses (world::options), references,
        // pointers, and template arguments all fail this shape and pass.
        bool constructed =
            p < text.size() && (text[p] == '(' || text[p] == '{');
        if (!constructed) {
          const std::size_t name_start = p;
          while (p < text.size() && ident_char(text[p])) ++p;
          if (p > name_start) {
            while (p < text.size() &&
                   (text[p] == ' ' || text[p] == '\t' || text[p] == '\n'))
              ++p;
            constructed =
                p < text.size() && (text[p] == '(' || text[p] == '{');
          }
        }
        if (constructed) {
          finding v;
          v.rule = "transport-discipline";
          v.file = f.path;
          v.line = f.line_of(pos);
          v.message = "direct construction of " + qualified + " outside '" +
                      manifest.fabric_module +
                      "'; build fabrics through the designated runner entry "
                      "points (seam::run_distributed*) so every construction "
                      "site stays auditable";
          out.push_back(std::move(v));
        }
        pos += qualified.size();
      }
    }
  }
  return out;
}

const std::vector<rule_info>& rule_catalogue() {
  // Single source of truth: --list-rules, run_all() suppressibility and
  // the docs rule table all derive from this list.
  static const std::vector<rule_info> catalogue = {
      {"layering-cycle", "include cycle between src/ modules", false},
      {"layering-unknown",
       "src/ module absent from tools/layering.json", false},
      {"layering", "include edge violates the declared layer order", true},
      {"determinism",
       "rand/time/random_device/unseeded engine in partitioner modules",
       true},
      {"determinism-transitive",
       "partitioner-module call chain reaches a nondeterminism source",
       true},
      {"contract-purity",
       "side-effectful expression inside an SFP_* condition", true},
      {"runtime-throw",
       "throw in src/runtime outside the designated failure paths", true},
      {"audit-header-loop",
       "SFP_AUDIT inside a header-inlined loop", true},
      {"pragma-once", "header does not open with #pragma once", true},
      {"blocking",
       "bare blocking world call outside the timeout-aware wrappers", true},
      {"blocking-while-locked",
       "blocking call reachable while a mutex is held, outside the "
       "designated wait sites",
       true},
      {"lock-order",
       "cycle in the whole-repo acquired-while-held lock-order graph",
       true},
      {"unchecked-status",
       "bool/status return of a transport call dropped as a bare statement",
       true},
      {"raw-assert", "raw assert()/<cassert> in library code", true},
      {"transport-discipline",
       "fabric type constructed outside the designated runner entry points",
       true},
      {"overflow-arith",
       "unchecked product of two K/Ne-scaled 64-bit values, or a scaled "
       "value narrowed to 32 bits without a cast",
       true},
      {"use-after-move",
       "moved-from local read on a path before it is reassigned", true},
      {"suppression-format",
       "lint suppression tag deviates from `lint: <slug>-ok — <reason>`",
       true},
  };
  return catalogue;
}

const rule_info* rule_by_slug(std::string_view slug) {
  for (const rule_info& r : rule_catalogue())
    if (slug == r.slug) return &r;
  return nullptr;
}

lock_order_graph build_lock_order_graph(const source_tree& tree,
                                        const call_graph& graph,
                                        const concurrency_model& model) {
  lock_order_graph g;
  g.mutexes = model.mutex_names;
  // Collect edges with one witness each; (from, to) deduped keeping the
  // first witness. Self-edges are dropped: the file-scoped identity
  // aliases same-named members of different instances (lock-sharded
  // registries), and "A before A" is re-entrancy, not ordering.
  std::map<std::pair<int, int>, lock_edge> edges;
  const auto add_edge = [&edges](int from, int to, const std::string& file,
                                 int line) {
    if (from == to) return;
    const auto key = std::make_pair(from, to);
    if (edges.count(key) > 0) return;
    lock_edge e;
    e.from = from;
    e.to = to;
    e.file = file;
    e.line = line;
    edges.emplace(key, std::move(e));
  };
  for (std::size_t fn = 0; fn < graph.functions.size(); ++fn) {
    const std::string& path =
        tree.files[static_cast<std::size_t>(graph.functions[fn].file)].path;
    for (const int ai : model.acquisitions_of[fn]) {
      const lock_acquisition& a =
          model.acquisitions[static_cast<std::size_t>(ai)];
      // Later acquisitions inside the hold range.
      for (const int bi : model.acquisitions_of[fn]) {
        const lock_acquisition& b =
            model.acquisitions[static_cast<std::size_t>(bi)];
        if (b.pos > a.pos && b.pos < a.hold_end)
          add_edge(a.mutex, b.mutex, path, b.line);
      }
      // Calls inside the hold range pull in the callee's lock closure.
      for (const int ci : graph.calls_of[fn]) {
        const call_site& c = graph.calls[static_cast<std::size_t>(ci)];
        if (c.pos <= a.pos || c.pos >= a.hold_end) continue;
        for (const int t : c.targets)
          for (const int mid :
               model.lock_closure[static_cast<std::size_t>(t)])
            add_edge(a.mutex, mid, path, c.line);
      }
    }
  }
  for (auto& [key, e] : edges) g.edges.push_back(std::move(e));

  // Cycle detection: iterative colored DFS, mirroring the include graph's.
  const int n = static_cast<int>(g.mutexes.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const lock_edge& e : g.edges)
    adj[static_cast<std::size_t>(e.from)].push_back(e.to);
  std::vector<int> color(static_cast<std::size_t>(n), 0);  // 0/1/2
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < n && g.cycle.empty(); ++s) {
    if (color[static_cast<std::size_t>(s)] != 0) continue;
    std::vector<std::pair<int, std::size_t>> stack = {{s, 0}};
    color[static_cast<std::size_t>(s)] = 1;
    while (!stack.empty() && g.cycle.empty()) {
      auto& [v, next] = stack.back();
      if (next >= adj[static_cast<std::size_t>(v)].size()) {
        color[static_cast<std::size_t>(v)] = 2;
        stack.pop_back();
        continue;
      }
      const int w = adj[static_cast<std::size_t>(v)][next++];
      if (color[static_cast<std::size_t>(w)] == 0) {
        color[static_cast<std::size_t>(w)] = 1;
        parent[static_cast<std::size_t>(w)] = v;
        stack.emplace_back(w, 0);
      } else if (color[static_cast<std::size_t>(w)] == 1) {
        std::vector<std::string> cyc = {g.mutexes[static_cast<std::size_t>(w)]};
        for (int x = v; x != w && x != -1;
             x = parent[static_cast<std::size_t>(x)])
          cyc.push_back(g.mutexes[static_cast<std::size_t>(x)]);
        cyc.push_back(g.mutexes[static_cast<std::size_t>(w)]);
        std::reverse(cyc.begin() + 1, cyc.end() - 1);
        g.cycle = std::move(cyc);
      }
    }
  }
  return g;
}

std::vector<finding> check_determinism_transitive(
    const source_tree& tree, const call_graph& graph,
    const concurrency_model& model, const pass_options& opts) {
  std::vector<finding> out;
  for (std::size_t fn = 0; fn < graph.functions.size(); ++fn) {
    const source_file& f =
        tree.files[static_cast<std::size_t>(graph.functions[fn].file)];
    if (f.tree != "src" || !module_in(f.module, opts.determinism_modules))
      continue;
    for (const int ci : graph.calls_of[fn]) {
      const call_site& c = graph.calls[static_cast<std::size_t>(ci)];
      int tainted = -1;
      for (const int t : c.targets)
        if (model.nondet_transitively[static_cast<std::size_t>(t)]) {
          tainted = t;
          break;
        }
      if (tainted < 0) continue;
      finding v;
      v.rule = "determinism-transitive";
      v.file = f.path;
      v.line = c.line;
      v.message = "call to '" + c.written +
                  "' transitively reaches a nondeterminism source: " +
                  nondet_chain(tree, graph, model, tainted) +
                  "; partitioner results must be replayable from explicit "
                  "seeds";
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::vector<finding> check_lock_order(const lock_order_graph& lock_graph) {
  std::vector<finding> out;
  if (lock_graph.cycle.empty()) return out;
  std::string path_str;
  for (std::size_t i = 0; i < lock_graph.cycle.size(); ++i)
    path_str += (i ? " -> " : "") + lock_graph.cycle[i];
  finding v;
  v.rule = "lock-order";
  v.message =
      "lock-order cycle (potential deadlock under the right interleaving): " +
      path_str + "; acquire these mutexes in one global order";
  // Anchor at the witness for the cycle's first edge.
  for (const lock_edge& e : lock_graph.edges) {
    if (lock_graph.mutexes[static_cast<std::size_t>(e.from)] ==
            lock_graph.cycle[0] &&
        lock_graph.mutexes[static_cast<std::size_t>(e.to)] ==
            lock_graph.cycle[1]) {
      v.file = e.file;
      v.line = e.line;
      break;
    }
  }
  out.push_back(std::move(v));
  return out;
}

std::vector<finding> check_blocking_while_locked(
    const source_tree& tree, const call_graph& graph,
    const concurrency_model& model, const pass_options& opts) {
  std::vector<finding> out;
  for (std::size_t fn = 0; fn < graph.functions.size(); ++fn) {
    const source_file& f =
        tree.files[static_cast<std::size_t>(graph.functions[fn].file)];
    if (f.tree != "src" || path_in(f.path, opts.wait_allowed_files))
      continue;
    for (const int ai : model.acquisitions_of[fn]) {
      const lock_acquisition& a =
          model.acquisitions[static_cast<std::size_t>(ai)];
      // Direct blocking sites inside the hold range.
      for (const int si : model.blocking_of[fn]) {
        const blocking_site& s =
            model.blocking[static_cast<std::size_t>(si)];
        if (s.pos <= a.pos || s.pos >= a.hold_end) continue;
        finding v;
        v.rule = "blocking-while-locked";
        v.file = f.path;
        v.line = s.line;
        v.message = "blocking call '" + s.what + "()' while holding '" +
                    a.expr +
                    "'; a stalled peer turns this into a held-lock hang — "
                    "move the wait to a designated wait site or drop the "
                    "lock first";
        out.push_back(std::move(v));
      }
      // Calls inside the hold range that transitively block.
      for (const int ci : graph.calls_of[fn]) {
        const call_site& c = graph.calls[static_cast<std::size_t>(ci)];
        if (c.pos <= a.pos || c.pos >= a.hold_end) continue;
        int blocker = -1;
        for (const int t : c.targets)
          if (model.blocks_transitively[static_cast<std::size_t>(t)]) {
            blocker = t;
            break;
          }
        if (blocker < 0) continue;
        finding v;
        v.rule = "blocking-while-locked";
        v.file = f.path;
        v.line = c.line;
        v.message = "call to '" + c.written + "' may block while holding '" +
                    a.expr + "' (" +
                    blocking_chain(tree, graph, model, blocker) +
                    "); a stalled peer turns this into a held-lock hang";
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

std::vector<finding> check_unchecked_status(const source_tree& tree,
                                            const pass_options& opts) {
  std::vector<finding> out;
  for (const auto& f : tree.files) {
    if (!path_under(f.path, opts.status_trees)) continue;
    const std::string_view text = f.stripped;
    for (const std::string& name : opts.status_call_names) {
      std::size_t pos = 0;
      while ((pos = find_token(text, name, pos)) != std::string_view::npos) {
        const std::size_t name_pos = pos;
        pos += name.size();
        std::size_t p = name_pos + name.size();
        while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
        if (p >= text.size() || text[p] != '(') continue;
        // Close of the argument list, then require `;` — the value hits
        // the floor only when the call is the whole statement.
        int depth = 0;
        std::size_t close = p;
        for (; close < text.size(); ++close) {
          if (text[close] == '(') ++depth;
          else if (text[close] == ')' && --depth == 0) break;
        }
        if (close >= text.size()) continue;
        std::size_t q = close + 1;
        while (q < text.size() &&
               (text[q] == ' ' || text[q] == '\t' || text[q] == '\n'))
          ++q;
        if (q >= text.size() || text[q] != ';') continue;
        // Walk back over the receiver chain to the start of the full
        // expression, then require statement position. `if (x.try_recv(`,
        // `ok = try_recv(`, `(void)try_recv(` all have a non-statement
        // character there and pass.
        std::size_t start = name_pos;
        while (start > 0) {
          const char c = text[start - 1];
          if (ident_char(c) || c == '.' || c == ':' || c == ']' ||
              c == '[') {
            --start;
            continue;
          }
          if (c == '>' && start > 1 && text[start - 2] == '-') {
            start -= 2;
            continue;
          }
          break;
        }
        std::size_t prev = start;
        while (prev > 0 && (text[prev - 1] == ' ' || text[prev - 1] == '\t' ||
                            text[prev - 1] == '\n' || text[prev - 1] == '\r'))
          --prev;
        const char before = prev == 0 ? ';' : text[prev - 1];
        if (before != ';' && before != '{' && before != '}') continue;
        finding v;
        v.rule = "unchecked-status";
        v.file = f.path;
        v.line = f.line_of(name_pos);
        v.message = "status return of '" + name +
                    "' dropped; a lost message becomes a silent hang — "
                    "branch on the result or cast to void with a reason";
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

std::vector<finding> check_overflow_arith(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs, const pass_options& opts) {
  std::vector<finding> out;
  flow_ctx ctx{tree, graph, -1, {}};
  const auto seed_name = [&opts](std::string_view name) {
    for (const auto& s : opts.overflow_seed_names)
      if (name == s) return true;
    return false;
  };
  static const char* const kChecked[] = {
      "checked_mul", "checked_add", "__builtin_mul_overflow",
      "__builtin_add_overflow", "__int128"};

  for (std::size_t fi = 0; fi < graph.functions.size(); ++fi) {
    const function_def& fn = graph.functions[fi];
    const source_file& f = ctx.file_of(fn);
    if (f.tree != "src" || !module_in(f.module, opts.overflow_modules))
      continue;
    const std::string_view text = ctx.text_of(fn);
    const function_cfg& cfg = cfgs[fi];
    const std::vector<local_decl> locals = collect_locals(f, text, fn);
    if (locals.empty()) continue;

    // Statically scaled: 64-bit declared type, or a seed name (nparts).
    // Only scalar integer locals (or `auto`, which is usually deduced
    // from one) can carry the taint at all — a std::vector, a struct, or
    // a double mentioned in an expression does not make its *value* a
    // K-scaled integer, and float arithmetic cannot wrap int64.
    std::vector<char> statically_scaled(locals.size(), 0);
    std::vector<char> taint_eligible(locals.size(), 0);
    for (std::size_t v = 0; v < locals.size(); ++v) {
      if (locals[v].pointer) continue;
      if (wide_int_type(locals[v].type) || narrow_int_type(locals[v].type) ||
          locals[v].type == "auto")
        taint_eligible[v] = 1;
      if (taint_eligible[v] != 0 &&
          (wide_int_type(locals[v].type) || seed_name(locals[v].name)))
        statically_scaled[v] = 1;
    }

    const auto local_index = [&locals](std::string_view name) {
      for (std::size_t v = 0; v < locals.size(); ++v)
        if (locals[v].name == name) return static_cast<int>(v);
      return -1;
    };

    // Forward may-analysis: fact v = "local v holds a K/Ne-scaled value".
    // The transfer of an assignment depends on the in-state (is the RHS
    // scaled *here*?), so the gen/kill sets are re-derived from the last
    // round's states until they stabilize — chaotic iteration with the
    // plain gen/kill solver underneath.
    dataflow_problem p;
    p.num_facts = static_cast<int>(locals.size());
    p.forward = true;
    p.may = true;
    p.boundary.assign(locals.size(), 0);
    for (std::size_t v = 0; v < locals.size(); ++v)
      if (statically_scaled[v] != 0) p.boundary[v] = 1;
    p.gen = make_fact_sets(cfg, p.num_facts);
    p.kill = make_fact_sets(cfg, p.num_facts);
    dataflow_result states;

    const auto stmt_mentions_scaled =
        [&](std::string_view stmt, std::string_view except,
            const std::vector<char>& scaled_here) {
          for (std::size_t v = 0; v < locals.size(); ++v) {
            if (locals[v].name == except) continue;
            if (statically_scaled[v] == 0 && scaled_here[v] == 0) continue;
            if (value_mention(stmt, locals[v].name)) return true;
          }
          return false;
        };

    const std::vector<char> no_facts(locals.size(), 0);
    for (int round = 0; round < 4; ++round) {
      bool changed = false;
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        const std::string_view stmt = flow_ctx::node_text(text, cfg.nodes[n]);
        if (stmt.empty()) continue;
        const std::vector<char>& here =
            round == 0 ? no_facts : states.in[n];
        for (std::size_t v = 0; v < locals.size(); ++v) {
          if (taint_eligible[v] == 0) continue;
          if (statically_scaled[v] != 0) continue;  // scaled by type, always
          if (!assigns_var(stmt, locals[v].name)) continue;
          const char g =
              stmt_mentions_scaled(stmt, locals[v].name, here) ? 1 : 0;
          const char k = static_cast<char>(1 - g);
          if (p.gen[n][v] != g || p.kill[n][v] != k) changed = true;
          p.gen[n][v] = g;
          p.kill[n][v] = k;
        }
      }
      if (round > 0 && !changed) break;
      states = solve_dataflow(cfg, p);
    }

    // Is the primary expression ending just before `pos` (an identifier,
    // a parenthesized group, or a static_cast) scaled in `state`?
    const auto operand_scaled_left = [&](std::string_view stmt,
                                         std::size_t star,
                                         const std::vector<char>& state,
                                         std::string* spelling) {
      std::size_t i = star;
      while (i > 0 && (stmt[i - 1] == ' ' || stmt[i - 1] == '\t')) --i;
      if (i == 0) return false;
      if (stmt[i - 1] == ')') {  // parenthesized group
        int depth = 0;
        std::size_t j = i;
        while (j > 0) {
          if (stmt[j - 1] == ')') ++depth;
          else if (stmt[j - 1] == '(' && --depth == 0) { --j; break; }
          --j;
        }
        const std::string_view group = stmt.substr(j, i - j);
        *spelling = std::string(group);
        for (std::size_t v = 0; v < locals.size(); ++v)
          if ((statically_scaled[v] != 0 || state[v] != 0) &&
              find_token(group, locals[v].name) != std::string_view::npos)
            return true;
        for (const auto& s : opts.overflow_seed_names)
          if (find_token(group, s) != std::string_view::npos) return true;
        return false;
      }
      if (!ident_char(stmt[i - 1]) ||
          std::isdigit(static_cast<unsigned char>(stmt[i - 1])) != 0)
        return false;
      std::size_t j = i;
      while (j > 0 && ident_char(stmt[j - 1])) --j;
      if (std::isdigit(static_cast<unsigned char>(stmt[j])) != 0)
        return false;  // numeric literal
      const std::string_view name = stmt.substr(j, i - j);
      *spelling = std::string(name);
      const int v = local_index(name);
      if (v >= 0 && (statically_scaled[v] != 0 || state[v] != 0))
        return true;
      return seed_name(name);
    };
    const auto operand_scaled_right = [&](std::string_view stmt,
                                          std::size_t star,
                                          const std::vector<char>& state,
                                          std::string* spelling) {
      std::size_t i = star + 1;
      while (i < stmt.size() && (stmt[i] == ' ' || stmt[i] == '\t')) ++i;
      if (i >= stmt.size()) return false;
      std::string_view rest = stmt.substr(i);
      // static_cast<T>(expr): the cast does not change scaledness.
      if (rest.compare(0, 11, "static_cast") == 0) {
        std::size_t j = i + 11;
        int depth = 0;
        for (; j < stmt.size(); ++j) {
          if (stmt[j] == '<') ++depth;
          else if (stmt[j] == '>' && --depth == 0) { ++j; break; }
        }
        while (j < stmt.size() && (stmt[j] == ' ' || stmt[j] == '\t')) ++j;
        i = j;
        rest = stmt.substr(i);
      }
      if (i < stmt.size() && stmt[i] == '(') {
        int depth = 0;
        std::size_t j = i;
        for (; j < stmt.size(); ++j) {
          if (stmt[j] == '(') ++depth;
          else if (stmt[j] == ')' && --depth == 0) { ++j; break; }
        }
        const std::string_view group = stmt.substr(i, j - i);
        *spelling = std::string(group);
        for (std::size_t v = 0; v < locals.size(); ++v)
          if ((statically_scaled[v] != 0 || state[v] != 0) &&
              find_token(group, locals[v].name) != std::string_view::npos)
            return true;
        for (const auto& s : opts.overflow_seed_names)
          if (find_token(group, s) != std::string_view::npos) return true;
        return false;
      }
      if (std::isdigit(static_cast<unsigned char>(stmt[i])) != 0)
        return false;
      const std::string_view name = ident_starting(stmt, i);
      if (name.empty()) return false;
      *spelling = std::string(name);
      const int v = local_index(name);
      if (v >= 0 && (statically_scaled[v] != 0 || state[v] != 0))
        return true;
      return seed_name(name);
    };

    std::set<std::pair<int, std::string>> reported;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const cfg_node& nd = cfg.nodes[n];
      const std::string_view stmt = flow_ctx::node_text(text, nd);
      if (stmt.empty()) continue;
      bool checked = false;
      for (const char* c : kChecked)
        if (find_token(stmt, c) != std::string_view::npos) checked = true;
      const std::vector<char>& state = states.in[n];

      // (a) unchecked products of two scaled operands.
      if (!checked) {
        for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
          if (stmt[i] != '*') continue;
          if (stmt[i + 1] == '=' && i + 2 < stmt.size()) {
            // `a *= b` multiplies too; fall through with the same checks.
          } else if (stmt[i + 1] == '*' || (i > 0 && stmt[i - 1] == '*')) {
            continue;  // ** cannot be a binary product chain here
          }
          std::string left, right;
          if (!operand_scaled_left(stmt, i, state, &left)) continue;
          const std::size_t rhs_from = stmt[i + 1] == '=' ? i + 1 : i;
          if (!operand_scaled_right(stmt, rhs_from, state, &right)) continue;
          const int line = f.line_of(nd.begin + i);
          if (!reported.emplace(line, left + "*" + right).second) continue;
          finding v;
          v.rule = "overflow-arith";
          v.file = f.path;
          v.line = line;
          v.message = "'" + left + " * " + right +
                      "' multiplies two K/Ne-scaled 64-bit values; at "
                      "tens-of-millions of elements this silently wraps "
                      "int64 and breaks the exact splitter dichotomy — use "
                      "sfp::checked_mul (util/safe_int.hpp) or restructure";
          out.push_back(std::move(v));
        }
      }

      // (b) K-scaled value narrowed into a 32-bit local without a cast.
      // Plain statements only: a for-header's `int i = 0` init is not a
      // narrowing of the bound it is later compared against.
      if (nd.k != cfg_node::kind::stmt) continue;
      if (find_token(stmt, "static_cast") != std::string_view::npos)
        continue;
      for (std::size_t v = 0; v < locals.size(); ++v) {
        if (!narrow_int_type(locals[v].type) || locals[v].pointer ||
            seed_name(locals[v].name))
          continue;
        if (!assigns_var(stmt, locals[v].name)) continue;
        if (!stmt_mentions_scaled(stmt, locals[v].name, state)) continue;
        const int line = f.line_of(nd.begin);
        if (!reported.emplace(line, "narrow:" + locals[v].name).second)
          continue;
        finding w;
        w.rule = "overflow-arith";
        w.file = f.path;
        w.line = line;
        w.message = "K/Ne-scaled value assigned into 32-bit '" +
                    locals[v].name +
                    "' (" + locals[v].type +
                    ") without an explicit cast; widen the local or "
                    "static_cast at a proven-small boundary";
        out.push_back(std::move(w));
      }
    }
  }
  return out;
}

std::vector<finding> check_use_after_move(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs) {
  std::vector<finding> out;
  flow_ctx ctx{tree, graph, -1, {}};
  for (std::size_t fi = 0; fi < graph.functions.size(); ++fi) {
    const function_def& fn = graph.functions[fi];
    const source_file& f = ctx.file_of(fn);
    const std::string_view text = ctx.text_of(fn);
    if (text.find("move", fn.body_begin) == std::string_view::npos &&
        text.find("forward", fn.body_begin) == std::string_view::npos)
      continue;  // cheap pre-filter; exact range check below
    const function_cfg& cfg = cfgs[fi];
    const std::vector<local_decl> locals = collect_locals(f, text, fn);
    if (locals.empty()) continue;

    // Facts: "some local named N is maybe moved-from". Facts are keyed by
    // NAME, not by declaration: two same-named locals in sibling scopes
    // (the ubiquitous `finding v; ... push_back(std::move(v));` in two
    // branches of one loop) would otherwise cross-contaminate through the
    // loop back edge — the move of one gens the other's fact and its own
    // declaration-kill is off-path. With name-keyed facts every
    // declaration of the name kills, so entering either branch rebinds.
    std::vector<std::string> moved_names;
    std::vector<int> move_line;
    for (std::size_t v = 0; v < locals.size(); ++v) {
      if (locals[v].pointer) continue;
      if (std::find(moved_names.begin(), moved_names.end(),
                    locals[v].name) != moved_names.end())
        continue;
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        const std::string_view stmt =
            flow_ctx::node_text(text, cfg.nodes[n]);
        if (stmt.empty() || !moves_var(stmt, locals[v].name)) continue;
        moved_names.push_back(locals[v].name);
        move_line.push_back(cfg.nodes[n].line);
        break;
      }
    }
    if (moved_names.empty()) continue;

    dataflow_problem p;
    p.num_facts = static_cast<int>(moved_names.size());
    p.forward = true;
    p.may = true;
    p.gen = make_fact_sets(cfg, p.num_facts);
    p.kill = make_fact_sets(cfg, p.num_facts);

    // Any declaration of the name inside this node rebinds it.
    const auto decl_in_node = [&locals](const cfg_node& nd,
                                        const std::string& name) {
      for (const local_decl& d : locals)
        if (d.name == name && d.pos >= nd.begin && d.pos < nd.end)
          return d.pos - nd.begin;
      return std::string_view::npos;
    };

    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const cfg_node& nd = cfg.nodes[n];
      const std::string_view stmt = flow_ctx::node_text(text, nd);
      if (stmt.empty()) continue;
      for (std::size_t t = 0; t < moved_names.size(); ++t) {
        const std::string& name = moved_names[t];
        // Reassignment / reinit / (re)declaration rebinds the value.
        const bool redecl =
            decl_in_node(nd, name) != std::string_view::npos;
        const bool reinit =
            assigns_var(stmt, name) ||
            stmt.find(name + ".reset(") != std::string_view::npos ||
            stmt.find(name + ".clear(") != std::string_view::npos ||
            stmt.find(name + ".assign(") != std::string_view::npos;
        if (redecl || reinit) p.kill[n][t] = 1;
        // A move consumed by a reassignment of the same variable
        // (`tails = f(std::move(tails));`) leaves it freshly bound — the
        // kill wins and no moved-from state escapes the statement.
        if (moves_var(stmt, name) && p.kill[n][t] == 0) p.gen[n][t] = 1;
      }
    }

    const dataflow_result states = solve_dataflow(cfg, p);
    std::set<std::pair<int, int>> reported;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const cfg_node& nd = cfg.nodes[n];
      const std::string_view stmt = flow_ctx::node_text(text, nd);
      if (stmt.empty()) continue;
      for (std::size_t t = 0; t < moved_names.size(); ++t) {
        if (states.in[n][t] == 0) continue;
        const std::string& name = moved_names[t];
        // A node that (re)declares the name binds fresh before any read
        // in it executes (for-headers read their own induction variable,
        // lambdas shadow) — nothing here touches the moved-from value.
        if (decl_in_node(nd, name) != std::string_view::npos) continue;
        // A pure rebind (`v = fresh;`) is the fix, not a use: reads_var
        // already excludes the assignment target, so only genuine reads
        // remain.
        if (!reads_var(stmt, name)) continue;
        if (!reported.emplace(static_cast<int>(t), nd.line).second)
          continue;
        finding v;
        v.rule = "use-after-move";
        v.file = f.path;
        v.line = nd.line;
        v.message = "'" + name + "' is read here but was moved from on "
                    "a path reaching this statement (move at line " +
                    std::to_string(move_line[t]) +
                    "); reassign it first or restructure the ownership";
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

std::vector<finding> check_status_paths(
    const source_tree& tree, const call_graph& graph,
    const std::vector<function_cfg>& cfgs, const pass_options& opts) {
  std::vector<finding> out;
  flow_ctx ctx{tree, graph, -1, {}};
  for (std::size_t fi = 0; fi < graph.functions.size(); ++fi) {
    const function_def& fn = graph.functions[fi];
    const source_file& f = ctx.file_of(fn);
    if (!path_under(f.path, opts.status_trees)) continue;
    const std::string_view text = ctx.text_of(fn);
    const function_cfg& cfg = cfgs[fi];
    const std::vector<local_decl> locals = collect_locals(f, text, fn);
    if (locals.empty()) continue;

    // Capture sites: `ok = x.try_recv(...)` (declaration or assignment).
    struct capture {
      int local = -1;
      int node = -1;
      std::string call;
    };
    std::vector<capture> captures;
    std::vector<int> status_locals;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const cfg_node& nd = cfg.nodes[n];
      if (nd.k != cfg_node::kind::stmt) continue;  // headers read in place
      const std::string_view stmt = flow_ctx::node_text(text, nd);
      for (const auto& name : opts.status_call_names) {
        std::size_t pos = find_token(stmt, name);
        if (pos == std::string_view::npos) continue;
        std::size_t after = pos + name.size();
        while (after < stmt.size() &&
               (stmt[after] == ' ' || stmt[after] == '\t'))
          ++after;
        if (after >= stmt.size() || stmt[after] != '(') continue;
        const std::string_view lhs = assigned_lhs(stmt, pos);
        if (lhs.empty()) continue;
        int li = -1;
        for (std::size_t v = 0; v < locals.size(); ++v)
          if (locals[v].name == lhs) li = static_cast<int>(v);
        if (li < 0) continue;
        capture c;
        c.local = li;
        c.node = static_cast<int>(n);
        c.call = name;
        captures.push_back(std::move(c));
        if (std::find(status_locals.begin(), status_locals.end(), li) ==
            status_locals.end())
          status_locals.push_back(li);
      }
    }
    if (captures.empty()) continue;

    // Backward must-analysis: fact = "the status in v is read before v is
    // overwritten or the function exits", on EVERY path.
    dataflow_problem p;
    p.num_facts = static_cast<int>(status_locals.size());
    p.forward = false;
    p.may = false;
    p.gen = make_fact_sets(cfg, p.num_facts);
    p.kill = make_fact_sets(cfg, p.num_facts);
    p.boundary.assign(status_locals.size(), 0);  // nothing read after exit

    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const cfg_node& nd = cfg.nodes[n];
      const std::string_view stmt = flow_ctx::node_text(text, nd);
      if (stmt.empty()) continue;
      for (std::size_t t = 0; t < status_locals.size(); ++t) {
        const local_decl& d =
            locals[static_cast<std::size_t>(status_locals[t])];
        const std::size_t skip_at =
            d.pos >= nd.begin && d.pos < nd.end ? d.pos - nd.begin
                                                : std::string_view::npos;
        if (assigns_var(stmt, d.name)) p.kill[n][t] = 1;
        if (reads_var(stmt, d.name, skip_at)) p.gen[n][t] = 1;
      }
    }

    const dataflow_result states = solve_dataflow(cfg, p);
    std::set<std::pair<int, int>> reported;
    for (const capture& c : captures) {
      int t = -1;
      for (std::size_t s = 0; s < status_locals.size(); ++s)
        if (status_locals[s] == c.local) t = static_cast<int>(s);
      // out[capture] (backward: the set flowing in from successors) must
      // say the freshly written status is read on every outgoing path.
      if (states.out[static_cast<std::size_t>(c.node)]
                    [static_cast<std::size_t>(t)] != 0)
        continue;
      const local_decl& d = locals[static_cast<std::size_t>(c.local)];
      const int line = cfg.nodes[static_cast<std::size_t>(c.node)].line;
      if (!reported.emplace(c.local, line).second) continue;
      finding v;
      v.rule = "unchecked-status";
      v.file = f.path;
      v.line = line;
      v.message = "status of '" + c.call + "' captured into '" + d.name +
                  "' is not read on every path before it is overwritten "
                  "or dropped; a sometimes-checked status still turns "
                  "lost messages into silent hangs";
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::vector<finding> check_suppression_format(const source_tree& tree) {
  std::vector<finding> out;
  for (const auto& f : tree.files) {
    for (const lint_tag& tag : f.tags) {
      finding v;
      v.rule = "suppression-format";
      v.file = f.path;
      v.line = tag.line;
      if (tag.token.size() <= 3 ||
          tag.token.compare(tag.token.size() - 3, 3, "-ok") != 0) {
        v.message = "malformed suppression tag 'lint: " + tag.token +
                    "'; the canonical form is `lint: <slug>-ok — <reason>`";
        out.push_back(std::move(v));
        continue;
      }
      const std::string slug = tag.token.substr(0, tag.token.size() - 3);
      if (rule_by_slug(slug) == nullptr) {
        v.message = "suppression tag names unknown rule '" + slug +
                    "' (see sfplint --list-rules)";
        out.push_back(std::move(v));
        continue;
      }
      // Canonical separator: space, em-dash, space, non-empty reason.
      std::string_view rest = tag.rest;
      while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
        rest.remove_prefix(1);
      if (rest.empty()) {
        v.message = "suppression of '" + slug +
                    "' has no reason; write `lint: " + slug +
                    "-ok — <why this is safe>`";
        out.push_back(std::move(v));
        continue;
      }
      const std::string_view dash = "\xE2\x80\x94";  // em-dash U+2014
      if (rest.compare(0, dash.size(), dash) == 0) {
        std::string_view reason = rest.substr(dash.size());
        while (!reason.empty() &&
               (reason.front() == ' ' || reason.front() == '\t'))
          reason.remove_prefix(1);
        if (!reason.empty()) continue;  // canonical
        v.message = "suppression of '" + slug +
                    "' has a separator but no reason text";
        out.push_back(std::move(v));
        continue;
      }
      v.message = "suppression of '" + slug +
                  "' uses a non-canonical separator; write `lint: " + slug +
                  "-ok — <reason>` (em-dash) — autofixable via "
                  "sfplint --fix";
      out.push_back(std::move(v));
    }
  }
  return out;
}

void filter_rules(analysis_result& r, const std::vector<std::string>& slugs) {
  const auto keep = [&slugs](const finding& f) {
    return std::find(slugs.begin(), slugs.end(), f.rule) != slugs.end();
  };
  const auto drop = [&keep](std::vector<finding>& v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&keep](const finding& f) { return !keep(f); }),
            v.end());
  };
  drop(r.findings);
  drop(r.suppressed);
}

analysis_result run_all(const source_tree& tree,
                        const layering_manifest& manifest,
                        const pass_options& opts) {
  analysis_result r;
  r.files_scanned = tree.files.size();
  r.graph = build_module_graph(tree);
  r.calls = build_call_graph(tree);
  r.concurrency = build_concurrency_model(tree, r.calls);
  r.lock_order = build_lock_order_graph(tree, r.calls, r.concurrency);
  r.cfgs = build_cfgs(tree, r.calls);

  std::vector<finding> all;
  const auto append = [&all](std::vector<finding> v) {
    all.insert(all.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  };
  append(check_layering(r.graph, manifest));
  append(check_determinism(tree, opts));
  append(check_contract_discipline(tree, opts));
  append(check_header_hygiene(tree));
  append(check_blocking_calls(tree, opts));
  append(check_raw_assert(tree));
  append(check_transport_discipline(tree, manifest));
  append(check_determinism_transitive(tree, r.calls, r.concurrency, opts));
  append(check_lock_order(r.lock_order));
  append(
      check_blocking_while_locked(tree, r.calls, r.concurrency, opts));
  append(check_unchecked_status(tree, opts));
  append(check_overflow_arith(tree, r.calls, r.cfgs, opts));
  append(check_use_after_move(tree, r.calls, r.cfgs));
  append(check_status_paths(tree, r.calls, r.cfgs, opts));
  append(check_suppression_format(tree));

  std::map<std::string, const source_file*> by_path;
  for (const auto& f : tree.files) by_path[f.path] = &f;
  for (auto& f : all) {
    const auto it = by_path.find(f.file);
    // Suppressibility comes from the catalogue: cycles and manifest gaps
    // cannot be waved through with a comment — the fix is structural
    // (break the cycle / extend the manifest).
    const rule_info* info = rule_by_slug(f.rule);
    const bool suppressible = info == nullptr || info->suppressible;
    if (suppressible && it != by_path.end() &&
        it->second->has_tag(f.line, f.rule))
      r.suppressed.push_back(std::move(f));
    else
      r.findings.push_back(std::move(f));
  }
  std::sort(r.findings.begin(), r.findings.end());
  r.findings.erase(std::unique(r.findings.begin(), r.findings.end()),
                   r.findings.end());
  std::sort(r.suppressed.begin(), r.suppressed.end());
  return r;
}

}  // namespace sfp::analysis
