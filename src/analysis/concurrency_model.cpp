#include "analysis/concurrency_model.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace sfp::analysis {

namespace {

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool ident_char(char c) {
  return ident_start(c) || (c >= '0' && c <= '9');
}

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

void skip_ws(std::string_view text, std::size_t& i) {
  while (i < text.size() && is_ws(text[i])) ++i;
}

std::size_t skip_balanced(std::string_view text, std::size_t i, char open,
                          char close) {
  int depth = 0;
  for (; i < text.size(); ++i) {
    if (text[i] == open) ++depth;
    else if (text[i] == close && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

std::size_t skip_angles(std::string_view text, std::size_t i) {
  const std::size_t start = i;
  int depth = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') ++depth;
    else if (c == '>') {
      if (--depth == 0) return i + 1;
    } else if (c == ';' || c == '{' || c == '}') {
      return start;
    }
  }
  return start;
}

bool guard_token(std::string_view w) {
  return w == "lock_guard" || w == "unique_lock" || w == "scoped_lock" ||
         w == "shared_lock";
}

bool blocking_token(std::string_view w) {
  static const std::set<std::string_view> exact = {
      "wait",      "wait_for",    "wait_until", "recv",  "barrier",
      "sleep_for", "sleep_until", "accept",     "recv_or_quiescent"};
  if (exact.count(w) > 0) return true;
  for (const std::string_view prefix : {"allreduce", "allgather", "exscan"})
    if (w.size() >= prefix.size() && w.substr(0, prefix.size()) == prefix)
      return true;
  return false;
}

/// Whitespace-stripped, `->` folded to `.`, leading `this.` / `&` / `*`
/// and wrapping parens dropped.
std::string normalize_mutex_expr(std::string_view raw) {
  std::string out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (is_ws(c)) continue;
    if (c == '-' && i + 1 < raw.size() && raw[i + 1] == '>') {
      out.push_back('.');
      ++i;
      continue;
    }
    if (c == '&' || c == '*' || c == '(' || c == ')') continue;
    out.push_back(c);
  }
  if (out.compare(0, 5, "this.") == 0) out.erase(0, 5);
  return out;
}

/// Split a balanced argument list body on top-level commas.
std::vector<std::string> split_args(std::string_view body) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    else if (c == ',' && depth == 0) {
      out.emplace_back(body.substr(start, i - start));
      start = i + 1;
    }
  }
  out.emplace_back(body.substr(start));
  return out;
}

/// Receiver expression of a member call whose separator (`.` / `->`) ends
/// just before `name_pos`; empty when there is none.
std::string receiver_before(std::string_view text, std::size_t name_pos) {
  std::size_t end = name_pos;
  if (end > 0 && text[end - 1] == '.') {
    --end;
  } else if (end > 1 && text[end - 1] == '>' && text[end - 2] == '-') {
    end -= 2;
  } else {
    return {};
  }
  std::size_t start = end;
  while (start > 0) {
    const char c = text[start - 1];
    if (ident_char(c) || c == '.' || c == ':' || c == ']' || c == '[') {
      --start;
      continue;
    }
    if (c == '>' && start > 1 && text[start - 2] == '-') {
      start -= 2;
      continue;
    }
    break;
  }
  return normalize_mutex_expr(text.substr(start, end - start));
}

int intern_mutex(std::vector<std::string>& names, const std::string& key) {
  for (std::size_t k = 0; k < names.size(); ++k)
    if (names[k] == key) return static_cast<int>(k);
  names.push_back(key);
  return static_cast<int>(names.size() - 1);
}

/// Scan one function body for acquisitions / blocking / nondet sites.
void scan_body(const source_file& f, std::string_view text,
               const function_def& def, int fn, concurrency_model& m) {
  std::set<std::string> guard_vars;          // `lk` in unique_lock lk(...)
  std::vector<std::vector<int>> scope_acqs;  // guard acq indices per scope
  std::map<int, int> open_raw;               // mutex id -> open raw acq
  std::size_t i = def.body_begin;
  while (i < def.body_end) {
    const char c = text[i];
    if (c == '{') {
      scope_acqs.emplace_back();
      ++i;
      continue;
    }
    if (c == '}') {
      if (!scope_acqs.empty()) {
        for (const int a : scope_acqs.back())
          m.acquisitions[static_cast<std::size_t>(a)].hold_end = i + 1;
        scope_acqs.pop_back();
      }
      ++i;
      continue;
    }
    if (!ident_start(c)) {
      ++i;
      continue;
    }
    const std::size_t name_pos = i;
    std::size_t end = i;
    while (end < def.body_end && ident_char(text[end])) ++end;
    const std::string_view word = text.substr(name_pos, end - name_pos);
    i = end;

    if (guard_token(word)) {
      std::size_t p = i;
      if (p < def.body_end && text[p] == '<') {
        const std::size_t after = skip_angles(text, p);
        if (after == p) continue;
        p = after;
      }
      skip_ws(text, p);
      std::size_t var_start = p;
      while (p < def.body_end && ident_char(text[p])) ++p;
      const std::string var(text.substr(var_start, p - var_start));
      skip_ws(text, p);
      if (p >= def.body_end || (text[p] != '(' && text[p] != '{')) continue;
      const char open = text[p];
      const char close = open == '(' ? ')' : '}';
      const std::size_t after = skip_balanced(text, p, open, close);
      if (after == std::string_view::npos || after > def.body_end) continue;
      const std::string_view args =
          text.substr(p + 1, after - p - 2);
      if (args.find("defer_lock") != std::string_view::npos) {
        i = after;
        continue;  // deferred: the later .lock() records the acquisition
      }
      if (!var.empty()) guard_vars.insert(var);
      for (const std::string& arg : split_args(args)) {
        if (arg.find("adopt_lock") != std::string::npos ||
            arg.find("try_to_lock") != std::string::npos)
          continue;
        const std::string expr = normalize_mutex_expr(arg);
        if (expr.empty()) continue;
        lock_acquisition a;
        a.function = fn;
        a.mutex = intern_mutex(m.mutex_names, f.path + "::" + expr);
        a.expr = expr;
        a.pos = name_pos;
        a.line = f.line_of(name_pos);
        a.hold_end = def.body_end;  // refined when the scope closes
        const int idx = static_cast<int>(m.acquisitions.size());
        m.acquisitions.push_back(std::move(a));
        if (!scope_acqs.empty()) scope_acqs.back().push_back(idx);
      }
      i = after;
      continue;
    }

    if (word == "lock" || word == "unlock") {
      std::size_t p = i;
      skip_ws(text, p);
      if (p >= def.body_end || text[p] != '(') continue;
      std::size_t q = p + 1;
      skip_ws(text, q);
      if (q >= def.body_end || text[q] != ')') continue;  // args: not raw
      const std::string expr = receiver_before(text, name_pos);
      if (expr.empty() || guard_vars.count(expr) > 0) continue;
      const int mid = intern_mutex(m.mutex_names, f.path + "::" + expr);
      if (word == "lock") {
        lock_acquisition a;
        a.function = fn;
        a.mutex = mid;
        a.expr = expr;
        a.pos = name_pos;
        a.line = f.line_of(name_pos);
        a.hold_end = def.body_end;
        a.raw = true;
        open_raw[mid] = static_cast<int>(m.acquisitions.size());
        m.acquisitions.push_back(std::move(a));
      } else {
        const auto it = open_raw.find(mid);
        if (it != open_raw.end()) {
          m.acquisitions[static_cast<std::size_t>(it->second)].hold_end =
              name_pos;
          open_raw.erase(it);
        }
      }
      i = q + 1;
      continue;
    }

    if (blocking_token(word)) {
      std::size_t p = i;
      skip_ws(text, p);
      if (p >= def.body_end || text[p] != '(') continue;
      blocking_site s;
      s.function = fn;
      s.what = std::string(word);
      s.pos = name_pos;
      s.line = f.line_of(name_pos);
      m.blocking.push_back(std::move(s));
      continue;
    }

    if (word == "rand" || word == "srand" || word == "time") {
      const bool member =
          name_pos > def.body_begin &&
          (text[name_pos - 1] == '.' ||
           (name_pos > def.body_begin + 1 && text[name_pos - 1] == '>' &&
            text[name_pos - 2] == '-'));
      std::size_t p = i;
      skip_ws(text, p);
      if (member || p >= def.body_end || text[p] != '(') continue;
      nondet_site s;
      s.function = fn;
      s.what = std::string(word);
      s.pos = name_pos;
      s.line = f.line_of(name_pos);
      m.nondet.push_back(std::move(s));
      continue;
    }
    if (word == "random_device") {
      nondet_site s;
      s.function = fn;
      s.what = "random_device";
      s.pos = name_pos;
      s.line = f.line_of(name_pos);
      m.nondet.push_back(std::move(s));
      continue;
    }
  }
}

/// Propagate a boolean reach bit from direct sites up through callers,
/// recording the first witnessing call per function.
void propagate_reach(const call_graph& g, const std::vector<char>& direct,
                     std::vector<char>& reach, std::vector<int>& via) {
  const std::size_t n = g.functions.size();
  reach.assign(n, 0);
  via.assign(n, -1);
  // Reverse edges annotated with the originating call-site index.
  std::vector<std::vector<int>> calls_into(n);
  for (std::size_t ci = 0; ci < g.calls.size(); ++ci)
    for (const int t : g.calls[ci].targets)
      calls_into[static_cast<std::size_t>(t)].push_back(
          static_cast<int>(ci));
  std::vector<int> queue;
  for (std::size_t k = 0; k < n; ++k)
    if (direct[k]) {
      reach[k] = 1;
      queue.push_back(static_cast<int>(k));
    }
  while (!queue.empty()) {
    const int t = queue.back();
    queue.pop_back();
    for (const int ci : calls_into[static_cast<std::size_t>(t)]) {
      const int caller = g.calls[static_cast<std::size_t>(ci)].caller;
      if (reach[static_cast<std::size_t>(caller)]) continue;
      reach[static_cast<std::size_t>(caller)] = 1;
      via[static_cast<std::size_t>(caller)] = ci;
      queue.push_back(caller);
    }
  }
}

/// Shared chain formatter: follow `via` hops from `fn` to a function with
/// a direct site, then append "<what>() [file:line]".
template <class Site>
std::string format_chain(const source_tree& tree, const call_graph& g,
                         const std::vector<char>& reach,
                         const std::vector<int>& via,
                         const std::vector<std::vector<int>>& sites_of,
                         const std::vector<Site>& sites, int fn) {
  if (fn < 0 || static_cast<std::size_t>(fn) >= g.functions.size() ||
      !reach[static_cast<std::size_t>(fn)])
    return {};
  std::string out;
  std::set<int> seen;
  int cur = fn;
  for (int hop = 0; hop < 8; ++hop) {
    if (!seen.insert(cur).second) break;
    out += g.functions[static_cast<std::size_t>(cur)].qualified;
    const auto& direct = sites_of[static_cast<std::size_t>(cur)];
    const int v = via[static_cast<std::size_t>(cur)];
    if (v < 0 || !direct.empty()) {
      if (direct.empty()) break;  // inconsistent model; stop gracefully
      const Site& s = sites[static_cast<std::size_t>(direct.front())];
      const function_def& d = g.functions[static_cast<std::size_t>(cur)];
      out += " -> " + s.what + "() [" +
             tree.files[static_cast<std::size_t>(d.file)].path + ":" +
             std::to_string(s.line) + "]";
      return out;
    }
    out += " -> ";
    const call_site& c = g.calls[static_cast<std::size_t>(v)];
    // Step toward any reachable target of the witness call.
    int next = -1;
    for (const int t : c.targets)
      if (reach[static_cast<std::size_t>(t)]) {
        next = t;
        break;
      }
    if (next < 0) break;
    cur = next;
  }
  out += "...";
  return out;
}

}  // namespace

concurrency_model build_concurrency_model(const source_tree& tree,
                                          const call_graph& graph) {
  concurrency_model m;
  const std::size_t n = graph.functions.size();
  for (std::size_t k = 0; k < n; ++k) {
    const function_def& d = graph.functions[k];
    scan_body(tree.files[static_cast<std::size_t>(d.file)],
              tree.files[static_cast<std::size_t>(d.file)].stripped, d,
              static_cast<int>(k), m);
  }
  m.acquisitions_of.assign(n, {});
  m.blocking_of.assign(n, {});
  m.nondet_of.assign(n, {});
  for (std::size_t k = 0; k < m.acquisitions.size(); ++k)
    m.acquisitions_of[static_cast<std::size_t>(m.acquisitions[k].function)]
        .push_back(static_cast<int>(k));
  for (std::size_t k = 0; k < m.blocking.size(); ++k)
    m.blocking_of[static_cast<std::size_t>(m.blocking[k].function)]
        .push_back(static_cast<int>(k));
  for (std::size_t k = 0; k < m.nondet.size(); ++k)
    m.nondet_of[static_cast<std::size_t>(m.nondet[k].function)].push_back(
        static_cast<int>(k));

  // Lock closure: direct mutexes, then a fixpoint union over callees.
  m.lock_closure.assign(n, {});
  for (const auto& a : m.acquisitions)
    m.lock_closure[static_cast<std::size_t>(a.function)].push_back(a.mutex);
  for (auto& v : m.lock_closure) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t k = 0; k < n; ++k) {
      for (const int t : graph.callees_of[k]) {
        const auto& from = m.lock_closure[static_cast<std::size_t>(t)];
        auto& into = m.lock_closure[k];
        for (const int mid : from) {
          if (!std::binary_search(into.begin(), into.end(), mid)) {
            into.insert(
                std::lower_bound(into.begin(), into.end(), mid), mid);
            changed = true;
          }
        }
      }
    }
  }

  std::vector<char> direct_blocking(n, 0), direct_nondet(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    direct_blocking[k] = m.blocking_of[k].empty() ? 0 : 1;
    direct_nondet[k] = m.nondet_of[k].empty() ? 0 : 1;
  }
  propagate_reach(graph, direct_blocking, m.blocks_transitively,
                  m.blocking_via_call);
  propagate_reach(graph, direct_nondet, m.nondet_transitively,
                  m.nondet_via_call);
  return m;
}

std::string nondet_chain(const source_tree& tree, const call_graph& graph,
                         const concurrency_model& model, int fn) {
  return format_chain(tree, graph, model.nondet_transitively,
                      model.nondet_via_call, model.nondet_of, model.nondet,
                      fn);
}

std::string blocking_chain(const source_tree& tree, const call_graph& graph,
                           const concurrency_model& model, int fn) {
  return format_chain(tree, graph, model.blocks_transitively,
                      model.blocking_via_call, model.blocking_of,
                      model.blocking, fn);
}

}  // namespace sfp::analysis
