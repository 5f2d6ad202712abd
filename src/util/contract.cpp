#include "util/contract.hpp"

#include <atomic>

#include "util/log.hpp"

namespace sfp {

namespace {
// Handler/observer slots. Plain atomics: installation is rare (tests,
// process setup), invocation must be safe from any thread.
std::atomic<violation_handler> g_handler{nullptr};
std::atomic<violation_observer> g_observer{nullptr};
}  // namespace

violation_handler set_violation_handler(violation_handler h) {
  return g_handler.exchange(h);
}

violation_observer set_violation_observer(violation_observer o) {
  return g_observer.exchange(o);
}

std::string diagnostic::to_string() const {
  if (ok) return "ok";
  std::string s = invariant;
  s += ": ";
  s += detail;
  return s;
}

namespace detail {

[[noreturn]] void contract_fail(const char* kind, std::string expr,
                                const char* file, int line, std::string msg) {
  contract_violation v;
  v.kind = kind;
  v.expression = std::move(expr);
  v.file = file;
  v.line = line;
  v.message = std::move(msg);

  if (const violation_observer obs = g_observer.load()) obs(v);

  std::ostringstream os;
  os << kind << " failed: (" << v.expression << ") at " << file << ':' << line;
  if (!v.message.empty()) os << " — " << v.message;
  const std::string what = os.str();

  if (const violation_handler h = g_handler.load()) {
    h(v);  // may throw or abort; if it returns we still throw below
  } else {
    // Debug level: tests exercise violations on purpose, and the throw
    // below already carries the full report to whoever cares.
    log_debug("contract: ", what);
  }
  throw contract_error(what, std::move(v.message));
}

}  // namespace detail
}  // namespace sfp
