#pragma once
// Tiered contract checking — the correctness backbone of the library.
//
// Three tiers, by cost and build coverage:
//
//   SFP_REQUIRE(expr, msg)  always on. Validates caller-supplied arguments
//                           at public API boundaries and untrusted input
//                           (parsers, file readers). O(1) or amortized into
//                           work the call does anyway.
//   SFP_ASSERT(expr, msg)   debug and audit builds. Internal invariants
//                           whose cost is small but not free; compiled out
//                           in plain NDEBUG builds.
//   SFP_AUDIT(expr, msg)    audit builds only (-DSFCPART_AUDIT=ON). May be
//                           arbitrarily expensive — full O(V+E) structural
//                           validation at module boundaries. Zero cost when
//                           compiled out.
//   SFP_AUDIT_DIAG(call)    audit-tier check of a validator returning
//                           sfp::diagnostic (see below); on failure the
//                           diagnostic's invariant slug and detail become
//                           the violation report.
//
// Every tier funnels through one violation path: the violation (kind,
// expression, file:line, message) is handed to a pluggable handler, then to
// an observer hook the observability layer installs (so violations are
// counted in the metrics registry), and finally raised as
// sfp::contract_error. Tests install their own handler to assert on
// violations without unwinding; production code lets the throw abort the
// operation before a broken invariant can corrupt a partition.

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace sfp {

/// Thrown when a precondition or internal invariant is violated. what() is
/// the full report (kind, expression, file:line, message); message() is the
/// check site's own message alone, the part fit for a user.
class contract_error : public std::logic_error {
 public:
  contract_error(const std::string& what_arg, std::string message)
      : std::logic_error(what_arg), message_(std::move(message)) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

/// Everything known about one contract violation, as captured at the
/// failing check site.
struct contract_violation {
  const char* kind = "";   ///< "precondition", "invariant", or "audit"
  std::string expression;  ///< the failed expression or invariant slug
  const char* file = "";
  int line = 0;
  std::string message;  ///< formatted context supplied at the check site
};

/// Violation handler: runs before contract_error is thrown. If it returns
/// (rather than throwing or aborting), the throw proceeds anyway, so a
/// handler cannot accidentally let execution continue past a violation.
using violation_handler = void (*)(const contract_violation&);

/// Install a handler; returns the previous one. nullptr restores default
/// behaviour (log at error level, notify the observer, throw).
violation_handler set_violation_handler(violation_handler h);

/// Observer hook for passive instrumentation (the obs layer registers one
/// that bumps `contract.violations.<kind>` counters). Unlike the handler it
/// is always invoked, even when a custom handler is installed.
using violation_observer = void (*)(const contract_violation&);
violation_observer set_violation_observer(violation_observer o);

/// Structured result of a deep validator (graph::validate_csr,
/// mesh::validate_topology, sfc::validate_curve, core::validate_plan).
/// `invariant` is a stable machine-checkable slug naming the first violated
/// invariant ("csr.symmetry", "plan.segment-contiguity", ...); `detail`
/// says where and how it failed; `index` is the offending vertex / element
/// / curve position when one exists.
struct diagnostic {
  bool ok = true;
  std::string invariant;
  std::string detail;
  std::int64_t index = -1;

  explicit operator bool() const { return ok; }

  static diagnostic pass() { return {}; }
  static diagnostic fail(std::string invariant_slug, std::string detail_msg,
                         std::int64_t where = -1) {
    diagnostic d;
    d.ok = false;
    d.invariant = std::move(invariant_slug);
    d.detail = std::move(detail_msg);
    d.index = where;
    return d;
  }

  /// "<invariant>: <detail>" (or "ok").
  std::string to_string() const;
};

namespace detail {
[[noreturn]] void contract_fail(const char* kind, std::string expr,
                                const char* file, int line, std::string msg);

[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  contract_fail(kind, std::string(expr), file, line, msg);
}
}  // namespace detail

}  // namespace sfp

#define SFP_REQUIRE(expr, msg)                                            \
  do {                                                                    \
    if (!(expr))                                                          \
      ::sfp::detail::contract_fail("precondition", #expr, __FILE__,       \
                                   __LINE__, (msg));                      \
  } while (false)

// SFP_ASSERT participates in debug builds and in audit builds (where the
// point is maximum checking regardless of NDEBUG).
#if !defined(NDEBUG) || defined(SFCPART_AUDIT)
#define SFP_ASSERT(expr, msg)                                          \
  do {                                                                 \
    if (!(expr))                                                       \
      ::sfp::detail::contract_fail("invariant", #expr, __FILE__,       \
                                   __LINE__, (msg));                   \
  } while (false)
#else
#define SFP_ASSERT(expr, msg) \
  do {                        \
  } while (false)
#endif

#ifdef SFCPART_AUDIT
#define SFP_AUDIT(expr, msg)                                          \
  do {                                                                \
    if (!(expr))                                                      \
      ::sfp::detail::contract_fail("audit", #expr, __FILE__,          \
                                   __LINE__, (msg));                  \
  } while (false)
#define SFP_AUDIT_DIAG(call)                                             \
  do {                                                                   \
    const ::sfp::diagnostic sfp_audit_diag_ = (call);                    \
    if (!sfp_audit_diag_.ok)                                             \
      ::sfp::detail::contract_fail("audit", sfp_audit_diag_.invariant,   \
                                   __FILE__, __LINE__,                   \
                                   sfp_audit_diag_.detail);              \
  } while (false)
#define SFP_AUDIT_ENABLED 1
#else
#define SFP_AUDIT(expr, msg) \
  do {                       \
  } while (false)
#define SFP_AUDIT_DIAG(call) \
  do {                       \
  } while (false)
#define SFP_AUDIT_ENABLED 0
#endif
