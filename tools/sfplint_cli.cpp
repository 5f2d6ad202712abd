// sfplint — project-native static analyzer for sfcpart.
//
//   sfplint --root=DIR [--manifest=FILE] [--baseline=FILE] [--json=FILE]
//           [--sarif=FILE] [--write-baseline=FILE] [--rule=SLUG[,SLUG...]]
//           [--diff-base=REV] [--fix] [--fix-dry-run] [--stats]
//           [--list-rules] [--quiet]
//
// Scans src/, bench/, tools/, examples/, and fuzz/ under --root and
// enforces the repo's structural rules: the declared module layering
// (tools/layering.json), determinism in partitioner code (direct AND
// transitive through the cross-TU call graph), lock-order / blocking
// discipline from the concurrency model, contract-tier discipline, header
// hygiene, the blocking-call / raw-assert rules folded in from the old
// grep lints, and the v3 flow-sensitive rules (overflow-arith,
// use-after-move, path-sensitive unchecked-status) riding
// the per-function statement CFGs. See docs/static_analysis.md.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error. With
// --rule=<slug>[,<slug>...] only the named rules count: exit 1 iff a
// *filtered* finding remains (the JSON report and text listing are
// filtered the same way), and an unknown slug is a usage error (2).
// --diff-base=REV additionally drops findings whose anchor line is
// unchanged relative to the git revision (differential CI mode).
// --fix applies the mechanical autofixes and exits 0 when everything it
// touched is repaired; --fix-dry-run prints the plan without writing and
// exits 1 iff the plan is non-empty (the CI "no pending autofix" gate).

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/changed_lines.hpp"
#include "analysis/fix.hpp"
#include "analysis/manifest.hpp"
#include "analysis/passes.hpp"
#include "analysis/report.hpp"
#include "analysis/sarif.hpp"
#include "analysis/source_model.hpp"
#include "io/json.hpp"
#include "util/cli.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: sfplint --root=DIR [--manifest=FILE] [--baseline=FILE]\n"
      "               [--json=FILE] [--sarif=FILE] [--write-baseline=FILE]\n"
      "               [--rule=SLUG[,SLUG...]] [--diff-base=REV]\n"
      "               [--fix] [--fix-dry-run] [--stats] [--list-rules]\n"
      "               [--quiet]\n"
      "  --root=DIR            repository root to scan (required)\n"
      "  --manifest=FILE       layering manifest "
      "(default: ROOT/tools/layering.json)\n"
      "  --baseline=FILE       suppression baseline "
      "(default: ROOT/tools/sfplint_baseline.json)\n"
      "  --json=FILE           write the machine-readable report here\n"
      "  --sarif=FILE          write a SARIF 2.1.0 report here\n"
      "  --write-baseline=FILE snapshot current findings as a baseline\n"
      "  --rule=SLUGS          only report the named rules (CI triage); "
      "exit 1 iff a filtered finding remains\n"
      "  --diff-base=REV       only report findings on lines changed "
      "vs the git revision (differential mode)\n"
      "  --fix                 apply the mechanical autofixes "
      "(pragma-once, suppression-format) and rescan\n"
      "  --fix-dry-run         print the autofix plan without writing; "
      "exit 1 iff edits are pending\n"
      "  --stats               print the per-rule finding-counts table\n"
      "  --list-rules          print the rule catalogue and exit\n"
      "  --quiet               suppress the clean-run summary line\n");
  return 2;
}

/// --list-rules output, generated from the one catalogue in passes.hpp —
/// the CLI can no longer drift from what run_all() actually emits.
void print_rules() {
  for (const sfp::analysis::rule_info& r : sfp::analysis::rule_catalogue())
    std::printf("%-24s%s\n", r.slug, r.summary);
  std::printf(
      "\nSuppress a justified finding inline with:  "
      "// lint: <rule>-ok — <reason>\n");
  std::string unsuppressible;
  for (const sfp::analysis::rule_info& r : sfp::analysis::rule_catalogue())
    if (!r.suppressible)
      unsuppressible += (unsuppressible.empty() ? "" : " and ") +
                        std::string(r.slug);
  std::printf("(%s are never suppressible)\n", unsuppressible.c_str());
}

/// Split --rule=a,b,c; empty components are usage errors (caught by the
/// rule_by_slug validation below since "" is not a slug).
std::vector<std::string> split_slugs(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(arg.substr(start));
      break;
    }
    out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const sfp::cli_args args(argc, argv);
  if (args.has("list-rules")) {
    print_rules();
    return 0;
  }
  const auto root = args.get("root");
  if (!root || !args.positional().empty()) return usage();

  std::vector<std::string> rule_filter;
  if (const auto rules = args.get("rule")) {
    rule_filter = split_slugs(*rules);
    for (const std::string& slug : rule_filter) {
      if (sfp::analysis::rule_by_slug(slug) != nullptr) continue;
      std::fprintf(stderr,
                   "sfplint: unknown rule '%s' (see --list-rules)\n",
                   slug.c_str());
      return 2;
    }
  }

  try {
    const std::string manifest_path =
        args.get_or("manifest", *root + "/tools/layering.json");
    const std::string baseline_path =
        args.get_or("baseline", *root + "/tools/sfplint_baseline.json");

    sfp::analysis::source_tree tree = sfp::analysis::load_tree(*root);
    const sfp::analysis::layering_manifest manifest =
        sfp::analysis::load_manifest(manifest_path);
    sfp::analysis::analysis_result result =
        sfp::analysis::run_all(tree, manifest);

    std::vector<sfp::analysis::baseline_entry> baseline;
    if (args.has("baseline") || file_exists(baseline_path))
      baseline = sfp::analysis::load_baseline(baseline_path);
    std::vector<sfp::analysis::finding> baselined =
        sfp::analysis::apply_baseline(result, baseline);

    // Autofix runs on the unfiltered findings: a pending mechanical fix
    // is pending regardless of the triage filter in effect.
    if (args.has("fix") || args.has("fix-dry-run")) {
      const sfp::analysis::fix_plan plan =
          sfp::analysis::plan_fixes(tree, result.findings);
      if (args.has("fix-dry-run")) {
        std::fputs(sfp::analysis::render_fix_plan(plan).c_str(), stdout);
        return plan.edits.empty() ? 0 : 1;
      }
      sfp::analysis::apply_fixes(*root, plan);
      std::fprintf(stderr, "sfplint: applied %zu autofix(es)\n",
                   plan.edits.size());
      // Rescan so the listing and exit code describe the repaired tree —
      // and so a second --fix run plans zero edits (idempotence).
      tree = sfp::analysis::load_tree(*root);
      result = sfp::analysis::run_all(tree, manifest);
      baselined = sfp::analysis::apply_baseline(result, baseline);
    }

    if (!rule_filter.empty()) {
      sfp::analysis::filter_rules(result, rule_filter);
      baselined.erase(
          std::remove_if(baselined.begin(), baselined.end(),
                         [&rule_filter](const sfp::analysis::finding& f) {
                           return std::find(rule_filter.begin(),
                                            rule_filter.end(),
                                            f.rule) == rule_filter.end();
                         }),
          baselined.end());
    }

    if (const auto rev = args.get("diff-base")) {
      std::string err;
      const sfp::analysis::changed_lines changed =
          sfp::analysis::collect_git_changed_lines(*root, *rev, &err);
      if (!err.empty()) {
        std::fprintf(stderr, "sfplint: --diff-base: %s\n", err.c_str());
        return 2;
      }
      const auto off_changed_lines =
          [&changed](const sfp::analysis::finding& f) {
            return !changed.contains(f.file, f.line);
          };
      result.findings.erase(std::remove_if(result.findings.begin(),
                                           result.findings.end(),
                                           off_changed_lines),
                            result.findings.end());
      result.suppressed.erase(std::remove_if(result.suppressed.begin(),
                                             result.suppressed.end(),
                                             off_changed_lines),
                              result.suppressed.end());
      baselined.erase(std::remove_if(baselined.begin(), baselined.end(),
                                     off_changed_lines),
                      baselined.end());
    }

    if (const auto out = args.get("write-baseline")) {
      sfp::io::write_json_file(
          sfp::analysis::baseline_to_json(result.findings), *out);
      std::fprintf(stderr, "sfplint: wrote %zu suppression(s) to %s\n",
                   result.findings.size(), out->c_str());
    }
    if (const auto out = args.get("json"))
      sfp::io::write_json_file(
          sfp::analysis::report_to_json(result, baselined), *out);
    if (const auto out = args.get("sarif"))
      sfp::io::write_json_file(
          sfp::analysis::sarif_document(result, baselined), *out);

    if (args.has("stats"))
      std::fputs(sfp::analysis::render_stats(result, baselined).c_str(),
                 stdout);
    const std::string text = sfp::analysis::render_text(result, baselined);
    if (!result.findings.empty() || !args.has("quiet"))
      std::fputs(text.c_str(), stdout);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfplint: error: %s\n", e.what());
    return 2;
  }
}
