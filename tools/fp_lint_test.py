#!/usr/bin/env python3
"""Self-tests for fp_lint.py: every rule's positive and negative cases,
plus waiver parsing. Pure stdlib unittest, registered with ctest as
`fp_lint_selftest` so a rule regression fails tier-1 the same way a
simulator regression does.

Each case writes a synthetic source file into a temp tree and asserts
exactly which (rule, line) findings come back, so both missed
detections and false positives fail.
"""

import importlib.util
import os
import sys
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "fp_lint",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "fp_lint.py"))
fp_lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fp_lint)


class LintCase(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.root = self._dir.name
        fp_lint._scrub_cache.clear()

    def tearDown(self):
        self._dir.cleanup()

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def lint(self, rel, text):
        path = self.write(rel, text)
        findings = []
        fp_lint.lint_file(path, findings)
        return [(f.rule, f.line) for f in findings]


class WallClockTest(LintCase):
    def test_clock_reads_flagged(self):
        found = self.lint("a.cc", (
            "auto t0 = std::chrono::steady_clock::now();\n"
            "double t1 = clock();\n"
            "time_t t2 = time(NULL);\n"))
        self.assertEqual(found, [("wall-clock", 1), ("wall-clock", 2),
                                 ("wall-clock", 3)])

    def test_simulated_time_not_flagged(self):
        self.assertEqual(self.lint("a.cc", (
            "Tick now = queue.currentTick();\n"
            "double t = result.totalSeconds();\n")), [])


class UnseededRngTest(LintCase):
    def test_rand_and_random_device_flagged(self):
        found = self.lint("a.cc", (
            "void f() {\n"
            "    int x = rand() % 7;\n"
            "    std::random_device rd;\n"
            "    srand(42);\n"
            "}\n"))
        self.assertEqual(found, [("unseeded-rng", 2),
                                 ("unseeded-rng", 3),
                                 ("unseeded-rng", 4)])

    def test_seeded_common_rng_not_flagged(self):
        self.assertEqual(self.lint("a.cc", (
            "common::Rng rng(params.seed);\n"
            "auto v = rng.uniform(0, 10);\n")), [])


class UnorderedIterationTest(LintCase):
    def test_local_decl_iteration_flagged(self):
        found = self.lint("a.cc", (
            "void f() {\n"
            "    std::unordered_map<int, int> table;\n"
            "    for (const auto &kv : table)\n"
            "        use(kv);\n"
            "}\n"))
        self.assertEqual(found, [("unordered-iteration", 3)])

    def test_range_expr_with_call_args_not_truncated(self):
        # Regression: the old regex cut the range expression at the
        # first ')', binding the last *argument* of a call instead of
        # no identifier at all.
        self.assertEqual(self.lint("a.cc", (
            "void f() {\n"
            "    std::unordered_set<int> hi;\n"
            "    for (auto &v : clamp(values, lo, hi))\n"
            "        use(v);\n"
            "}\n")), [])

    def test_structured_binding_iteration_flagged(self):
        found = self.lint("a.cc", (
            "void f() {\n"
            "    std::unordered_map<int, int> m;\n"
            "    for (auto &[k, v] : m)\n"
            "        use(k, v);\n"
            "}\n"))
        self.assertEqual(found, [("unordered-iteration", 3)])

    def test_member_decl_spanning_lines_flagged(self):
        # Class members wrap and may carry FP_GUARDED_BY; the decl
        # scanner must still bind the name.
        found = self.lint("a.hh", (
            "class C {\n"
            "    std::unordered_map<std::string,\n"
            "                       int> _index FP_GUARDED_BY(_mu);\n"
            "    void walk() {\n"
            "        for (const auto &kv : _index)\n"
            "            use(kv);\n"
            "    }\n"
            "};\n"))
        self.assertEqual(found, [("unordered-iteration", 5)])

    def test_sibling_header_members_folded_into_cc(self):
        self.write("b.hh", (
            "class C {\n"
            "    std::unordered_set<int> _seen;\n"
            "};\n"))
        found = self.lint("b.cc", (
            "void C::walk() {\n"
            "    for (int v : _seen)\n"
            "        use(v);\n"
            "}\n"))
        self.assertEqual(found, [("unordered-iteration", 2)])

    def test_included_header_members_folded_into_cc(self):
        # The declaring header need not be the sibling: a .cc iterating
        # a member declared in some *other* project header it includes
        # is still caught, via the shared lexer's include list.
        self.write("inc/registry.hh", (
            "class Registry {\n"
            "    std::unordered_map<int, int> _entries;\n"
            "};\n"))
        found = self.lint("walker.cc", (
            '#include "inc/registry.hh"\n'
            "void Registry::dump() {\n"
            "    for (const auto &kv : _entries)\n"
            "        use(kv);\n"
            "}\n"))
        self.assertEqual(found, [("unordered-iteration", 3)])

    def test_include_resolved_against_ancestor_dirs(self):
        # Project includes are src/-relative ("gpu/foo.hh"); from a
        # file in a subdirectory the resolver must walk up to find the
        # include root, the way the compiler's -I flag does.
        self.write("common/table.hh", (
            "class Table {\n"
            "    std::unordered_set<int> _keys;\n"
            "};\n"))
        found = self.lint("gpu/user.cc", (
            '#include "common/table.hh"\n'
            "void Table::walk() {\n"
            "    for (int k : _keys)\n"
            "        use(k);\n"
            "}\n"))
        self.assertEqual(found, [("unordered-iteration", 3)])

    def test_angle_includes_not_folded(self):
        # <system> includes are external; only quoted project includes
        # contribute declarations.
        self.assertEqual(self.lint("a.cc", (
            "#include <unordered_map>\n"
            "void f(const std::map<int, int> &m) {\n"
            "    for (const auto &kv : m)\n"
            "        use(kv);\n"
            "}\n")), [])

    def test_ordered_container_not_flagged(self):
        self.assertEqual(self.lint("a.cc", (
            "void f() {\n"
            "    std::map<int, int> table;\n"
            "    for (const auto &kv : table)\n"
            "        use(kv);\n"
            "}\n")), [])

    def test_telemetry_ledger_emission_flagged(self):
        # The fabric-observability failure mode: a per-link contention
        # ledger declared unordered in the header, serialized straight
        # into a keyed JSON object from the .cc. Iteration order would
        # leak into the stats document and break digest comparisons.
        self.write("flow.hh", (
            "class Collector {\n"
            "    std::unordered_map<std::pair<int, int>, Tick>\n"
            "        _interference FP_GUARDED_BY(_mu);\n"
            "};\n"))
        found = self.lint("flow.cc", (
            "void Collector::dumpJson(JsonWriter &json) {\n"
            "    for (const auto &[flows, ticks] : _interference)\n"
            "        json.kv(name(flows), ticks);\n"
            "}\n"))
        self.assertEqual(found, [("unordered-iteration", 2)])

    def test_sorted_ledger_emission_not_flagged(self):
        # The pattern src/obs/flow.cc actually uses: an ordered map
        # keyed by (flow, flow), so JSON keys sort deterministically.
        self.write("flow2.hh", (
            "class Collector {\n"
            "    std::map<std::pair<int, int>, Tick> _interference;\n"
            "};\n"))
        self.assertEqual(self.lint("flow2.cc", (
            "void Collector::dumpJson(JsonWriter &json) {\n"
            "    for (const auto &[flows, ticks] : _interference)\n"
            "        json.kv(name(flows), ticks);\n"
            "}\n")), [])


class LexerNoiseTest(LintCase):
    # The shared fp_cpplex scrubber replaced the old per-line regex;
    # these pin the cases the regex was known to get wrong.

    def test_block_comment_spanning_lines_suppressed(self):
        self.assertEqual(self.lint("a.cc", (
            "/* historical code:\n"
            "   int x = rand();\n"
            "   std::unordered_map<int, int> m;\n"
            "*/\n"
            "void live() {}\n")), [])

    def test_raw_string_contents_suppressed(self):
        self.assertEqual(self.lint("a.cc", (
            "const char *doc = R\"(\n"
            "call rand() and iterate std::mutex tables\n"
            ")\";\n")), [])

    def test_code_after_block_comment_still_linted(self):
        found = self.lint("a.cc", (
            "/* setup */ int x = rand();\n"))
        self.assertEqual(found, [("unseeded-rng", 1)])


class CpplexTest(unittest.TestCase):
    """The fp_cpplex views the lint is built on."""

    def test_scrub_preserves_line_count_and_waivers(self):
        text = ("int a; /* multi\n"
                "line */ int b;\n"
                "// fp-lint: allow(wall-clock) reason\n"
                '// ordinary comment\n')
        lines = fp_lint.fp_cpplex.scrub(text)
        self.assertEqual(len(lines), text.count("\n") + 1)
        self.assertIn("fp-lint: allow(wall-clock)", lines[2])
        self.assertNotIn("ordinary", lines[3])

    def test_project_includes(self):
        text = ('#include "common/types.hh"\n'
                "#include <vector>\n"
                '#  include "gpu/port.hh"\n')
        self.assertEqual(fp_lint.fp_cpplex.project_includes(text),
                         ["common/types.hh", "gpu/port.hh"])


class RawConcurrencyTest(LintCase):
    def test_primitives_and_detach_flagged(self):
        found = self.lint("a.cc", (
            "#include <thread>\n"
            "void f() {\n"
            "    std::mutex m;\n"
            "    std::thread worker(loop);\n"
            "    worker.detach();\n"
            "    std::condition_variable cv;\n"
            "}\n"))
        self.assertEqual(found, [("raw-concurrency", 1),
                                 ("raw-concurrency", 3),
                                 ("raw-concurrency", 4),
                                 ("raw-concurrency", 5),
                                 ("raw-concurrency", 6)])

    def test_sync_header_exempt(self):
        self.assertEqual(self.lint("common/sync.h", (
            "#include <mutex>\n"
            "class Mutex {\n"
            "    std::mutex _m;\n"
            "};\n")), [])

    def test_fp_wrappers_not_flagged(self):
        self.assertEqual(self.lint("a.cc", (
            "fp::Mutex mu;\n"
            "fp::MutexLock lock(mu);\n"
            "fp::ThreadPool pool(4);\n")), [])

    def test_this_thread_not_flagged(self):
        # std::this_thread is observational, not a primitive the
        # analysis needs to see; the \\b boundary must not match it.
        self.assertEqual(self.lint("a.cc", (
            "auto id = std::this_thread::get_id();\n")), [])


class GlobalStateTest(LintCase):
    def test_static_local_flagged(self):
        found = self.lint("a.cc", (
            "int f() {\n"
            "    static int calls = 0;\n"
            "    return ++calls;\n"
            "}\n"))
        self.assertEqual(found, [("global-state", 2)])

    def test_namespace_scope_var_flagged(self):
        found = self.lint("a.cc", (
            "namespace fp {\n"
            "std::string last_error;\n"
            "} // namespace fp\n"))
        self.assertEqual(found, [("global-state", 2)])

    def test_guarded_confined_and_immutable_exempt(self):
        self.assertEqual(self.lint("a.hh", (
            "class C {\n"
            "    static const int limit = 4;\n"
            "    static constexpr double pi = 3.14;\n"
            "    bool _stop FP_GUARDED_BY(_mu) = false;\n"
            "};\n"
            "namespace fp {\n"
            "thread_local std::string context;\n"
            "std::atomic<bool> quiet{false};\n"
            "constexpr int k = 3;\n"
            "fp::Mutex registry_mu;\n"
            "} // namespace fp\n")), [])

    def test_function_decls_not_flagged(self):
        self.assertEqual(self.lint("a.hh", (
            "namespace fp {\n"
            "static void helper();\n"
            "void api(int arg);\n"
            "std::string\n"
            "format(const std::string &message,\n"
            "       int width = 80);\n"
            "} // namespace fp\n")), [])

    def test_class_members_not_flagged_as_namespace_vars(self):
        self.assertEqual(self.lint("a.hh", (
            "namespace fp {\n"
            "class C {\n"
            "    int _count = 0;\n"
            "    std::vector<int> _items;\n"
            "};\n"
            "} // namespace fp\n")), [])


class WaiverTest(LintCase):
    def test_same_line_waiver_accepted(self):
        self.assertEqual(self.lint("a.cc", (
            "static int hits; "
            "// fp-lint: allow(global-state) test-only counter\n")), [])

    def test_line_above_waiver_accepted(self):
        self.assertEqual(self.lint("a.cc", (
            "// fp-lint: allow(global-state) internally synchronized\n"
            "static Registry registry;\n")), [])

    def test_waiver_without_reason_is_error(self):
        found = self.lint("a.cc", (
            "// fp-lint: allow(global-state)\n"
            "static Registry registry;\n"))
        self.assertEqual([r for r, _ in found], ["global-state"])
        self.assertEqual(found[0][1], 2)

    def test_wrong_rule_waiver_does_not_apply(self):
        found = self.lint("a.cc", (
            "// fp-lint: allow(wall-clock) not actually a clock\n"
            "static Registry registry;\n"))
        self.assertEqual(found, [("global-state", 2)])

    def test_two_lines_above_does_not_apply(self):
        found = self.lint("a.cc", (
            "// fp-lint: allow(global-state) too far away\n"
            "// explanatory text\n"
            "static Registry registry;\n"))
        self.assertEqual(found, [("global-state", 3)])


class SignalUnsafeTest(LintCase):
    MARK = "// fp-lint: async-signal-safe\n"

    def test_unmarked_file_is_out_of_scope(self):
        self.assertEqual(self.lint("a.cc", (
            "void f() {\n"
            "    std::string s = std::to_string(7);\n"
            "    printf(\"%d\\n\", 7);\n"
            "}\n")), [])

    def test_allocation_and_stdio_flagged_in_marked_file(self):
        found = self.lint("fatal.cc", self.MARK + (
            "void f() {\n"
            "    char *p = (char *)malloc(16);\n"
            "    printf(\"%s\", p);\n"
            "    free(p);\n"
            "    int *q = new int;\n"
            "    delete q;\n"
            "}\n"))
        self.assertEqual(found, [("signal-unsafe", 3),
                                 ("signal-unsafe", 4),
                                 ("signal-unsafe", 5),
                                 ("signal-unsafe", 6),
                                 ("signal-unsafe", 7)])

    def test_cpp_machinery_and_throw_flagged(self):
        found = self.lint("fatal.cc", self.MARK + (
            "#include <sstream>\n"
            "void f() {\n"
            "    std::string s;\n"
            "    std::cerr << s;\n"
            "    throw 1;\n"
            "    fp_panic(\"boom\");\n"
            "}\n"))
        self.assertEqual(found, [("signal-unsafe", 2),
                                 ("signal-unsafe", 4),
                                 ("signal-unsafe", 5),
                                 ("signal-unsafe", 6),
                                 ("signal-unsafe", 7)])

    def test_exit_flagged_but_underscore_exit_allowed(self):
        found = self.lint("fatal.cc", self.MARK + (
            "void f() {\n"
            "    ::_exit(130);\n"
            "    std::_Exit(86);\n"
            "    exit(1);\n"
            "}\n"))
        self.assertEqual(found, [("signal-unsafe", 5)])

    def test_safe_handler_primitives_pass(self):
        self.assertEqual(self.lint("fatal.cc", self.MARK + (
            "#include <atomic>\n"
            "#include <csignal>\n"
            "#include <cstring>\n"
            "void f(int fd) {\n"
            "    std::atomic<int> ready{0};\n"
            "    char buf[64];\n"
            "    std::memset(buf, 0, sizeof(buf));\n"
            "    ssize_t rc = ::write(fd, buf, 64);\n"
            "    (void)rc;\n"
            "    std::signal(SIGTERM, SIG_DFL);\n"
            "    ::raise(SIGTERM);\n"
            "}\n")), [])

    def test_waiver_applies(self):
        self.assertEqual(self.lint("fatal.cc", self.MARK + (
            "void f() {\n"
            "    // fp-lint: allow(signal-unsafe) install-time only\n"
            "    std::string s;\n"
            "}\n")), [])

    def test_banned_token_in_comment_not_flagged(self):
        # Comments are scrubbed before the scan, so prose mentioning
        # malloc or printf does not trip the rule.
        self.assertEqual(self.lint("fatal.cc", self.MARK + (
            "// bans malloc, printf, and std::string\n"
            "void f() {}\n")), [])


if __name__ == "__main__":
    sys.exit(unittest.main())
