#!/usr/bin/env python3
"""Determinism lint for the FinePack simulator sources.

The simulator's results must be a pure function of (trace, config,
seed): CI diffs stats JSON and oracle digests across replays and
shuffled event schedules (`fptrace racecheck`), so any hidden source of
run-to-run variation in src/ is a bug. This lint bans the usual
suspects lexically:

  wall-clock           std::chrono clock reads, time()/clock()/
                       gettimeofday/clock_gettime in simulation code.
  unseeded-rng         rand()/srand() and std::random_device (the
                       repo's common::Rng must be seeded explicitly).
  unordered-iteration  range-for over a std::unordered_map/set
                       declared in this file, its sibling header, or
                       any project header it #includes (one level).
                       Iteration order is implementation-defined;
                       iterating one into any ordered output
                       (messages, traces, stats) is the classic
                       silent nondeterminism. Sort the keys first, or
                       waive when the consumer is order-insensitive.

Thread-safety companions to the Clang -Wthread-safety build (see
docs/thread_safety.md):

  raw-concurrency      raw std concurrency primitives (std::mutex,
                       std::thread, std::condition_variable, ...,
                       their headers, and .detach()) anywhere but
                       common/sync.h. Everything else goes through the
                       annotated fp::Mutex/MutexLock/CondVar/ThreadPool
                       wrappers so the static analysis sees every lock.
  global-state         mutable process-global data -- static locals,
                       static members, namespace-scope variables --
                       with no FP_GUARDED_BY annotation. const /
                       constexpr / thread_local / std::atomic /
                       fp::Mutex-family declarations are exempt;
                       anything else needs a guard or a waiver naming
                       its synchronization story.

Signal-safety companion for the fatal-handler TU (docs/run_health.md):

  signal-unsafe        in a file whose first lines carry the marker
                       `// fp-lint: async-signal-safe` (src/obs/
                       fatal.cc -- code that runs inside signal
                       handlers), every construct POSIX does not
                       guarantee async-signal-safe is banned:
                       allocation (malloc family, operator new/delete,
                       std::make_*), stdio/iostream formatting,
                       std::string and friends, exceptions, exit()
                       (use _exit), and the fp_panic/fp_fatal logging
                       macros. Only marker-carrying files are scanned;
                       everything else is out of scope by definition.

Waivers: append `// fp-lint: allow(<rule>) <reason>` to the offending
line, or place it on the line directly above. Waivers without a reason
are themselves errors.

Lexing (comment/string/raw-string/preprocessor partitioning) is
delegated to the tools/fp_cpplex.py scanner.

Usage: tools/fp_lint.py [--root DIR] [PATH...]
Exits 1 when any unwaived finding remains.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import fp_cpplex  # noqa: E402

RULES = ("wall-clock", "unseeded-rng", "unordered-iteration",
         "raw-concurrency", "global-state", "signal-unsafe")

WALL_CLOCK = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock"
    r"|gettimeofday|clock_gettime)\b"
    r"|\btime\s*\(\s*(NULL|nullptr|0)\s*\)"
    r"|\bclock\s*\(\s*\)"
)
UNSEEDED_RNG = re.compile(
    r"\b(std::)?random_device\b|\bs?rand\s*\("
)
UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
# Identifier the declaration binds: the first plain identifier after
# the closing template bracket(s), e.g. `std::unordered_map<K, V> name`
# or `const std::unordered_set<T> &name`, optionally followed by an
# FP_GUARDED_BY / other all-caps annotation macro before the
# terminator.
DECL_NAME = re.compile(
    r">\s*[&*]?\s*([A-Za-z_]\w*)\s*"
    r"(?:[A-Z_][A-Z0-9_]*\s*\([^)]*\)\s*)?"
    r"(?:[;={(,)]|$)")
FOR_HEAD = re.compile(r"\bfor\s*\(")
LAST_IDENT = re.compile(r"([A-Za-z_]\w*)\s*$")
WAIVER = re.compile(r"//\s*fp-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# Raw std concurrency primitives; only common/sync.h may use them, so
# every lock/thread in the tree carries Clang thread-safety
# annotations. `.detach()` is banned outright (detached threads outlive
# the scopes the analysis reasons about).
RAW_CONCURRENCY = re.compile(
    r"\bstd::(?:recursive_mutex|shared_timed_mutex|shared_mutex"
    r"|timed_mutex|mutex"
    r"|condition_variable_any|condition_variable"
    r"|jthread|thread|async|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|future|promise|packaged_task|barrier|latch"
    r"|counting_semaphore|binary_semaphore|stop_token|stop_source)\b"
    r"|\.\s*detach\s*\(\s*\)"
)
CONCURRENCY_INCLUDE = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable|thread"
    r"|future|barrier|latch|semaphore|stop_token)>"
)

# Mutable `static` data (local statics and static members): the name
# must be followed directly by `;`, `=` or `{`, so function
# declarations (`static void f();`) and FP_GUARDED_BY-annotated
# members never match.
STATIC_DECL = re.compile(
    r"\bstatic\s+(?!const\b|constexpr\b|constinit\b|thread_local\b)"
    r"[^=;(){]*?([A-Za-z_]\w*)\s*(?:=|;|\{)"
)
# Candidate namespace-scope variable: type tokens then a name, ending
# in `;`, `=` or a braced initializer. Only consulted on lines the
# scope scanner places at namespace scope.
NS_VAR = re.compile(
    r"^\s*(?:[\w:]+(?:<[^;]*>)?[\s&*]+)+([A-Za-z_]\w*)\s*"
    r"(?:=|;|\{[^{}]*\}\s*;)")
# Opt-in marker placing a whole translation unit under the
# signal-unsafe rule (fp_cpplex.scrub keeps `// fp-lint:` comments, so
# the marker survives into the scrubbed lines the scan runs over).
SIGNAL_SAFE_MARKER = re.compile(r"//\s*fp-lint:\s*async-signal-safe\b")
# Constructs POSIX does not list as async-signal-safe, lexically:
# allocation, buffered stdio, C++ formatting/container machinery,
# exceptions, atexit-running exit(), and the repo's logging macros
# (they format into std::string and may throw). `\bexit` deliberately
# does not match `_exit` / `_Exit` / `quick_exit` (no word boundary
# after '_'), which is exactly the discipline the handler needs.
SIGNAL_UNSAFE = re.compile(
    r"\b(?:malloc|calloc|realloc|free|strdup)\s*\("
    r"|\b(?:printf|fprintf|sprintf|snprintf|vprintf|vfprintf"
    r"|vsnprintf|puts|fputs|fputc|putchar|fwrite|fread|fopen|fclose"
    r"|fflush|perror|syslog)\s*\("
    r"|\bexit\s*\("
    r"|\bnew\b|\bdelete\b|\bthrow\b"
    r"|\bstd::(?:string|cout|cerr|clog|ostringstream|istringstream"
    r"|stringstream|vector|map|unordered_map|function|make_unique"
    r"|make_shared|to_string)\b"
    r"|\bfp_(?:panic|fatal|warn|inform|assert)\b"
)
# Headers whose facilities are wholesale off-limits in a handler TU.
SIGNAL_UNSAFE_INCLUDE = re.compile(
    r"#\s*include\s*<(?:iostream|ostream|sstream|fstream|string"
    r"|vector|map|unordered_map|functional|memory|cstdio)>"
)

# Declarations that are safe by construction: immutable, confined, or
# internally synchronized primitives from common/sync.h.
GLOBAL_STATE_EXEMPT = re.compile(
    r"\b(?:const|constexpr|consteval|constinit|thread_local|using"
    r"|typedef|extern|friend|return|namespace|class|struct|enum"
    r"|template|operator|atomic|atomic_\w+)\b"
    r"|\bfp::(?:Mutex|CondVar|ThreadPool)\b"
    r"|\bFP_GUARDED_BY\b")



class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_scrub_cache = {}


def load_scrubbed(path):
    """Scrubbed (comment/string-free, line-aligned) lines of `path`.

    Cached: headers get folded into every translation unit that
    includes them, so each file is lexed once per run.
    """
    path = os.path.abspath(path)
    if path not in _scrub_cache:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        _scrub_cache[path] = (fp_cpplex.scrub(text),
                              fp_cpplex.project_includes(text))
    return _scrub_cache[path]


def resolve_include(inc, from_path):
    """Resolve a quoted include against the includer's directory and
    its ancestors (the build adds src/ to the include path; walking up
    finds it from any depth without knowing the layout)."""
    directory = os.path.dirname(os.path.abspath(from_path))
    for _ in range(6):
        candidate = os.path.join(directory, inc)
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return None


def unordered_names(lines):
    """Identifiers declared with an unordered container type in-file.

    Declarations may wrap: a member like
        std::unordered_map<Key,
                           Value> _name FP_GUARDED_BY(_mu);
    spans lines, so when the template bracket list is unbalanced at the
    end of a line the following lines are folded in (bounded, so a
    stray '<' cannot make the scan quadratic).
    """
    names = set()
    for idx, line in enumerate(lines):
        m = UNORDERED_DECL.search(line)
        if not m:
            continue
        # Fold continuation lines until the template brackets balance
        # AND a declared name binds -- the name itself may sit on the
        # line after the closing '>' (`std::unordered_map<K, V>\n
        # name;`).
        for joined in lines[idx + 1:idx + 6]:
            close = template_close(line, m.end() - 1)
            if close is not None and DECL_NAME.search(line[close:]):
                break
            line = line + " " + joined
        close = template_close(line, m.end() - 1)
        if close is None:
            continue
        name = DECL_NAME.search(line[close:])
        if name:
            names.add(name.group(1))
    return names


def template_close(line, start):
    """Index of the '>' matching the '<' at/after start, else None."""
    depth = 0
    for i in range(start, len(line)):
        if line[i] == "<":
            depth += 1
        elif line[i] == ">":
            depth -= 1
            if depth == 0:
                return i
    return None


def range_for_expr(line):
    """The range expression of a range-for on this line, or None.

    Walks the for-header with balanced parentheses, so calls inside
    the range expression -- `for (auto &v : view(a, b))` -- do not
    truncate it at the first ')' the way a regex scan would.
    """
    m = FOR_HEAD.search(line)
    if not m:
        return None
    depth, colon, i = 1, None, m.end()
    while i < len(line):
        c = line[i]
        if c == "(" or c == "[":
            depth += 1
        elif c == ")" or c == "]":
            depth -= 1
            if depth == 0:
                if colon is None:
                    return None
                return line[colon + 1:i].strip()
        elif c == ":" and depth == 1 and colon is None:
            if i + 1 < len(line) and line[i + 1] == ":":
                i += 2  # scope operator, not the range colon
                continue
            colon = i
        i += 1
    return None  # header continues past this line; out of scope


def namespace_scope_mask(lines):
    """mask[i]: line i *starts* at namespace (or file) scope.

    Tracks the brace stack, classifying each '{' by the declaration
    head before it: namespace braces keep namespace scope; class /
    function / initializer braces leave it.
    """
    mask = []
    stack = []  # True per open brace that preserves namespace scope
    head = ""   # text since the last ';' / '{' / '}'
    parens = 0  # unbalanced '(': inside a parameter / argument list
    for line in lines:
        mask.append(all(stack) and parens == 0)
        for c in line:
            if c == "(":
                parens += 1
            elif c == ")":
                parens = max(0, parens - 1)
            elif c == "{":
                is_ns = re.search(r"\bnamespace\b", head) is not None \
                    and "=" not in head
                stack.append(is_ns)
                head = ""
            elif c == "}":
                if stack:
                    stack.pop()
                head = ""
            elif c == ";":
                head = ""
            else:
                head += c
        head += " "  # newline separates tokens
    return mask


def is_sync_header(path):
    """common/sync.h is the one file allowed raw std concurrency."""
    return path.replace(os.sep, "/").endswith("common/sync.h")


def waiver_for(lines, idx):
    """The waiver (rule, reason) covering line idx, if any."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = WAIVER.search(lines[probe])
        if m:
            return m.group(1), m.group(2).strip()
    return None


def lint_file(path, findings):
    lines, includes = load_scrubbed(path)
    containers = unordered_names(lines)

    # Members iterated in a .cc are usually declared in a header: fold
    # the sibling header plus every project header this file includes
    # (one level -- the declaring header is directly included in
    # practice) so `for (x : _map)` is seen wherever _map lives.
    folded = set()
    base, ext = os.path.splitext(path)
    if ext in (".cc", ".cpp"):
        for header_ext in (".hh", ".h", ".hpp"):
            sibling = base + header_ext
            if os.path.isfile(sibling):
                folded.add(os.path.abspath(sibling))
    for inc in includes:
        resolved = resolve_include(inc, path)
        if resolved:
            folded.add(resolved)
    for header in sorted(folded):
        containers |= unordered_names(load_scrubbed(header)[0])

    allow_raw = is_sync_header(path)
    ns_scope = namespace_scope_mask(lines)
    signal_safe_tu = any(
        SIGNAL_SAFE_MARKER.search(line) for line in lines)

    for idx, line in enumerate(lines):
        hits = []
        if WALL_CLOCK.search(line):
            hits.append(("wall-clock",
                         "wall-clock time source in simulation code"))
        if UNSEEDED_RNG.search(line):
            hits.append(("unseeded-rng",
                         "nondeterministically-seeded randomness "
                         "(use common::Rng with an explicit seed)"))
        expr = range_for_expr(line)
        if expr is not None:
            ident = LAST_IDENT.search(expr)
            if ident and ident.group(1) in containers:
                hits.append(("unordered-iteration",
                             f"range-for over unordered container "
                             f"'{ident.group(1)}' "
                             "(implementation-defined order)"))
        if not allow_raw and (RAW_CONCURRENCY.search(line)
                              or CONCURRENCY_INCLUDE.search(line)):
            hits.append(("raw-concurrency",
                         "raw std concurrency primitive (use the "
                         "annotated fp::Mutex / MutexLock / CondVar / "
                         "ThreadPool from common/sync.h)"))
        if signal_safe_tu and not SIGNAL_SAFE_MARKER.search(line) \
                and (SIGNAL_UNSAFE.search(line)
                     or SIGNAL_UNSAFE_INCLUDE.search(line)):
            hits.append(("signal-unsafe",
                         "not async-signal-safe in a TU marked "
                         "`fp-lint: async-signal-safe` (write(2), "
                         "manual formatting, and _exit only)"))
        if not GLOBAL_STATE_EXEMPT.search(line):
            m = STATIC_DECL.search(line)
            if not m and ns_scope[idx] and "(" not in line:
                m = NS_VAR.search(line)
            if m:
                hits.append(("global-state",
                             f"mutable process-global state "
                             f"'{m.group(1)}' without FP_GUARDED_BY "
                             "(annotate, confine, or waive with its "
                             "synchronization story)"))
        if not hits:
            continue
        waiver = waiver_for(lines, idx)
        for rule, message in hits:
            if waiver and waiver[0] == rule:
                if not waiver[1]:
                    findings.append(Finding(
                        path, idx + 1, rule,
                        "waiver without a reason (state why the "
                        "order/time dependence is safe)"))
                continue
            findings.append(Finding(path, idx + 1, rule, message))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: script's parent)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    targets = args.paths or [os.path.join(root, "src")]

    files = []
    for target in targets:
        if os.path.isfile(target):
            files.append(target)
            continue
        for dirpath, _, filenames in os.walk(target):
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".cpp", ".hpp", ".h")):
                    files.append(os.path.join(dirpath, name))

    findings = []
    for path in sorted(files):
        lint_file(path, findings)

    for finding in findings:
        print(finding)
    print(f"fp_lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
