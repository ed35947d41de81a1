#!/usr/bin/env python3
"""qcfe_lint: QCFE's determinism and contract lint.

A fast, dependency-free source scanner that enforces the project's
determinism invariants as named, suppressible rules. The repo's
bit-identical-parallelism guarantee (see README "Threading model" and
"Kernel design") only holds if all randomness flows through util/rng.h
(Rng::Split sub-streams), all time flows through util/clock.h (injectable
Clock), and no reduction iterates a hash container in implementation-
defined order. Runtime parity tests catch violations after the fact; this
lint catches them at review time, in milliseconds.

Usage:
    tools/qcfe_lint.py                  # lint the default tree roots
    tools/qcfe_lint.py src/foo.cc ...   # lint specific files or dirs
    tools/qcfe_lint.py --self-test      # corpus expectations + clean tree
    tools/qcfe_lint.py --list-rules     # print the rules table

Exit status: 0 = clean, 1 = findings (or self-test mismatch), 2 = usage.

Suppression: append `// qcfe-lint: allow(<rule>)` to the offending line,
or put it alone on the line directly above. Several rules may be listed:
`allow(no-naked-new, no-raw-thread)`. Suppressions are deliberate and
greppable; every one should carry a nearby comment saying why.

Self-test corpus: tools/lint_testdata/*.cc files declare their expected
findings in-line with `// expect-lint: <rule>` markers; --self-test
verifies each marked line is flagged with exactly that rule, that no
unmarked line is flagged, and that the real tree is clean.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ROOTS = ("src", "tests", "bench", "examples")
SOURCE_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

ALLOW_RE = re.compile(r"qcfe-lint:\s*allow\(([^)]*)\)")
EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([\w-]+)")


def _strip_code(text):
    """Strips comments and string/char literals, preserving line structure.

    Determinism tokens inside comments ("a new queue head", "steady_clock
    semantics") must not trip rules, so rules match on stripped lines while
    suppression/annotation logic reads the raw ones.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state == "string":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append(c)
        elif state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append(c)
            elif c == "\n":
                state = "code"
                out.append(c)
        i += 1
    return "".join(out)


class Rule:
    """One named lint rule over (stripped line, raw line) pairs."""

    def __init__(self, name, summary, patterns, dirs=None, exempt_files=(),
                 fix_hint=""):
        self.name = name
        self.summary = summary
        self.patterns = [re.compile(p) for p in patterns]
        self.dirs = dirs  # None = whole tree; else path-prefix allowlist
        self.exempt_files = exempt_files
        self.fix_hint = fix_hint

    def applies_to(self, rel_path):
        rel = rel_path.replace(os.sep, "/")
        if any(rel.startswith(e) for e in self.exempt_files):
            return False
        if self.dirs is None:
            return True
        return any(rel.startswith(d) for d in self.dirs)

    def check_line(self, stripped, raw):
        """Returns True when the line violates this rule."""
        return any(p.search(stripped) for p in self.patterns)


class SleepRule(Rule):
    """Sleeps in tests/ are allowed only with an explicit NOLINT.

    The PR-5 concurrency suite is sleep-free by construction (FakeClock
    drives every deadline); a sleep reintroduced into tests/ is either a
    flake waiting to happen or a disguised ordering assumption.
    """

    def check_line(self, stripped, raw):
        if not super().check_line(stripped, raw):
            return False
        return "NOLINT" not in raw


class NakedNewRule(Rule):
    """new/delete outside placement-controlled code.

    `unique_ptr<T>(new T)` is tolerated: ownership is captured in the same
    expression, and it is the only way to heap-construct a class whose
    constructor is private to a factory (Pipeline, the workload builders).
    """

    SMART_NEW_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<[^;]*>\s*\(\s*new\b")

    def check_line(self, stripped, raw):
        if not super().check_line(stripped, raw):
            return False
        if self.SMART_NEW_RE.search(stripped) and "delete" not in stripped:
            return False
        return True


class StatusDiscardRule(Rule):
    """`(void)` on a call expression must carry a reason comment.

    [[nodiscard]] Status makes silent drops a compiler warning; the
    `(void)` escape hatch stays honest only if each use says *why* the
    failure is ignorable — same line or the line above.
    """

    CALL_RE = re.compile(r"\(void\)\s*[\w:.\->]*\w\s*\(")

    def check_line(self, stripped, raw, prev_raw=""):
        if not self.CALL_RE.search(stripped):
            return False
        for text in (raw, prev_raw):
            pos = text.find("//")
            if pos < 0:
                continue
            comment = text[pos + 2:].strip()
            # expect-lint markers are corpus bookkeeping, not reasons.
            if comment and not comment.startswith("expect-lint:"):
                return False
        return True


RULES = [
    Rule(
        "no-raw-rand",
        "std::rand/srand/random_device are nondeterministic or "
        "implementation-defined; all randomness flows through Rng "
        "(util/rng.h) and per-task Rng::Split sub-streams",
        [r"\bstd::s?rand\s*\(", r"(?<![\w:.])s?rand\s*\(",
         r"\bstd::random_device\b", r"\bstd::mt19937(_64)?\b"],
        exempt_files=("src/util/rng.",),
        fix_hint="seed an Rng and pass it (or Split a sub-stream)",
    ),
    Rule(
        "no-wall-clock",
        "direct chrono/system clocks bypass the injectable Clock, making "
        "timing behaviour untestable and results machine-dependent; all "
        "time flows through Clock (util/clock.h)",
        [r"\bstd::chrono::(system_clock|steady_clock|high_resolution_clock)\b",
         r"(?<!_)\b(system_clock|steady_clock|high_resolution_clock)::",
         r"(?<![\w.:])time\s*\(\s*(nullptr|NULL|0)\s*\)",
         r"\bgettimeofday\s*\(", r"\bclock_gettime\s*\("],
        exempt_files=("src/util/clock.", "src/util/rng."),
        fix_hint="take a Clock* (Clock::Real() in production, FakeClock in "
                 "tests)",
    ),
    Rule(
        "no-unordered-containers",
        "iteration order of unordered_map/unordered_set is implementation-"
        "defined, so any reduction over one breaks bit-parity; the "
        "determinism-critical layers use std::map / sorted vectors "
        "(over-approximated: the containers are banned outright in "
        "src/core, src/models, src/nn)",
        [r"\bunordered_(map|set|multimap|multiset)\b"],
        dirs=("src/core/", "src/models/", "src/nn/"),
        fix_hint="use std::map, std::set, or a sorted vector",
    ),
    NakedNewRule(
        "no-naked-new",
        "naked new/delete outside placement-controlled code leaks on every "
        "early return; ownership is expressed with unique_ptr/make_unique "
        "(sole exception: `unique_ptr<T>(new T)` for private constructors, "
        "where ownership is captured in the same expression)",
        [r"(?<!_)\bnew\b(?!\s*\()", r"\bdelete\b(\s*\[\s*\])?\s*[\w(*]"],
        dirs=("src/",),
        fix_hint="use std::make_unique / std::make_shared",
    ),
    Rule(
        "no-raw-thread",
        "raw std::thread/std::async outside the concurrency layer escapes "
        "the deterministic partitioning and exception propagation of "
        "util/thread_pool (and the clock-injected flushers of "
        "serve/async_server)",
        [r"\bstd::thread\b", r"\bstd::jthread\b", r"\bstd::async\b",
         r"\bpthread_create\s*\("],
        dirs=("src/",),
        # thread_pool.h is pimpl-clean, so only its .cc owns raw threads;
        # sync.* reads std::thread::id for debug owner tracking; the
        # adaptation controller owns its single background retrain worker
        # (woken by CondVar, joined in Stop) like async_server owns its
        # flushers.
        exempt_files=("src/util/thread_pool.cc", "src/serve/async_server.",
                      "src/util/sync.", "src/adapt/adaptation_controller."),
        fix_hint="use ThreadPool / ParallelFor, or route through AsyncServer",
    ),
    Rule(
        "no-raw-mutex",
        "raw standard-library locking primitives bypass the annotated "
        "sync layer (util/sync.h): qcfe::Mutex/SharedMutex/CondVar carry "
        "the clang thread-safety capability annotations and the debug "
        "lock-rank checker, so a raw std::mutex is invisible to both "
        "-Werror=thread-safety and the rank discipline",
        [r"\bstd::(recursive_|timed_|recursive_timed_|shared_|"
         r"shared_timed_)?mutex\b",
         r"\bstd::condition_variable(_any)?\b",
         r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"],
        exempt_files=("src/util/sync.",),
        fix_hint="use qcfe::Mutex/SharedMutex + MutexLock/ReaderMutexLock/"
                 "WriterMutexLock and CondVar from util/sync.h",
    ),
    Rule(
        "no-raw-file-io",
        "direct fstream/fopen bypasses the Fs seam (util/fs.h): artifact "
        "I/O must be fault-injectable (FaultInjectingFs) and crash-safe "
        "(AtomicWriteFile's temp-file -> fsync -> rename publish), which "
        "only holds if every byte goes through Fs",
        [r"#\s*include\s*<\s*fstream\s*>",
         r"\bstd::(basic_)?[io]?fstream\b",
         r"(?<![\w:])[io]fstream\b",
         r"\bf(re|d)?open\s*\("],
        exempt_files=("src/util/fs.",),
        fix_hint="route bytes through Fs (util/fs.h): ReadFile, "
                 "NewWritableFile, or AtomicWriteFile",
    ),
    SleepRule(
        "no-sleep-in-tests",
        "the test suite is sleep-free by construction (FakeClock drives "
        "every deadline); a sleep is either a flake or a disguised "
        "ordering assumption — NOLINT it only with a justification",
        [r"\bsleep_(for|until)\s*\(", r"(?<![\w:])u?sleep\s*\("],
        dirs=("tests/",),
        fix_hint="drive time with FakeClock::Advance",
    ),
    Rule(
        "no-raw-intrinsics",
        "vendor SIMD intrinsics outside the kernel tier TUs fragment the "
        "ISA dispatch seam: every vector instruction belongs in "
        "src/nn/kernels_simd_*.cc behind the KernelIsa runtime-detection "
        "tables, where the per-element determinism contract and the "
        "parity gates (kernels_test, bench_micro --smoke) cover it",
        [r"#\s*include\s*<\s*(immintrin|x86intrin|emmintrin|xmmintrin|"
         r"avxintrin|arm_neon|arm_sve)\.h\s*>",
         r"\b_mm\d*_\w+\s*\(", r"\b__m(64|128|256|512)[dih]*\b",
         r"\bv(ld|st|fma|mla|add|sub|mul|div|sqrt|abs|neg|max|min|get|set|"
         r"dup|mov|cvt|rnd|ext|zip|pad)\w*q?_[fsu](8|16|32|64)\b",
         r"\b(float|int|uint|poly)(8|16|32|64)x\d+(x\d+)?_t\b"],
        exempt_files=("src/nn/kernels_simd_",),
        fix_hint="add the vector path to the matching kernels_simd_*.cc "
                 "tier (or extend the KernelTable with a new slot)",
    ),
    Rule(
        "no-getenv",
        "environment variables are hidden configuration: each one is a "
        "knob that changes behaviour outside every config struct, test and "
        "artifact; src/ reads them only through util/env_config (plus "
        "QCFE_KERNEL_ISA, the kernel layer's one dispatch axis, in "
        "nn/kernels.cc)",
        [r"\bstd::(secure_)?getenv\s*\(", r"(?<![\w:.])(secure_)?getenv\s*\("],
        dirs=("src/",),
        exempt_files=("src/util/env_config.", "src/nn/kernels.cc"),
        fix_hint="add a field to the relevant config struct, or read the "
                 "variable in util/env_config",
    ),
    StatusDiscardRule(
        "unannotated-status-discard",
        "a `(void)` cast on a call silently swallows its Status/Result; "
        "each one needs a same-line or preceding-line comment saying why "
        "the failure is ignorable (or QCFE_CHECK_OK to make it loud)",
        [],  # custom matcher
        fix_hint="propagate the Status, QCFE_CHECK_OK it, or comment the "
                 "(void)",
    ),
]


class Finding:
    def __init__(self, path, line_no, rule, line_text):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.line_text = line_text

    def __str__(self):
        return (f"{self.path}:{self.line_no}: [{self.rule.name}] "
                f"{self.line_text.strip()}\n"
                f"    rule: {self.rule.summary}\n"
                f"    fix:  {self.rule.fix_hint}; or append "
                f"`// qcfe-lint: allow({self.rule.name})` with a reason")


def _allowed_rules(raw_line):
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",") if r.strip()}


def lint_file(path, rel_path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"qcfe_lint: cannot read {path}: {e}", file=sys.stderr)
        return []
    raw_lines = text.splitlines()
    stripped_lines = _strip_code(text).splitlines()
    # The stripper preserves newlines, so the two views stay line-aligned.
    findings = []
    active = [r for r in RULES if r.applies_to(rel_path)]
    if not active:
        return findings
    for i, raw in enumerate(raw_lines):
        stripped = stripped_lines[i] if i < len(stripped_lines) else ""
        prev_raw = raw_lines[i - 1] if i > 0 else ""
        allowed = _allowed_rules(raw) | _allowed_rules(prev_raw)
        for rule in active:
            if isinstance(rule, StatusDiscardRule):
                hit = rule.check_line(stripped, raw, prev_raw)
            else:
                hit = rule.check_line(stripped, raw)
            if hit and rule.name not in allowed:
                findings.append(Finding(rel_path, i + 1, rule, raw))
    return findings


def collect_files(paths):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in ("build", "lint_testdata"))
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print(f"qcfe_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def lint_paths(paths):
    findings = []
    for f in collect_files(paths):
        rel = os.path.relpath(f, REPO_ROOT)
        findings.extend(lint_file(f, rel))
    return findings


def self_test():
    """Corpus check (exact line-level expectations) + clean-tree check."""
    corpus_dir = os.path.join(REPO_ROOT, "tools", "lint_testdata")
    failures = 0
    corpus_files = sorted(
        f for f in os.listdir(corpus_dir) if f.endswith(SOURCE_EXTENSIONS))
    if not corpus_files:
        print("self-test: empty corpus", file=sys.stderr)
        return 1
    total_expected = 0
    for name in corpus_files:
        path = os.path.join(corpus_dir, name)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        # Line 1 declares the tree path the corpus file simulates, e.g.
        # `// lint-as: src/core/foo.cc` (scoped rules key off the path).
        m = re.match(r"//\s*lint-as:\s*(\S+)", raw_lines[0] if raw_lines else "")
        pseudo_path = m.group(1) if m else f"src/{name}"
        expected = {}
        for i, line in enumerate(raw_lines):
            em = EXPECT_RE.search(line)
            if em:
                expected.setdefault(i + 1, set()).add(em.group(1))
                total_expected += 1
        actual = {}
        for finding in lint_file(path, pseudo_path):
            actual.setdefault(finding.line_no, set()).add(finding.rule.name)
        for line_no in sorted(set(expected) | set(actual)):
            exp = expected.get(line_no, set())
            act = actual.get(line_no, set())
            if exp != act:
                failures += 1
                print(f"self-test MISMATCH {name}:{line_no}: expected "
                      f"{sorted(exp) or 'clean'}, got {sorted(act) or 'clean'}",
                      file=sys.stderr)
    print(f"self-test: {len(corpus_files)} corpus files, "
          f"{total_expected} expected findings, {failures} mismatches")
    if failures:
        return 1
    tree_findings = lint_paths(DEFAULT_ROOTS)
    for f in tree_findings:
        print(f, file=sys.stderr)
    print(f"self-test: real tree {'CLEAN' if not tree_findings else 'DIRTY'} "
          f"({len(collect_files(DEFAULT_ROOTS))} files scanned)")
    return 1 if tree_findings else 0


def list_rules():
    print(f"{'rule':<28} scope")
    for r in RULES:
        scope = "tree" if r.dirs is None else ", ".join(r.dirs)
        if r.exempt_files:
            scope += f" (exempt: {', '.join(r.exempt_files)})"
        print(f"{r.name:<28} {scope}")
        print(f"{'':<28} {r.summary}")
    return 0


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        return list_rules()
    if "--self-test" in args:
        return self_test()
    if any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    findings = lint_paths(args or DEFAULT_ROOTS)
    for f in findings:
        print(f)
    if findings:
        print(f"qcfe_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
