#!/usr/bin/env python3
"""reachability: list the library code that no production binary reaches.

Compares the `qcfe::` symbols defined in the qcfe_core objects of a build
with the union of those defined in the production executables (perfbench,
the examples, the paper benches and bench_micro). Built at -O0 (nothing is
inlined away) with -ffunction-sections -fdata-sections and linked with
-Wl,--gc-sections, a library symbol that survives in no production
executable is code only tests reach. Lambdas are skipped: their names are
per-TU and carry no API.

Usage:
    cmake -S perfbench -B build-reach -DCMAKE_CXX_FLAGS_RELEASE="-O0 -DNDEBUG" \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-reach --target $(tools/reachability.py --targets)
    tools/reachability.py build-reach

    tools/reachability.py --targets    # print the production target names
    tools/reachability.py --self-test  # parser + allowlist rules, no build

Every unreached symbol must match an entry of tools/reachability_allowlist.txt
(a prefix of the demangled name, then `#` and a one-line reason), and every
entry must match some unreached symbol: an entry that matches nothing is
stale (its function was deleted or gained a production caller) and must go.
Exit status: 0 = every unreached symbol is allowlisted and no entry is
stale, 1 = some symbol is not allowlisted, some entry is stale or has no
reason (or a self-test case fails), 2 = usage or build-tree error.
"""

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(REPO_ROOT, "tools", "reachability_allowlist.txt")

# Where each production target list lives: (CMake file, set() variable).
TARGET_LISTS = (("bench/CMakeLists.txt", "QCFE_BENCHES"),
                ("examples/CMakeLists.txt", "QCFE_EXAMPLES"))
EXTRA_TARGETS = ("bench_micro", "perfbench")


def production_targets():
    targets = []
    for rel, var in TARGET_LISTS:
        with open(os.path.join(REPO_ROOT, rel)) as f:
            text = f.read()
        m = re.search(r"set\(\s*%s\s+([^)]*)\)" % var, text)
        if m is None:
            sys.exit("reachability: no set(%s ...) in %s" % (var, rel))
        targets.extend(m.group(1).split())
    return targets + list(EXTRA_TARGETS)


def function_name(symbol):
    """The qualified name of a demangled function symbol.

    A template instantiation demangles with its return type first
    ("qcfe::Foo* std::copy<...>(...)"), so the name is what follows the last
    space outside template brackets, up to the parameter list.
    """
    text = symbol.replace("(anonymous namespace)", "{anon}")
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        if depth == 0 and text.startswith("operator", i) and (
                i == 0 or text[i - 1] in ": "):
            # The operator's own token may hold '<', '>' or "()".
            i = text.find("(", i + len("operator") + 1)
            break
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c == "(":
            break
        elif depth == 0 and c == " ":
            start = i + 1
        i += 1
    return text[start:i]


def defined_functions(paths):
    """Demangled qcfe:: functions defined in `paths`, lambdas left out.

    Data symbols are skipped: -O0 still emits every namespace-scope
    constant, and a constant folded into its readers is never referenced.
    """
    out = subprocess.run(["nm", "-C", "--defined-only"] + paths,
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        # "<addr> <type> <name>"; file headers ("x.o:") and blanks have
        # fewer fields.
        parts = line.split(" ", 2)
        if len(parts) < 3 or parts[1] not in "TtWw":
            continue
        name = parts[2]
        if "{lambda(" not in name and function_name(name).startswith("qcfe::"):
            names.add(name)
    return names


def find_files(root, predicate):
    found = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            if predicate(dirpath, name, path):
                found.append(path)
    return sorted(found)


def load_allowlist():
    entries = []
    bad = []
    with open(ALLOWLIST) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            prefix, _, reason = line.partition("#")
            if not prefix.strip() or not reason.strip():
                bad.append(lineno)
                continue
            entries.append(prefix.strip())
    return entries, bad


def classify(unreached, allow):
    """(offending, stale): the unreached names no entry covers, and the
    entries that cover no unreached name."""
    used = set()
    offending = []
    for name in unreached:
        hit = next((a for a in allow if name.startswith(a)), None)
        if hit is None:
            offending.append(name)
        else:
            used.add(hit)
    return offending, [a for a in allow if a not in used]


# function_name cases: each demangled symbol form nm -C prints that the
# parser must cut to its qualified name.
NAME_CASES = (
    ("qcfe::Foo::Bar(int) const", "qcfe::Foo::Bar"),
    ("qcfe::Foo::operator()(int) const", "qcfe::Foo::operator()"),
    ("qcfe::operator<<(std::ostream&, qcfe::Foo const&)", "qcfe::operator<<"),
    ("qcfe::Counts::operator+=(qcfe::Counts const&)",
     "qcfe::Counts::operator+="),
    ("qcfe::Foo* std::copy<qcfe::Foo const*, qcfe::Foo*>"
     "(qcfe::Foo const*, qcfe::Foo const*, qcfe::Foo*)",
     "std::copy<qcfe::Foo const*, qcfe::Foo*>"),
    ("std::vector<double, std::allocator<double> > "
     "qcfe::Table<int>::Column<double>(unsigned long) const",
     "qcfe::Table<int>::Column<double>"),
    ("qcfe::(anonymous namespace)::IsNumeric(qcfe::Value const&)",
     "qcfe::{anon}::IsNumeric"),
    ("qcfe::Registry::Names[abi:cxx11]() const",
     "qcfe::Registry::Names[abi:cxx11]"),
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> > qcfe::OpName[abi:cxx11](qcfe::OpType)",
     "qcfe::OpName[abi:cxx11]"),
)


def self_test():
    """Name parsing and the allowlist rules, on fixed inputs (no build)."""
    failures = 0
    for symbol, want in NAME_CASES:
        got = function_name(symbol)
        if got != want:
            failures += 1
            print("self-test MISMATCH function_name(%r): expected %r, got %r"
                  % (symbol, want, got), file=sys.stderr)
    # One covered name, one uncovered, one entry that matches nothing.
    offending, stale = classify(
        ["qcfe::A::f(int)", "qcfe::B::g()"], ["qcfe::A::", "qcfe::C::"])
    if offending != ["qcfe::B::g()"] or stale != ["qcfe::C::"]:
        failures += 1
        print("self-test MISMATCH classify: offending %r, stale %r" %
              (offending, stale), file=sys.stderr)
    entries, bad = load_allowlist()
    if bad or not entries:
        failures += 1
        print("self-test: %s has %d entries, reasonless lines %s" %
              (ALLOWLIST, len(entries), bad), file=sys.stderr)
    print("self-test: %d name cases, %d allowlist entries, %d mismatches" %
          (len(NAME_CASES), len(entries), failures))
    return 1 if failures else 0


def main(argv):
    if argv == ["--targets"]:
        print(" ".join(production_targets()))
        return 0
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    build = argv[0]

    objects = find_files(
        build, lambda d, n, p: n.endswith(".o") and
        os.sep + "qcfe_core.dir" + os.sep in p + os.sep)
    if not objects:
        print("reachability: no qcfe_core objects under %s" % build,
              file=sys.stderr)
        return 2
    wanted = set(production_targets())
    exes = find_files(
        build, lambda d, n, p: n in wanted and os.access(p, os.X_OK))
    missing = wanted - {os.path.basename(p) for p in exes}
    if missing:
        print("reachability: production executables not built: %s" %
              " ".join(sorted(missing)), file=sys.stderr)
        return 2

    unreached = sorted(defined_functions(objects) - defined_functions(exes))
    allow, bad = load_allowlist()
    if bad:
        print("reachability: allowlist entries without a reason on lines %s" %
              ", ".join(map(str, bad)), file=sys.stderr)
        return 1

    offending, stale = classify(unreached, allow)
    print("reachability: %d qcfe:: functions in %d objects reach none of %d "
          "production executables; %d allowlisted, %d not; %d stale "
          "allowlist entries" %
          (len(unreached), len(objects), len(exes),
           len(unreached) - len(offending), len(offending), len(stale)))
    for entry in stale:
        print("  stale allowlist entry (matches nothing): %s" % entry)
    for name in offending:
        print("  unreached: %s" % name)
    return 1 if offending or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
