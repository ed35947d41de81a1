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

Every unreached symbol must match an entry of tools/reachability_allowlist.txt
(a prefix of the demangled name, then `#` and a one-line reason). Exit
status: 0 = every unreached symbol is allowlisted, 1 = some are not (or an
allowlist entry has no reason), 2 = usage or build-tree error.
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


def main(argv):
    if argv == ["--targets"]:
        print(" ".join(production_targets()))
        return 0
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

    used = set()
    offending = []
    for name in unreached:
        hit = next((a for a in allow if name.startswith(a)), None)
        if hit is None:
            offending.append(name)
        else:
            used.add(hit)

    print("reachability: %d qcfe:: functions in %d objects reach none of %d "
          "production executables; %d allowlisted, %d not" %
          (len(unreached), len(objects), len(exes),
           len(unreached) - len(offending), len(offending)))
    for entry in allow:
        if entry not in used:
            print("  stale allowlist entry (matches nothing): %s" % entry)
    for name in offending:
        print("  unreached: %s" % name)
    return 1 if offending else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
