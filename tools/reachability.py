#!/usr/bin/env python3
"""Check that every library function is reached by a program.

usage: tools/reachability.py OUT

Configures and builds the repository into OUT/root and the perfbench
package into OUT/perfbench at -O0 with one section per function, so
that the linker drops every function no entry point reaches, then
compares the two builds. Set CMAKE_BUILD_PARALLEL_LEVEL to build in
parallel; a rerun rebuilds only what changed.

The functions `nm -C --defined-only` lists in libpimphony.a are
compared, by their pimphony:: name up to the parameter list, with the
functions left in the executables: every ELF executable directly in
OUT/root (tests, benches, examples) and OUT/perfbench/perfbench.
Instantiations of std:: templates are left out, and a lambda counts
as part of the function that encloses it. Functions defined only in
a header have no library copy, so they are invisible here.

Exits 1 if a library function is in no executable, or if the set of
functions only *_test executables reach differs from
tools/reachability_allow.txt in either direction. Each allowlist
line is a name and a tag: `oracle` (a reference a test compares
against) or `paper` (a paper component kept for its tests).
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
ALLOW = os.path.join(HERE, "reachability_allow.txt")
PROBE_FLAGS = ["-DCMAKE_BUILD_TYPE=None",
               "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
               "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
TAGS = ("oracle", "paper")
TEXT_TYPES = set("TtWw")

# Operators whose spelling contains a bracket, and conversion
# operators, whose spelling contains a space; swapped for a placeholder
# so bracket matching sees only real nesting and the space before the
# name of a template's return type.
OPERATOR = re.compile(
    r"operator(\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>| [^(]+)")
OPENS, CLOSES = "<({[", ">)}]"


def function_name(demangled):
    """`pimphony::` name of a demangled function symbol, or None."""
    s = re.sub(r"^(non-)?virtual thunk to ", "", demangled)
    s = s.replace("(anonymous namespace)", "{anon}")
    ops = []

    def stash(m):
        ops.append(m.group(0))
        return "operator#%d" % (len(ops) - 1)

    s = OPERATOR.sub(stash, s)
    depth, start, end = 0, 0, len(s)
    for i, ch in enumerate(s):
        if ch == "(" and depth == 0:
            end = i  # the parameter list
            break
        if ch in OPENS:
            depth += 1
        elif ch in CLOSES:
            depth -= 1
        elif ch == " " and depth == 0:
            start = i + 1  # past a template's return type
    name = re.sub(r"\[abi:\w+\]", "", s[start:end])
    name = re.sub(r"operator#(\d+)", lambda m: ops[int(m.group(1))], name)
    name = name.replace("{anon}", "(anonymous namespace)")
    return name if name.startswith("pimphony::") else None


def functions(path):
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            name = function_name(parts[2])
            if name:
                names.add(name)
    return names


def build(source, out, *target):
    subprocess.run(["cmake", "-B", out, "-S", source] + PROBE_FLAGS,
                   check=True)
    subprocess.run(["cmake", "--build", out] + list(target), check=True)


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def read_allow(path):
    allow = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.rsplit(None, 1)
            if len(parts) != 2 or parts[1] not in TAGS:
                sys.exit("%s:%d: expected '<name> oracle|paper'"
                         % (path, lineno))
            allow[parts[0]] = parts[1]
    return allow


def report(title, names):
    print("%s (%d):" % (title, len(names)))
    for name in sorted(names):
        print("  " + name)


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    root = os.path.join(sys.argv[1], "root")
    perfbench = os.path.join(sys.argv[1], "perfbench", "perfbench")
    build(REPO, root)
    build(os.path.join(REPO, "perfbench"), os.path.dirname(perfbench),
          "--target", "perfbench")

    library = functions(os.path.join(root, "libpimphony.a"))
    exes = [os.path.join(root, f) for f in sorted(os.listdir(root))]
    exes = [p for p in exes if is_elf_executable(p)] + [perfbench]

    by_programs, by_tests = set(), set()
    for exe in exes:
        reached = functions(exe) & library
        (by_tests if exe.endswith("_test") else by_programs).update(reached)
    unreached = library - by_programs - by_tests
    test_only = by_tests - by_programs
    allow = read_allow(ALLOW)

    print("%d library functions, %d executables: %d reached by a "
          "program, %d by tests only, %d by none"
          % (len(library), len(exes), len(library & by_programs),
             len(test_only), len(unreached)))
    failed = False
    for title, names in (
            ("unreached by every executable", unreached),
            ("reached only by tests but not allowlisted",
             test_only - allow.keys()),
            ("allowlisted but not test-only (reached by a program, "
             "or gone)", allow.keys() - test_only)):
        if names:
            report(title, names)
            failed = True
    if not failed:
        print("ok: the test-only set equals %s (%d oracle, %d paper)"
              % (os.path.relpath(ALLOW),
                 sum(t == "oracle" for t in allow.values()),
                 sum(t == "paper" for t in allow.values())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
