#!/usr/bin/env python3
"""mwsj_check: the invariant analyzer for the mwsj tree.

It builds a whole-program call graph over the effect annotations declared
in src/common/effects.h and propagates five invariants across it, and it
runs file-scope textual rules over every file it reads (rule table:
tools/mwsj_check_rules.md; architecture: DESIGN.md section 2.15).

Call-graph rules:

  alloc-free-reach   An MWSJ_ALLOC_FREE function must not transitively
                     reach operator new / malloc / make_unique / a
                     growing-container call. Function-granular successor
                     of the PR-3 allocs_per_probe == 0 kernel contract.
  emit-determinism   An MWSJ_DETERMINISTIC function must not transitively
                     iterate an unordered container, sort by raw pointer
                     value, or touch RNG outside src/common/ — the static
                     form of the tie-break bug class that breaks
                     byte-identical emit streams.
  blocking-reach     An MWSJ_BLOCKING function (CondVar waits, pool
                     joins) must be unreachable from MWSJ_ALLOC_FREE
                     / MWSJ_DETERMINISTIC functions except through an
                     MWSJ_BLOCKING_OK barrier (job orchestration entry
                     points such as MapReduceJob::Run).
  hot-shared-rmw     An MWSJ_ALLOC_FREE function must not transitively
                     perform an atomic read-modify-write (fetch_add,
                     exchange, compare_exchange, ++/+= on a std::atomic):
                     per-call kernels that share one counter serialize on
                     its cache line across threads.
  lock-order         The Mutex acquisition graph — direct MutexLock
                     nesting plus locks acquired by callees while a lock
                     is held — must be acyclic. Lock identity is
                     Class::member (instance-insensitive), so two
                     instances of the same member are one node.

Textual rules match the comment- and string-stripped text of one file,
scoped by its path relative to --root: rng-outside-common,
stdout-in-library, unordered-emit, hot-path-std-function (src/simd/ and
files declaring MWSJ_ALLOC_FREE), trace-span-temporary,
engine-run-outside-scheduler, and spill-unbounded (files carrying the
`// mwsj-check: spill-budgeted` marker).

Frontends (--frontend=auto|libclang|textual):

  libclang  parses every TU named by compile_commands.json (--compdb) and
            uses AST cursors for function boundaries, effect annotations
            ([[clang::annotate("mwsj::*")]]) and the Mutex field registry.
  textual   a length-preserving comment/string stripper plus a scope
            scanner that reads the MWSJ_* macro tokens directly; used
            where python3-clang is unavailable (and for annotation-only
            fixture trees with no compilation database).

Both frontends emit the same intermediate representation, and feature /
call-site extraction always runs over the function's *source text* with
shared matchers, so the two frontends agree on the golden fixtures; the
CI job additionally runs the fixture suite under whichever frontend it
resolved before gating the tree. Either way every file in scope is read,
and the textual rules run over each.

Suppressions: `// mwsj-check: allow(rule[,rule]): justification` on the
finding line, the line above, or in the contiguous `//` block above the
finding line. A missing or empty justification is itself a finding
(bad-suppression) that cannot be suppressed. Baseline
entries (--baseline FILE) are `rule|path|function|justification` lines;
entries that no longer match any finding are reported as stale and fail
the run, keeping the baseline exact.

Exit codes: 0 clean, 1 findings, 2 usage or frontend error.
"""

from __future__ import annotations

import argparse
import bisect
import glob as globmod
import os
import pathlib
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

RULES = {
    "alloc-free-reach":
        "MWSJ_ALLOC_FREE functions may not transitively reach operator "
        "new/malloc/make_unique or growing-container calls",
    "emit-determinism":
        "MWSJ_DETERMINISTIC functions may not transitively iterate "
        "unordered containers, sort by pointer value, or use RNG outside "
        "src/common/",
    "blocking-reach":
        "MWSJ_BLOCKING functions must be unreachable from MWSJ_ALLOC_FREE/"
        "MWSJ_DETERMINISTIC functions except via MWSJ_BLOCKING_OK",
    "hot-shared-rmw":
        "MWSJ_ALLOC_FREE functions may not transitively perform an atomic "
        "read-modify-write (fetch_*, exchange, compare_exchange*, ++/+= on "
        "a std::atomic)",
    "lock-order":
        "the MutexLock acquisition graph (including locks taken by "
        "callees) must be acyclic",
    "rng-outside-common":
        "no <random> engines/distributions or rand/srand/*rand48 outside "
        "src/common/; use the seeded mwsj::Rng",
    "stdout-in-library":
        "no std::cout/printf in src/ (stdout belongs to tools/)",
    "unordered-emit":
        "no range-for over an unordered container whose body calls Emit(",
    "hot-path-std-function":
        "no std::function in src/simd/ or in files declaring "
        "MWSJ_ALLOC_FREE functions",
    "trace-span-temporary":
        "TraceSpan must be a named local, not a temporary",
    "spill-unbounded":
        "in files marked `mwsj-check: spill-budgeted`, no push_back/"
        "emplace_back on a vector never reserve()d in the file",
    "engine-run-outside-scheduler":
        "outside src/core, src/queries and src/mapreduce, files including "
        "mapreduce/engine.h may not call .Run( directly",
    "bad-suppression":
        "every `mwsj-check: allow(...)` must name known rules and carry "
        "a non-empty justification",
}

ANNOTATION_TOKENS = {
    "MWSJ_ALLOC_FREE": "alloc_free",
    "MWSJ_DETERMINISTIC": "deterministic",
    "MWSJ_BLOCKING_OK": "blocking_ok",
    "MWSJ_BLOCKING": "blocking",
}
# libclang spells them through the annotate attribute payload.
ANNOTATE_PAYLOADS = {
    "mwsj::alloc_free": "alloc_free",
    "mwsj::deterministic": "deterministic",
    "mwsj::blocking_ok": "blocking_ok",
    "mwsj::blocking": "blocking",
}

ALLOW_RE = re.compile(
    r"//\s*mwsj-check:\s*allow\(([a-z0-9\-, \t]*)\)[ \t]*:?[ \t]*(.*)")

# ---------------------------------------------------------------------------
# Shared text utilities
# ---------------------------------------------------------------------------


def strip_comments_and_strings(src: str) -> str:
    """Blanks comments, string and char literals with spaces.

    Length-preserving (newlines kept), so offsets and line numbers in the
    stripped text match the original byte-for-byte.
    """
    out = []
    i, n = 0, len(src)
    NORMAL, LINE, BLOCK, STR, CHR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                j = i - 1
                if j >= 0 and src[j] == "R" and (j == 0 or
                                                 not src[j - 1].isalnum()):
                    m = re.match(r'"([^\s()\\]{0,16})\(', src[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = RAW
                        out.append('"')
                        i += 1
                        continue
                state = STR
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == STR:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = NORMAL
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == CHR:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = NORMAL
                out.append("'")
            else:
                out.append(" ")
            i += 1
        else:  # RAW
            if src.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = NORMAL
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


class LineMap:
    """offset -> 1-based line number over a fixed text."""

    def __init__(self, text: str):
        self.starts = [0]
        for i, c in enumerate(text):
            if c == "\n":
                self.starts.append(i + 1)

    def line(self, offset: int) -> int:
        return bisect.bisect_right(self.starts, offset)


# ---------------------------------------------------------------------------
# Intermediate representation
# ---------------------------------------------------------------------------


@dataclass
class FunctionInfo:
    qual: str          # e.g. "RTree::Query" (namespace-insensitive)
    simple: str        # "Query"
    cls: str           # "RTree" or "" for free functions
    rel: str           # repo-relative path of the defining file
    line: int          # line of the definition
    offset: int        # offset of the definition head in the stripped file
    text: str          # stripped source of head + body
    annotations: set = field(default_factory=set)
    # Derived by the analyzer:
    calls: list = field(default_factory=list)      # (name, line, offset)
    alloc_sites: list = field(default_factory=list)        # (line, what)
    nondet_sites: list = field(default_factory=list)       # (line, what)
    blocking_sites: list = field(default_factory=list)     # (line, what)
    rmw_sites: list = field(default_factory=list)          # (line, what)
    lock_events: list = field(default_factory=list)        # see scan_locks


@dataclass
class FileInfo:
    rel: str
    raw: str
    code: str          # stripped
    linemap: LineMap
    allows: dict = field(default_factory=dict)   # line -> set(rules)


@dataclass
class ParseResult:
    functions: list = field(default_factory=list)
    files: dict = field(default_factory=dict)            # rel -> FileInfo
    fields: list = field(default_factory=list)   # (class, member, type)
    # Annotations harvested from declarations without bodies:
    # (cls, simple) -> (set of effects, rel, line of first such decl)
    decl_annotations: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)         # bad-suppression


def scan_allows(fi: FileInfo, findings: list) -> None:
    for m in ALLOW_RE.finditer(fi.raw):
        line = fi.raw.count("\n", 0, m.start()) + 1
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        just = m.group(2).strip()
        bad = [r for r in rules if r not in RULES or r == "bad-suppression"]
        if not rules or bad or not just:
            what = ("unknown rule(s) " + ", ".join(sorted(bad))) if bad else (
                "no rule named" if not rules else "missing justification")
            findings.append(Finding(fi.rel, line, "bad-suppression",
                                    f"suppression is invalid: {what}", ""))
            continue
        fi.allows.setdefault(line, set()).update(rules)


# ---------------------------------------------------------------------------
# Textual frontend
# ---------------------------------------------------------------------------

HEAD_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch", "return",
    "new", "delete", "sizeof", "case", "default", "throw", "alignas",
    "static_assert", "decltype", "requires", "asm", "defined",
}

NAME_BEFORE_PAREN_RE = re.compile(
    r"((?:operator\s*(?:\(\)|\[\]|[^\s\w(]{1,3}))|"
    r"(?:~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*))\s*$")

CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*"
                           r"(?:<[^;{]*>)?\s*(?:final\s*)?(?::[^;{]*)?$")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\s*([A-Za-z_][\w:]*)?\s*$")


def find_param_paren(head: str):
    """Offset of the first '(' at angle/square-bracket depth 0, or None."""
    angle = square = 0
    i = 0
    n = len(head)
    while i < n:
        c = head[i]
        if c == "<":
            angle += 1
        elif c == ">":
            if angle > 0:
                angle -= 1
        elif c == "[":
            square += 1
        elif c == "]":
            if square > 0:
                square -= 1
        elif c == "(" and angle == 0 and square == 0:
            return i
        elif c in ";{}":
            return None
        i += 1
    return None


def match_brace(code: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def head_annotations(head: str) -> set:
    out = set()
    for token, effect in ANNOTATION_TOKENS.items():
        if re.search(rf"\b{token}\b", head):
            out.add(effect)
    return out


class TextualFrontend:
    """Scope scanner over stripped source. One file at a time."""

    def __init__(self, result: ParseResult):
        self.result = result

    def parse_file(self, rel: str, raw: str) -> None:
        code = strip_comments_and_strings(raw)
        fi = FileInfo(rel=rel, raw=raw, code=code, linemap=LineMap(code))
        self.result.files[rel] = fi
        scan_allows(fi, self.result.findings)
        class_extents = []  # (name, start, end)
        func_extents = []
        self._scan_region(fi, code, 0, len(code), [], class_extents,
                          func_extents)
        self._scan_fields(fi, class_extents, func_extents)

    def _scan_region(self, fi, code, start, end, class_stack,
                     class_extents, func_extents):
        i = start
        head_start = start
        while i < end:
            c = code[i]
            if c in ";}":
                # Harvest annotations from bodiless declarations.
                if c == ";":
                    self._maybe_record_decl(code[head_start:i], class_stack,
                                            fi, head_start)
                head_start = i + 1
                i += 1
                continue
            if c == "(":
                # Skip over parenthesised stuff so `;` inside `for(...)`
                # or parameter defaults never resets the head.
                depth = 0
                while i < end:
                    if code[i] == "(":
                        depth += 1
                    elif code[i] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif code[i] == "{" or code[i] == "}":
                        break  # malformed; bail to normal handling
                    i += 1
                i += 1
                continue
            if c != "{":
                i += 1
                continue
            head = code[head_start:i]
            kind, name = self._classify(head)
            if kind == "namespace":
                # Transparent: keep scanning inside with same class stack.
                head_start = i + 1
                i += 1
                continue
            close = match_brace(code, i)
            if kind == "class":
                class_extents.append((name, i, close))
                self._scan_region(fi, code, i + 1, close,
                                  class_stack + [name], class_extents,
                                  func_extents)
            elif kind == "function":
                func_extents.append((head_start, close))
                self._record_function(fi, head, head_start, i, close,
                                      class_stack, name)
            # 'other' scopes (enums, initializers, lambdas at odd scopes)
            # are skipped wholesale.
            i = close + 1
            head_start = i

    def _classify(self, head: str):
        m = NAMESPACE_HEAD_RE.search(head)
        if m and "(" not in head:
            return "namespace", m.group(1) or ""
        m = CLASS_HEAD_RE.search(head)
        if m:
            return "class", m.group(1)
        paren = find_param_paren(head)
        if paren is None:
            return "other", ""
        m = NAME_BEFORE_PAREN_RE.search(head[:paren])
        if not m:
            return "other", ""
        name = re.sub(r"\s+", "", m.group(1))
        base = name.split("::")[-1].lstrip("~")
        if base in HEAD_KEYWORDS or not base:
            return "other", ""
        # `= [..](..) {` lambdas / brace-initialised variables are not
        # function definitions.
        pre = head[:paren]
        if "=" in pre.split(name)[0]:
            return "other", ""
        return "function", name

    def _maybe_record_decl(self, head: str, class_stack, fi, head_start):
        annos = head_annotations(head)
        if not annos:
            return
        paren = find_param_paren(head)
        if paren is None:
            return
        m = NAME_BEFORE_PAREN_RE.search(head[:paren])
        if not m:
            return
        name = re.sub(r"\s+", "", m.group(1))
        cls = class_stack[-1] if class_stack else ""
        simple = name.split("::")[-1]
        if "::" in name:
            cls = name.split("::")[-2]
        key = (cls, simple)
        prev = self.result.decl_annotations.get(key)
        if prev:
            prev[0].update(annos)
        else:
            self.result.decl_annotations[key] = (
                annos, fi.rel, fi.linemap.line(head_start))

    def _record_function(self, fi, head, head_start, brace, close,
                         class_stack, name):
        simple = name.split("::")[-1]
        if "::" in name:
            cls = name.split("::")[-2]
        else:
            cls = class_stack[-1] if class_stack else ""
        qual = f"{cls}::{simple}" if cls else simple
        fn = FunctionInfo(
            qual=qual, simple=simple, cls=cls, rel=fi.rel,
            line=fi.linemap.line(brace if head.strip() == "" else
                                 head_start + len(head) - len(head.lstrip())),
            offset=head_start,
            text=fi.code[head_start:close + 1],
            annotations=head_annotations(head))
        self.result.functions.append(fn)

    FIELD_RE = re.compile(
        r"(?m)^\s*(?:mutable\s+)?(?:const\s+)?(?:static\s+)?"
        r"([A-Za-z_][\w:]*)(?:\s*<[^;{}()]*>)?\s*[*&]?\s+"
        r"([A-Za-z_]\w*)\s*(?:;|=[^=]|\{)")
    FIELD_TYPE_SKIP = {"return", "using", "typedef", "namespace", "goto",
                       "case", "delete", "throw", "new", "template", "else",
                       "public", "private", "protected", "friend", "enum",
                       "struct", "class", "union", "operator"}

    def _scan_fields(self, fi, class_extents, func_extents):
        for m in self.FIELD_RE.finditer(fi.code):
            off = m.start()
            if any(s <= off < e for s, e in func_extents):
                continue  # locals are resolved from the function text
            typ = m.group(1).split("::")[-1]
            if typ in self.FIELD_TYPE_SKIP:
                continue
            owner = ""
            best = None
            for name, s, e in class_extents:
                if s <= off < e and (best is None or s > best):
                    owner, best = name, s
            self.result.fields.append((owner, m.group(2), typ))


# ---------------------------------------------------------------------------
# libclang frontend
# ---------------------------------------------------------------------------


def load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    candidates = []
    for pat in ("/usr/lib/llvm-*/lib/libclang-*.so*",
                "/usr/lib/llvm-*/lib/libclang.so*",
                "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
                "/usr/lib/*/libclang*.so*"):
        candidates.extend(sorted(globmod.glob(pat), reverse=True))
    for lib in candidates:
        try:
            cindex.Config.set_library_file(lib)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


class LibclangFrontend:
    FN_KINDS = None  # set lazily from cindex

    def __init__(self, cindex, result: ParseResult, root: pathlib.Path):
        self.cindex = cindex
        self.result = result
        self.root = root
        ck = cindex.CursorKind
        self.fn_kinds = {ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                         ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE}
        self.class_kinds = {ck.CLASS_DECL, ck.STRUCT_DECL, ck.CLASS_TEMPLATE,
                            ck.CLASS_TEMPLATE_PARTIAL_SPECIALIZATION}
        self.seen = set()       # (rel, offset) dedup across TUs
        self.seen_fields = set()

    def parse_compdb(self, compdb: pathlib.Path, wanted: dict) -> int:
        """wanted: rel -> raw text of files in scope. Returns #TUs parsed."""
        cindex = self.cindex
        comp_dir = compdb if compdb.is_dir() else compdb.parent
        db = cindex.CompilationDatabase.fromDirectory(str(comp_dir))
        index = cindex.Index.create()
        parsed = 0
        for cmd in db.getAllCompileCommands():
            args = self._tu_args(cmd)
            src = cmd.filename
            try:
                tu = index.parse(src, args=args)
            except Exception as e:  # pragma: no cover - environment specific
                print(f"mwsj_check: warning: failed to parse {src}: {e}",
                      file=sys.stderr)
                continue
            parsed += 1
            self._walk_tu(tu, wanted)
        return parsed

    def _tu_args(self, cmd):
        raw = list(cmd.arguments)
        args = []
        skip = False
        for a in raw[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c",):
                continue
            if a == "-o":
                skip = True
                continue
            if a == cmd.filename or a.endswith(os.path.basename(
                    cmd.filename)):
                continue
            args.append(a)
        return args

    def _walk_tu(self, tu, wanted):
        for cur in tu.cursor.walk_preorder():
            try:
                loc_file = cur.location.file
            except Exception:
                continue
            if loc_file is None:
                continue
            try:
                rel = str(pathlib.Path(loc_file.name).resolve()
                          .relative_to(self.root))
            except ValueError:
                continue
            if rel not in wanted:
                continue
            if cur.kind in self.fn_kinds and cur.is_definition():
                self._record_function(cur, rel)
            elif cur.kind == self.cindex.CursorKind.FIELD_DECL:
                self._record_field(cur, rel)

    def _ensure_file(self, rel, raw):
        if rel in self.result.files:
            return self.result.files[rel]
        code = strip_comments_and_strings(raw)
        fi = FileInfo(rel=rel, raw=raw, code=code, linemap=LineMap(code))
        self.result.files[rel] = fi
        scan_allows(fi, self.result.findings)
        return fi

    def _record_function(self, cur, rel):
        start = cur.extent.start.offset
        key = (rel, start)
        if key in self.seen:
            return
        self.seen.add(key)
        raw = pathlib.Path(self.root / rel).read_text(errors="replace")
        fi = self._ensure_file(rel, raw)
        end = min(cur.extent.end.offset, len(fi.code) - 1)
        simple = cur.spelling or ""
        parent = cur.semantic_parent
        cls = ""
        if parent is not None and parent.kind in self.class_kinds:
            cls = parent.spelling or ""
        qual = f"{cls}::{simple}" if cls else simple
        annos = set()
        for c in list(cur.get_children()):
            if c.kind == self.cindex.CursorKind.ANNOTATE_ATTR:
                effect = ANNOTATE_PAYLOADS.get(c.displayname or c.spelling)
                if effect:
                    annos.add(effect)
        # Annotations may live on an earlier declaration.
        canon = cur.canonical
        if canon is not None and canon != cur:
            for c in list(canon.get_children()):
                if c.kind == self.cindex.CursorKind.ANNOTATE_ATTR:
                    effect = ANNOTATE_PAYLOADS.get(
                        c.displayname or c.spelling)
                    if effect:
                        annos.add(effect)
        fn = FunctionInfo(
            qual=qual, simple=simple, cls=cls, rel=rel,
            line=cur.extent.start.line, offset=start,
            text=fi.code[start:end + 1], annotations=annos)
        self.result.functions.append(fn)

    def _record_field(self, cur, rel):
        tsp = cur.type.spelling if cur.type is not None else ""
        if not tsp:
            return
        # "mwsj::CondVar", "const std::vector<int> &" -> simple type name.
        typ = re.sub(r"[<&*].*$", "", tsp).strip()
        typ = typ.split("::")[-1].split()[-1] if typ else ""
        parent = cur.semantic_parent
        cls = parent.spelling if parent is not None else ""
        key = (cls, cur.spelling)
        if key in self.seen_fields or not typ:
            return
        self.seen_fields.add(key)
        self.result.fields.append((cls, cur.spelling, typ))


# ---------------------------------------------------------------------------
# Feature extraction (shared between frontends)
# ---------------------------------------------------------------------------

ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w.:])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w:.])(?:malloc|calloc|realloc|aligned_alloc|strdup)"
                r"\s*\("), "malloc-family call"),
    (re.compile(r"\bmake_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    (re.compile(r"(?:\.|->)\s*(push_back|emplace_back|emplace|resize|"
                r"reserve|insert|assign|append)\s*\("),
     "growing-container call"),
]

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
RNG_RE = re.compile(
    r"(?<![\w:.])(?:std::)?(?:mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine|random_device|r?and(?:om)?48|rand|srand|"
    r"uniform_int_distribution|uniform_real_distribution|"
    r"bernoulli_distribution)\b")
SORT_RE = re.compile(r"\b(?:std\s*::\s*)?(?:stable_)?sort\s*\(")
LAMBDA_RE = re.compile(r"\[[^\]\[]*\]\s*\(([^)]*)\)\s*(?:->\s*\w+\s*)?\{")
PTR_PARAM_RE = re.compile(r"\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*$")
BLOCKING_INTRINSIC_RE = re.compile(
    r"\bsleep_(?:for|until)\s*\(|(?:\.|->)\s*join\s*\(")

CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(?:\.|->)\s*)?"
    r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)\s*\(")

# Member-call names too generic to resolve through the registry; their
# allocation behaviour is covered by ALLOC_PATTERNS instead.
CALL_SKIP = {
    "push_back", "emplace_back", "emplace", "resize", "reserve", "insert",
    "erase", "assign", "append", "size", "begin", "end", "rbegin", "rend",
    "clear", "empty", "data", "front", "back", "c_str", "get", "reset",
    "release", "count", "find", "at", "swap", "str", "first", "second",
    "load", "store", "fetch_add", "fetch_sub", "exchange", "compare",
    "substr", "length", "lock", "unlock", "value", "has_value", "emplace_hint",
    "capacity", "shrink_to_fit", "min", "max", "abs", "move", "forward",
    "sort", "make_unique", "make_shared", "push", "pop", "top",
}

HEAD_KEYWORD_CALLS = HEAD_KEYWORDS | {
    "while", "switch", "if", "for", "return", "sizeof", "alignof",
    "static_cast", "const_cast", "dynamic_cast", "reinterpret_cast",
    "noexcept", "assert", "co_await", "co_return", "typeid",
}

# A std::atomic declaration (global, member, local or parameter); group 1
# is the declared name.
ATOMIC_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic(?:_\w+)?\s*(?:<[^;{}()]*>)?\s*[&*]?\s*"
    r"([A-Za-z_]\w*)\s*[;{=,()\[]")
# Read-modify-write member calls / free functions on any atomic.
ATOMIC_RMW_CALL_RE = re.compile(
    r"(?:(?:\.|->)\s*|\batomic_)((?:fetch_\w+|exchange|"
    r"compare_exchange_\w+)(?:_explicit)?)\s*\(")

LOCK_RE = re.compile(
    r"\b(?:MutexLock|(?:std\s*::\s*)?(?:lock_guard|unique_lock|scoped_lock)"
    r"\s*(?:<[^>]*>)?)\s+[A-Za-z_]\w*\s*\(\s*&?\s*"
    r"([A-Za-z_][\w\->.\[\]]*)\s*\)")


def scan_features(fn: FunctionInfo, fi: FileInfo, in_common: bool) -> None:
    text = fn.text
    base = fn.offset

    def line_of(m_start: int) -> int:
        return fi.linemap.line(base + m_start)

    for pat, what in ALLOC_PATTERNS:
        for m in pat.finditer(text):
            label = what
            if what == "growing-container call":
                label = f"growing-container call .{m.group(1)}()"
            fn.alloc_sites.append((line_of(m.start()), label))
    for m in UNORDERED_RE.finditer(text):
        fn.nondet_sites.append(
            (line_of(m.start()), "unordered container on an emit path"))
    if not in_common:
        for m in RNG_RE.finditer(text):
            fn.nondet_sites.append(
                (line_of(m.start()),
                 f"RNG '{m.group(0)}' outside src/common/"))
    for line, what in scan_ptr_sorts(text, line_of):
        fn.nondet_sites.append((line, what))
    for m in BLOCKING_INTRINSIC_RE.finditer(text):
        fn.blocking_sites.append(
            (line_of(m.start()), f"blocking call '{m.group(0).strip()}'"))
    scan_calls(fn, line_of)
    scan_locks(fn, line_of)


def scan_atomic_rmw(fn: FunctionInfo, fi: FileInfo, names: set) -> None:
    """Atomic read-modify-writes in `fn`: fetch_*/exchange/compare_exchange
    calls, and ++/--/compound assignment on a name declared std::atomic
    (in fn's file, or as a member of fn's class)."""
    text = fn.text

    def line_of(m_start: int) -> int:
        return fi.linemap.line(fn.offset + m_start)

    for m in ATOMIC_RMW_CALL_RE.finditer(text):
        fn.rmw_sites.append((line_of(m.start()),
                             f"atomic read-modify-write '{m.group(1)}'"))
    if not names:
        return
    alt = "|".join(sorted(re.escape(n) for n in names))
    prefix = re.compile(rf"(\+\+|--)\s*(?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*"
                        rf"({alt})\b")
    postfix = re.compile(rf"(?<![\w])({alt})\s*(\+\+|--|[-+|&^]=(?!=))")
    for m in prefix.finditer(text):
        fn.rmw_sites.append((line_of(m.start()),
                             f"atomic read-modify-write "
                             f"'{m.group(1)}{m.group(2)}'"))
    for m in postfix.finditer(text):
        fn.rmw_sites.append((line_of(m.start()),
                             f"atomic read-modify-write "
                             f"'{m.group(1)} {m.group(2)}'"))


def scan_ptr_sorts(text: str, line_of):
    out = []
    for sm in SORT_RE.finditer(text):
        # Balanced-paren segment of the sort call.
        i = sm.end() - 1
        depth = 0
        j = i
        while j < len(text):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        seg = text[i:j + 1]
        lm = LAMBDA_RE.search(seg)
        if not lm:
            continue
        params = [p.strip() for p in lm.group(1).split(",") if p.strip()]
        names = []
        for p in params:
            pm = PTR_PARAM_RE.search(p)
            if pm:
                names.append(pm.group(1))
        if len(names) != 2:
            continue
        # Comparator body: from the lambda's '{' to its matching '}'.
        bo = seg.index("{", lm.start())
        bc = match_brace(seg, bo)
        body = seg[bo:bc + 1]
        a, b = (re.escape(n) for n in names)
        if re.search(rf"\b{a}\s*[<>]=?\s*{b}\b", body) or \
           re.search(rf"\b{b}\s*[<>]=?\s*{a}\b", body) or \
           "reinterpret_cast<uintptr_t>" in body:
            out.append((line_of(sm.start() + i - (sm.end() - 1 - sm.start())),
                        "sort comparator orders by raw pointer value"))
    return out


def scan_calls(fn: FunctionInfo, line_of) -> None:
    text = fn.text
    for m in CALL_RE.finditer(text):
        receiver = m.group(1) or ""
        name = re.sub(r"\s+", "", m.group(2))
        simple = name.split("::")[-1]
        if simple in HEAD_KEYWORD_CALLS or simple in CALL_SKIP:
            continue
        prev = text[m.start() - 1] if m.start() > 0 else ""
        if prev == ":" and "::" not in name and not receiver:
            continue  # tail of a qualified name already matched
        fn.calls.append((name, line_of(m.start()), m.start(), receiver))


def scan_locks(fn: FunctionInfo, line_of) -> None:
    """Records an ordered event stream for the lock-order rule.

    Events: ('open'|'close', off, 0, "", "") / ('lock', off, line, expr, "")
    / ('call', off, line, name, receiver). Scope handling happens in the
    analyzer, which knows lock identities.
    """
    events = []
    for m in LOCK_RE.finditer(fn.text):
        events.append(("lock", m.start(), line_of(m.start()), m.group(1),
                       ""))
    body_start = fn.text.find("{")
    if body_start < 0:
        body_start = 0
    for i in range(body_start, len(fn.text)):
        if fn.text[i] == "{":
            events.append(("open", i, 0, "", ""))
        elif fn.text[i] == "}":
            events.append(("close", i, 0, "", ""))
    for name, line, off, receiver in fn.calls:
        events.append(("call", off, line, name, receiver))
    events.sort(key=lambda e: e[1])
    fn.lock_events = events


# ---------------------------------------------------------------------------
# File-scope textual rules
# ---------------------------------------------------------------------------
#
# Each rule reads one file's stripped text (so rule words inside comments and
# string literals never match) and yields (offset, message). Path scopes use
# the file's path relative to --root.

SPILL_BUDGETED_RE = re.compile(r"//\s*mwsj-check:\s*spill-budgeted\b")
STDOUT_RE = re.compile(r"std::cout\b|(?<![\w:])(?:std::)?printf\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*"
    r"<(?:[^<>;]|<[^<>;]*>)*>\s*(?:const\s*)?[&*]?\s*(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*\*?(\w+)\s*\)")
EMIT_CALL_RE = re.compile(r"\bEmit\s*\(")
STD_FUNCTION_RE = re.compile(r"std::function\b")
TRACE_SPAN_RE = re.compile(r"(?:^|[;{}])\s*(TraceSpan)\s*[({]([^)}]*)", re.M)
# A first "argument" that looks like a parameter type marks a constructor
# declaration, not a temporary.
DECL_ARG_RE = re.compile(r"\s*(?:const\b|\w+\s*[*&])")
RESERVE_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*reserve\s*\(")
GROW_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*(?:push_back|emplace_back)\s*\(")
ENGINE_INCLUDE_RE = re.compile(r"(?m)^\s*#\s*include\s*[<\"]mapreduce/engine\.h")
RUN_CALL_RE = re.compile(r"(?:\.|->)\s*Run\s*\(")


def under(rel: str, *dirs: str) -> bool:
    return any(rel.startswith(d + "/") for d in dirs)


def check_rng_outside_common(fi):
    if under(fi.rel, "src/common"):
        return
    for m in RNG_RE.finditer(fi.code):
        yield m.start(), (f"'{m.group(0)}' outside src/common; "
                          "use the seeded mwsj::Rng (common/random.h)")


def check_stdout_in_library(fi):
    if not under(fi.rel, "src"):
        return
    for m in STDOUT_RE.finditer(fi.code):
        yield m.start(), (f"'{m.group(0).strip()}' in library code; return a "
                          "Status or report via stats/trace (stdout is "
                          "reserved for tools/)")


def check_unordered_emit(fi):
    code = fi.code
    names = {m.group(1) for m in UNORDERED_DECL_RE.finditer(code)}
    for m in RANGE_FOR_RE.finditer(code):
        if m.group(1) not in names:
            continue
        # The loop body: a braced block, or one statement up to its `;`.
        start = len(code) - len(code[m.end():].lstrip())
        end = (match_brace(code, start) if code.startswith("{", start)
               else code.find(";", start))
        if EMIT_CALL_RE.search(code, start, end + 1):
            yield m.start(), (f"iteration over unordered container "
                              f"'{m.group(1)}' feeds an Emit path; unordered "
                              "iteration order is nondeterministic — sort "
                              "before emitting")


def check_hot_path_std_function(fi):
    if not (under(fi.rel, "src/simd") or
            re.search(r"\bMWSJ_ALLOC_FREE\b", fi.code)):
        return
    for m in STD_FUNCTION_RE.finditer(fi.code):
        yield m.start(), ("std::function in a hot-path file (src/simd/ or "
                          "MWSJ_ALLOC_FREE annotations); use a template "
                          "parameter or function pointer")


def check_trace_span_temporary(fi):
    for m in TRACE_SPAN_RE.finditer(fi.code):
        args = m.group(2)
        if not args.strip() or DECL_ARG_RE.match(args):
            continue
        yield m.start(1), ("TraceSpan constructed as a temporary dies at the "
                           "end of the statement (zero-length span); bind it "
                           "to a named local")


def check_spill_unbounded(fi):
    if not SPILL_BUDGETED_RE.search(fi.raw):
        return
    reserved = {m.group(1) for m in RESERVE_RE.finditer(fi.code)}
    for m in GROW_RE.finditer(fi.code):
        if m.group(1) not in reserved:
            yield m.start(), (f"'{m.group(0).strip()}...' grows "
                              f"'{m.group(1)}' with no reserve() in a file "
                              "marked 'mwsj-check: spill-budgeted'; bound the "
                              "allocation (reserve) or justify with "
                              "allow(spill-unbounded)")


def check_engine_run_outside_scheduler(fi):
    if under(fi.rel, "src/core", "src/queries", "src/mapreduce") or \
            not ENGINE_INCLUDE_RE.search(fi.raw):
        return
    for m in RUN_CALL_RE.finditer(fi.code):
        yield m.start(), ("direct MapReduceJob::Run call outside the "
                          "scheduler core; submit through "
                          "JobScheduler::Submit (core/scheduler.h) or the "
                          "blocking RunSpatialJoin")


TEXT_RULES = {
    "rng-outside-common": check_rng_outside_common,
    "stdout-in-library": check_stdout_in_library,
    "unordered-emit": check_unordered_emit,
    "hot-path-std-function": check_hot_path_std_function,
    "trace-span-temporary": check_trace_span_temporary,
    "spill-unbounded": check_spill_unbounded,
    "engine-run-outside-scheduler": check_engine_run_outside_scheduler,
}


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    rel: str
    line: int
    rule: str
    message: str
    fn: str  # enclosing/root function for baseline matching


class Analyzer:
    def __init__(self, result: ParseResult, disabled: set):
        self.r = result
        self.disabled = disabled
        self.by_qual = {}
        self.by_cls_simple = {}
        self.by_simple = {}
        self.findings = list(result.findings)
        self._acquires_memo = {}

    # -- registry -----------------------------------------------------------

    def build(self):
        defined = set()
        for fn in self.r.functions:
            defined.add((fn.cls, fn.simple))
            extra = self.r.decl_annotations.get((fn.cls, fn.simple))
            if extra:
                fn.annotations.update(extra[0])
            if not fn.cls:
                extra = self.r.decl_annotations.get(("", fn.simple))
                if extra:
                    fn.annotations.update(extra[0])
        # Annotated declarations with no definition in the scanned set
        # (header-declared externs) still participate as leaf nodes so e.g.
        # blocking-reach sees calls into them.
        for (cls, simple), (annos, rel, line) in \
                self.r.decl_annotations.items():
            if (cls, simple) in defined:
                continue
            qual = f"{cls}::{simple}" if cls else simple
            self.r.functions.append(FunctionInfo(
                qual=qual, simple=simple, cls=cls, rel=rel, line=line,
                offset=0, text="", annotations=set(annos)))
        for fn in self.r.functions:
            self.by_qual.setdefault(fn.qual, []).append(fn)
            self.by_cls_simple.setdefault((fn.cls, fn.simple),
                                          []).append(fn)
            self.by_simple.setdefault(fn.simple, []).append(fn)
        for fn in self.r.functions:
            fi = self.r.files[fn.rel]
            in_common = fn.rel.replace(os.sep, "/").startswith("src/common")
            scan_features(fn, fi, in_common)
        self.mutex_owners = {}
        self.mutex_pairs = set()
        self.field_types = {}    # member name -> set of simple type names
        atomic_members = {}      # class -> names of its std::atomic fields
        for cls, member, typ in self.r.fields:
            self.field_types.setdefault(member, set()).add(typ)
            if typ == "Mutex":
                self.mutex_pairs.add((cls, member))
                self.mutex_owners.setdefault(member, set()).add(cls)
            if typ == "atomic":
                atomic_members.setdefault(cls, set()).add(member)
        file_atomics = {
            rel: {m.group(1) for m in ATOMIC_DECL_RE.finditer(fi.code)}
            for rel, fi in self.r.files.items()}
        for fn in self.r.functions:
            if fn.text:
                scan_atomic_rmw(fn, self.r.files[fn.rel],
                                file_atomics[fn.rel] |
                                atomic_members.get(fn.cls, set()))

    def receiver_types(self, receiver: str, caller: FunctionInfo):
        """Candidate type names for `recv.method(...)`: a local/param
        declaration in the caller wins, then the field registry."""
        m = re.search(rf"\b([A-Za-z_][\w:]*)(?:\s*<[^;>]*>)?\s*"
                      rf"[*&]?\s+{re.escape(receiver)}\s*[;({{=,)]",
                      caller.text)
        if m:
            typ = m.group(1).split("::")[-1]
            if typ not in ("return", "auto", "const"):
                return {typ}
        return self.field_types.get(receiver, set())

    def resolve(self, name: str, caller: FunctionInfo, receiver: str = ""):
        simple = name.split("::")[-1]
        if "::" in name:
            cls = name.split("::")[-2]
            hits = self.by_cls_simple.get((cls, simple))
            if hits:
                return hits
            return self.by_simple.get(simple, [])
        if receiver and receiver != "this":
            types = self.receiver_types(receiver, caller)
            if types:
                hits = []
                for t in types:
                    hits.extend(self.by_cls_simple.get((t, simple), []))
                # A typed receiver that resolves to nothing is an external
                # type (std::vector, ...): do NOT fall through to the
                # name-only tiers, they would guess wrong.
                return hits
        if caller.cls:
            hits = self.by_cls_simple.get((caller.cls, simple))
            if hits:
                return hits
        same_file = [f for f in self.by_simple.get(simple, [])
                     if f.rel == caller.rel]
        if same_file:
            return same_file
        return self.by_simple.get(simple, [])

    # -- reachability -------------------------------------------------------

    def reachable(self, root: FunctionInfo, stop_blocking_ok=False):
        """BFS over resolved calls. Yields (fn, path, entry_line) where
        path is the qual-name chain from root and entry_line the call-site
        line in the *caller* that entered fn."""
        seen = {id(root)}
        queue = [(root, [root.qual], root.line)]
        while queue:
            fn, path, entry = queue.pop(0)
            yield fn, path, entry
            if len(path) > 24:
                continue
            for name, line, _off, receiver in fn.calls:
                for callee in self.resolve(name, fn, receiver):
                    if id(callee) in seen:
                        continue
                    if stop_blocking_ok and \
                            "blocking_ok" in callee.annotations:
                        # The barrier itself still gets reported-on if it
                        # is *also* MWSJ_BLOCKING — but we do not descend.
                        seen.add(id(callee))
                        continue
                    seen.add(id(callee))
                    queue.append((callee, path + [callee.qual], line))

    def allowed(self, rel: str, line: int, rule: str) -> bool:
        fi = self.r.files[rel]
        allows = fi.allows
        for ln in (line, line - 1):
            if rule in allows.get(ln, ()):
                return True
        # A multi-line justification puts the allow(...) head several lines
        # up; honor it across the contiguous //-comment block directly above
        # the finding line.
        lines = fi.raw.split("\n")
        ln = line - 1
        while 1 <= ln <= len(lines) and lines[ln - 1].lstrip().startswith("//"):
            if rule in allows.get(ln, ()):
                return True
            ln -= 1
        return False

    def add(self, rel, line, rule, message, fn_qual):
        if rule in self.disabled:
            return
        if rule != "bad-suppression" and self.allowed(rel, line, rule):
            return
        self.findings.append(Finding(rel, line, rule, message, fn_qual))

    # -- rules --------------------------------------------------------------

    def run(self):
        self.rule_alloc_free_reach()
        self.rule_emit_determinism()
        self.rule_blocking_reach()
        self.rule_hot_shared_rmw()
        self.rule_lock_order()
        self.rule_textual()
        # Dedup identical findings (templates parsed in many TUs, multiple
        # roots reaching one site, ...): keep the first per (rel,line,rule).
        seen = set()
        out = []
        for f in sorted(self.findings,
                        key=lambda f: (f.rel, f.line, f.rule, f.message)):
            key = (f.rel, f.line, f.rule)
            if key in seen:
                continue
            seen.add(key)
            out.append(f)
        self.findings = out
        return self.findings

    def report_reachable_sites(self, effect, macro, sites, rule):
        """Reports every `sites` entry (a FunctionInfo list attribute) of
        each function reachable from a root annotated with `effect`."""
        roots = [f for f in self.r.functions if effect in f.annotations]
        for root in roots:
            for fn, path, _entry in self.reachable(root):
                for line, what in getattr(fn, sites):
                    via = "" if fn is root else \
                        f" via {' -> '.join(path)}"
                    self.add(fn.rel, line, rule,
                             f"{what} reachable from {macro} "
                             f"'{root.qual}'{via}", fn.qual)

    def rule_alloc_free_reach(self):
        self.report_reachable_sites("alloc_free", "MWSJ_ALLOC_FREE",
                                    "alloc_sites", "alloc-free-reach")

    def rule_emit_determinism(self):
        self.report_reachable_sites("deterministic", "MWSJ_DETERMINISTIC",
                                    "nondet_sites", "emit-determinism")

    def rule_hot_shared_rmw(self):
        self.report_reachable_sites("alloc_free", "MWSJ_ALLOC_FREE",
                                    "rmw_sites", "hot-shared-rmw")

    def rule_blocking_reach(self):
        roots = [f for f in self.r.functions
                 if ("alloc_free" in f.annotations or
                     "deterministic" in f.annotations)]
        for root in roots:
            for fn, path, entry in self.reachable(root,
                                                  stop_blocking_ok=True):
                if fn is root:
                    for line, what in fn.blocking_sites:
                        self.add(fn.rel, line, "blocking-reach",
                                 f"{what} inside non-blocking '{root.qual}'",
                                 fn.qual)
                    continue
                if "blocking" in fn.annotations:
                    self.add(fn.rel, entry, "blocking-reach",
                             f"MWSJ_BLOCKING '{fn.qual}' reachable from "
                             f"'{root.qual}' via {' -> '.join(path)} "
                             "without an MWSJ_BLOCKING_OK barrier", fn.qual)
                for line, what in fn.blocking_sites:
                    self.add(fn.rel, line, "blocking-reach",
                             f"{what} reachable from non-blocking "
                             f"'{root.qual}' via {' -> '.join(path)}",
                             fn.qual)

    def rule_textual(self):
        for rel, fi in sorted(self.r.files.items()):
            for rule, check in TEXT_RULES.items():
                for offset, message in check(fi):
                    self.add(rel, fi.linemap.line(offset), rule, message, "")

    # -- lock order ---------------------------------------------------------

    def lock_identity(self, expr: str, fn: FunctionInfo) -> str:
        expr = expr.replace("this->", "").strip()
        member = re.split(r"->|\.", expr)[-1].strip("&* \t")
        if expr == member and fn.cls and (fn.cls, member) in self.mutex_pairs:
            return f"{fn.cls}::{member}"
        owners = self.mutex_owners.get(member, set())
        if len(owners) == 1:
            owner = next(iter(owners))
            return f"{owner}::{member}" if owner else member
        if fn.cls and (fn.cls, member) in self.mutex_pairs:
            return f"{fn.cls}::{member}"
        return expr

    def acquires(self, fn: FunctionInfo, stack=None) -> set:
        if id(fn) in self._acquires_memo:
            return self._acquires_memo[id(fn)]
        stack = stack or set()
        if id(fn) in stack:
            return set()
        stack = stack | {id(fn)}
        out = set()
        for ev in fn.lock_events:
            if ev[0] == "lock":
                out.add(self.lock_identity(ev[3], fn))
            elif ev[0] == "call":
                for callee in self.resolve(ev[3], fn, ev[4]):
                    out |= self.acquires(callee, stack)
        self._acquires_memo[id(fn)] = out
        return out

    def rule_lock_order(self):
        edges = {}  # (a, b) -> (rel, line, desc)
        for fn in self.r.functions:
            depth = 0
            active = []  # (identity, depth, line)
            for ev in fn.lock_events:
                kind = ev[0]
                if kind == "open":
                    depth += 1
                elif kind == "close":
                    depth -= 1
                    active = [l for l in active if l[1] <= depth]
                elif kind == "lock":
                    ident = self.lock_identity(ev[3], fn)
                    for held, _d, _l in active:
                        if held != ident:
                            edges.setdefault(
                                (held, ident),
                                (fn.rel, ev[2],
                                 f"'{fn.qual}' acquires {ident} while "
                                 f"holding {held}"))
                    active.append((ident, depth, ev[2]))
                elif kind == "call":
                    if not active:
                        continue
                    for callee in self.resolve(ev[3], fn, ev[4]):
                        for acq in self.acquires(callee):
                            for held, _d, _l in active:
                                if held != acq:
                                    edges.setdefault(
                                        (held, acq),
                                        (fn.rel, ev[2],
                                         f"'{fn.qual}' holds {held} across "
                                         f"a call to '{callee.qual}' which "
                                         f"acquires {acq}"))
        # Cycle detection via SCC (Tarjan, iterative enough at this size).
        adj = {}
        for (a, b) in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set())
        sccs = tarjan_sccs(adj)
        for scc in sccs:
            if len(scc) < 2:
                continue
            scc_set = set(scc)
            cyc_edges = [(pair, info) for pair, info in edges.items()
                         if pair[0] in scc_set and pair[1] in scc_set]
            cyc_edges.sort(key=lambda e: (e[1][0], e[1][1]))
            rel, line, _ = cyc_edges[0][1]
            detail = "; ".join(info[2] for _pair, info in cyc_edges)
            self.add(rel, line, "lock-order",
                     f"lock-order cycle among {{{', '.join(sorted(scc))}}}: "
                     f"{detail}", "")


def tarjan_sccs(adj):
    index_counter = [0]
    stack, lowlinks, index, on_stack = [], {}, {}, {}
    sccs = []

    def strongconnect(v):
        work = [(v, iter(sorted(adj.get(v, ()))))]
        index[v] = lowlinks[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack[v] = True
        call_order = [v]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlinks[w] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adj.get(w, ())))))
                    call_order.append(w)
                    advanced = True
                    break
                elif on_stack.get(w):
                    lowlinks[node] = min(lowlinks[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(sorted(scc))

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)
    return sccs


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def load_baseline(path: pathlib.Path):
    entries = []
    for i, line in enumerate(path.read_text().splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split("|")
        if len(parts) != 4 or not parts[3].strip():
            raise SystemExit(
                f"mwsj_check: {path}:{i}: baseline entries are "
                "'rule|path|function|justification' with a non-empty "
                "justification")
        entries.append((parts[0].strip(), parts[1].strip(),
                        parts[2].strip(), i))
    return entries


def apply_baseline(findings, entries, baseline_path):
    kept = []
    used = set()
    for f in findings:
        matched = None
        for rule, rel, fn, lineno in entries:
            if f.rule == rule and f.rel == rel and (fn == "*" or f.fn == fn):
                matched = lineno
                break
        if matched is None:
            kept.append(f)
        else:
            used.add(matched)
    for rule, rel, fn, lineno in entries:
        if lineno not in used:
            kept.append(Finding(
                str(baseline_path), lineno, "stale-baseline",
                f"baseline entry '{rule}|{rel}|{fn}' matches no finding — "
                "remove it", fn))
    return kept


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(paths, root: pathlib.Path):
    exts = {".h", ".hpp", ".cc", ".cpp", ".cxx"}
    out = {}
    for p in paths:
        path = pathlib.Path(p)
        if not path.is_absolute():
            path = (root / p).resolve()
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(x for x in path.rglob("*")
                           if x.suffix in exts and "build" not in x.parts)
        else:
            raise SystemExit(f"mwsj_check: no such path: {p}")
        for f in files:
            try:
                rel = str(f.resolve().relative_to(root))
            except ValueError:
                rel = str(f)
            out[rel] = f
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mwsj_check.py",
        description="call-graph-aware invariant analyzer (see module doc)")
    ap.add_argument("paths", nargs="*", help="files or directories to check")
    ap.add_argument("--root", default=str(REPO_ROOT),
                    help="tree root for relative paths (default: repo root)")
    ap.add_argument("--frontend", choices=["auto", "libclang", "textual"],
                    default="auto")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json (or its directory) for the "
                         "libclang frontend")
    ap.add_argument("--baseline", default=None,
                    help="justified-baseline file; stale entries fail")
    ap.add_argument("--disable", action="append", default=[],
                    metavar="RULE", help="disable a rule (repeatable)")
    ap.add_argument("--report", default=None,
                    help="also write findings to this file (CI artifact)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}: {desc}")
        return 0
    if not args.paths:
        ap.print_usage(sys.stderr)
        print("mwsj_check: error: no paths given", file=sys.stderr)
        return 2
    for rule in args.disable:
        if rule not in RULES:
            print(f"mwsj_check: error: unknown rule '{rule}'",
                  file=sys.stderr)
            return 2

    root = pathlib.Path(args.root).resolve()
    try:
        wanted = collect_files(args.paths, root)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    result = ParseResult()
    frontend_used = "textual"
    cindex = None
    if args.frontend in ("auto", "libclang"):
        cindex = load_cindex()
        if cindex is None and args.frontend == "libclang":
            print("mwsj_check: error: --frontend=libclang but python "
                  "clang bindings / libclang.so are unavailable",
                  file=sys.stderr)
            return 2
    if cindex is not None and args.compdb:
        compdb = pathlib.Path(args.compdb)
        if not compdb.is_absolute():
            compdb = (root / compdb).resolve()
        if not compdb.exists():
            print(f"mwsj_check: error: compdb not found: {compdb}",
                  file=sys.stderr)
            return 2
        fe = LibclangFrontend(cindex, result, root)
        parsed = fe.parse_compdb(compdb, wanted)
        if parsed == 0:
            print("mwsj_check: warning: compilation database named no "
                  "parsable TU; falling back to the textual frontend",
                  file=sys.stderr)
        else:
            frontend_used = "libclang"
        # Headers (or files outside the compdb) that carry annotations but
        # were not reached by any TU still get parsed textually below.
    if frontend_used != "libclang":
        if args.frontend == "libclang":
            # libclang loaded but no compdb to drive it.
            if not args.compdb:
                print("mwsj_check: error: --frontend=libclang requires "
                      "--compdb", file=sys.stderr)
                return 2
        tf = TextualFrontend(result)
        for rel, path in sorted(wanted.items()):
            tf.parse_file(rel, path.read_text(errors="replace"))
    else:
        # Fill in any wanted file no TU visited (annotation-only headers).
        tf = TextualFrontend(result)
        for rel, path in sorted(wanted.items()):
            if rel not in result.files:
                tf.parse_file(rel, path.read_text(errors="replace"))

    analyzer = Analyzer(result, set(args.disable))
    analyzer.build()
    findings = analyzer.run()

    if args.baseline:
        bp = pathlib.Path(args.baseline)
        if not bp.is_absolute():
            bp = (root / args.baseline).resolve()
        if bp.exists():
            findings = apply_baseline(findings, load_baseline(bp), bp)
        elif pathlib.Path(args.baseline).name:
            print(f"mwsj_check: warning: baseline {bp} not found; "
                  "treating as empty", file=sys.stderr)

    lines = [f"{f.rel}:{f.line}: [{f.rule}] {f.message}" for f in findings]
    for line in lines:
        print(line)
    summary = (f"mwsj_check[{frontend_used}]: {len(findings)} finding(s) "
               f"over {len(result.files)} file(s), "
               f"{len(result.functions)} function(s)")
    print(summary, file=sys.stderr)
    if args.report:
        rp = pathlib.Path(args.report)
        rp.parent.mkdir(parents=True, exist_ok=True)
        rp.write_text("\n".join(lines + [summary]) + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
