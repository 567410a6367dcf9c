#!/usr/bin/env python3
"""dcape-lint — project-specific determinism/protocol linter for DCAPE.

Encodes invariants no generic tool knows about this codebase:

  wall-clock          No wall-clock time, std::random_device, or libc
                      rand() outside src/sim and tools. The engine runs
                      on a virtual clock and seeded splitmix64 streams;
                      one wall-clock read makes replay non-bit-identical.
  unordered-net       No iteration over std::unordered_map/set, or over
                      the join state's open-addressed JoinKeyIndex, in
                      any function that (transitively) reaches
                      Network::Send or serialization. Hash (slot) order
                      depends on the hash and on insertion history, so
                      it leaks nondeterminism into message and blob
                      bytes.
  ptr-key-ordered     No std::map/std::set keyed on a pointer. Address
                      order changes run to run, so iteration order —
                      and everything derived from it — is random.
  phase-switch        Every `switch` over a relocation-protocol phase
                      enum needs a `default:` arm containing DCAPE_CHECK
                      (protocol-state corruption must abort, not fall
                      through), unless the switch carries a TODO.
  statusor-unchecked  A local StatusOr must be checked (.ok() /
                      .status()) before it is dereferenced with *, ->,
                      or .value().
  trace-name          Every tracer Emit*/BeginSpan/EndSpan and registry
                      AddCounter/AddGauge/AddHistogram call must name
                      its event/metric with a registered taxonomy
                      constant (obs::ev::k* / obs::m::k*, see
                      src/obs/taxonomy.h) — never a string literal or a
                      built-up string. Stable name identities are what
                      make traces diffable and schema-checkable.

Whole-program checks (run over every file at once; in CI the per-file
"export" phase is cached and a "link" phase joins the facts):

  cross-tu-taint      The unordered-net taint, but following the call
                      graph across translation units: an unordered
                      iteration in a.cc that reaches Network::Send only
                      through a function defined in b.cc. unordered-net
                      keeps the per-TU half; this check owns exactly the
                      paths that cross a file boundary.
  lock-order          Global lock-acquisition graph from the annotated
                      Mutex/MutexLock vocabulary (common/mutex.h):
                      cycles are potential deadlocks; calls into a
                      function EXCLUDES(m) while holding m; and
                      DCAPE_HOT_PATH functions must not acquire any
                      mutex, heap-allocate, or call (transitively) into
                      lock-acquiring code. DCAPE_REALTIME functions must
                      not reach an unbounded CondVar::Wait.
  atomic-order        Memory-order audit for src/rt/: no bare
                      load()/store() (silent seq_cst), every
                      store-release paired with a load-acquire of the
                      same field somewhere, relaxed loads only in
                      functions that also write the field (single-writer
                      fast paths), relaxed stores only next to a
                      stronger store of the same field.
  protocol-conformance The 8-step relocation protocol against the
                      machine-readable spec tools/protocol_spec.json:
                      coordinator Phase enum and MessageType enum
                      round-trip with the spec, OnMessage handler
                      coverage per role, GuardProtocol expected phases,
                      phase-field transitions, and which role may send
                      which message. --emit-protocol-dot renders the
                      spec as Graphviz (docs/relocation_protocol.dot).

Usage:
  dcape_lint.py [--root=DIR] [--check=NAME[,NAME...]] [--list]
                [--selftest] [--compile-commands=PATH]
                [--phase=export --facts-out=FILE]
                [--phase=link --facts=FILE[,FILE...]]
                [--baseline=FILE | --no-baseline] [--write-baseline]
                [--protocol-spec=FILE] [--emit-protocol-dot=FILE]
                [--check-protocol-dot=FILE] [files...]

The export phase writes per-file facts (call graph, lock events,
atomic ops, protocol sites) as JSON; the link phase joins fact files
and runs only the whole-program checks. The default mode does both in
one process. tools/lint_baseline.json records intentionally-deferred
findings: they are reported as "baselined" and do not fail the run,
but stay visible (never silenced).

Suppression: append `// dcape-lint: allow(<check>)` to the offending
line or the line directly above it. Suppressions are greppable — every
intentional exception stays visible. A lock-order cycle is suppressed
when any of its participating acquisition sites carries the allow.

Sources are read by a built-in lexer (comment/string-stripping, brace
matching, declaration regexes) that encodes the repo's house style; it
needs nothing beyond the Python standard library. Exit status: 0 clean,
1 findings, 2 bad flags — mirroring dcape_chaos.
"""

import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


class Function:
    """One function definition: qualified name, body text, call sites."""

    def __init__(self, name, qualname, file, line, body):
        self.name = name          # unqualified (Send, Serialize, ...)
        self.qualname = qualname  # Class::Send or Send
        self.file = file
        self.line = line          # 1-based line of the body's first line
        self.body = body          # body text, comments/strings blanked
        self.calls = set()        # unqualified callee names

    def __repr__(self):
        return f"<fn {self.qualname} {self.file}:{self.line}>"


class SourceFile:
    """A lexed translation unit: cleaned text plus extracted facts."""

    def __init__(self, path, raw):
        self.path = path
        self.raw = raw
        self.lines = raw.split("\n")
        self.clean = blank_comments_and_strings(raw)
        self.clean_lines = self.clean.split("\n")
        self.functions = []
        self.unordered_idents = set()   # identifiers with unordered_* type
        self.unordered_returners = set()  # functions returning unordered_*

    def line_of_offset(self, offset):
        return self.clean.count("\n", 0, offset) + 1


_ALLOW_RE = re.compile(r"//\s*dcape-lint:\s*allow\(([a-z0-9_,\s-]+)\)")


def suppressed(source, line, check):
    """True if `line` (1-based) or the line above carries allow(check)."""
    for candidate in (line, line - 1):
        if 1 <= candidate <= len(source.lines):
            m = _ALLOW_RE.search(source.lines[candidate - 1])
            if m and check in [c.strip() for c in m.group(1).split(",")]:
                return True
    return False


def blank_comments_and_strings(text):
    """Replaces comment/string/char contents with spaces, preserving
    newlines and the `// dcape-lint:` suppression comments' positions
    (suppressions are read from the raw text, not the cleaned one)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == '"':
            # Raw strings R"delim( ... )delim" need their own scan.
            if i >= 1 and text[i - 1] == "R":
                m = re.match(r'"([^(\s]*)\(', text[i:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    j = text.find(closer, i)
                    j = n - len(closer) if j == -1 else j
                    chunk = text[i:j + len(closer)]
                    out.append("".join(
                        ch if ch == "\n" else " " for ch in chunk))
                    i = j + len(closer)
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('"' + " " * (j - i - 1) + '"')
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("'" + " " * (j - i - 1) + "'")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# A function definition header: optional template/attrs consumed
# implicitly by requiring a return-ish token before the name. Matches
# `Ret Ns::Class::Name(...) ... {` and free `Ret Name(...) {`.
_FUNC_RE = re.compile(
    r"""(?:^|\n)
        [ \t]*
        (?P<head>[A-Za-z_][\w:<>,&*\s\[\]]*?)          # return type ish
        [&*\s]
        (?P<qual>(?:[A-Za-z_]\w*::)*)                  # Class:: chain
        (?P<name>~?[A-Za-z_]\w*|operator[^\s(]{1,3})   # name
        \s*\((?P<params>[^;{}]*?)\)
        (?P<trail>[^;{}()]*)                           # const/noexcept/attrs
        \{""",
    re.VERBOSE,
)

_KEYWORD_NAMES = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "new", "delete", "case", "default", "static_assert",
    "alignof", "decltype", "defined",
}

_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def match_brace(text, open_idx):
    """Index just past the `}` matching the `{` at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def lex_functions(source):
    """Extracts function definitions with the fallback lexer."""
    text = source.clean
    for m in _FUNC_RE.finditer(text):
        name = m.group("name")
        if name in _KEYWORD_NAMES:
            continue
        head = m.group("head").strip()
        # Reject control-flow masquerading as definitions and decls
        # inside expressions (heads ending in operators).
        if head.split()[-1:] and head.split()[-1] in _KEYWORD_NAMES:
            continue
        open_idx = m.end() - 1
        close_idx = match_brace(text, open_idx)
        body = text[open_idx:close_idx]
        qual = (m.group("qual") or "")
        fn = Function(
            name=name,
            qualname=qual + name,
            file=source.path,
            line=source.line_of_offset(m.start("name")),
            body=body,
        )
        for call in _CALL_RE.finditer(body):
            callee = call.group(1)
            if callee not in _KEYWORD_NAMES:
                fn.calls.add(callee)
        source.functions.append(fn)


# Hash-ordered containers: the standard unordered ones and the join
# state's open-addressed key index (src/state/key_index.h), whose
# iteration visits slots in hash order.
_UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b|\bJoinKeyIndex\b"
)
# `<type containing unordered_> name_{ = ... ;}` or `JoinKeyIndex name_`
# — member or local.
_UNORDERED_TYPE = r"(?:unordered_[^;{}()]*?>|\bJoinKeyIndex)"
_DECL_IDENT_RE = re.compile(
    _UNORDERED_TYPE + r"[&\s]+([A-Za-z_]\w*)\s*[;={(\[]"
)
# Aliases: `auto& x = <expr>` / `const auto& x = <expr>;`
_ALIAS_RE = re.compile(
    r"\bauto&?\s+([A-Za-z_]\w*)\s*=\s*([^;]+);"
)
# Function whose declared return type is a hash-ordered container.
_UNORDERED_RETURN_RE = re.compile(
    _UNORDERED_TYPE +
    r"&?\s*\n?\s*(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)


def collect_unordered_symbols(source):
    """Identifiers (members, locals, aliases) of unordered container
    type, plus names of functions returning unordered containers."""
    text = source.clean
    for m in _DECL_IDENT_RE.finditer(text):
        source.unordered_idents.add(m.group(1))
    for m in _UNORDERED_RETURN_RE.finditer(text):
        source.unordered_returners.add(m.group(1))
    # Aliases (`auto& t = tables_[i];`) are collected per function in
    # iterates_unordered — an alias in one function must not taint a
    # same-named local elsewhere in the file.


def alias_tainted(source, expr, extra=()):
    """Taint rule for `auto x = <expr>` aliases. When the initializer
    goes through function calls, the alias has whatever those functions
    return — `SortedBuckets(tables_[s])` yields a sorted vector, not the
    hash map it was built from — so only calls to known
    unordered-returning functions taint. A double subscript
    (`tables_[s][key]`) lands in the mapped value, not the map.
    Call-free single-subscript initializers (`tables_[s]`,
    `hub.per_engine_bytes_`) taint by identifier."""
    calls = re.findall(r"\b([A-Za-z_]\w*)\s*\(", expr)
    if calls:
        return any(c in source.unordered_returners or
                   c in GLOBAL_UNORDERED_RETURNERS for c in calls)
    if re.search(r"\]\s*\[", expr):
        return False
    return tainted_expr(source, expr, extra)


def function_alias_taint(source, fn):
    """Identifiers aliased to unordered containers within fn's body."""
    local = set()
    for _ in range(2):
        for m in _ALIAS_RE.finditer(fn.body):
            if alias_tainted(source, m.group(2), local):
                local.add(m.group(1))
    return local


def tainted_expr(source, expr, extra=()):
    """True when `expr` plausibly names/returns an unordered container."""
    for ident in re.findall(r"[A-Za-z_]\w*", expr):
        if ident in extra:
            return True
        if ident in source.unordered_idents:
            return True
        if ident in source.unordered_returners:
            return True
        if ident in GLOBAL_UNORDERED_RETURNERS:
            return True
        if ident in GLOBAL_UNORDERED_IDENTS:
            return True
    return False


# Populated across all files before checks run (TableForStream etc. are
# declared in headers but iterated in other TUs).
GLOBAL_UNORDERED_RETURNERS = set()
GLOBAL_UNORDERED_IDENTS = set()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Finding:
    def __init__(self, check, file, line, message):
        self.check = check
        self.file = file
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"


_WALLCLOCK_PATTERNS = [
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0|&)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bstd::this_thread::sleep_"), "sleep_for/sleep_until"),
]

# Paths (relative, '/'-separated) where wall-clock and OS randomness are
# legitimate: the chaos harness seeds from them, tools print wall
# durations, and src/rt/ IS the wall-clock plane (the realtime driver's
# whole job is steady-clock pacing and bounded waits). Everything else
# runs on the virtual clock.
_WALLCLOCK_EXEMPT = ("src/sim/", "src/rt/", "tools/")


def check_wall_clock(sources, relpath):
    findings = []
    for source in sources:
        rel = relpath(source.path)
        if rel.startswith(_WALLCLOCK_EXEMPT):
            continue
        for lineno, line in enumerate(source.clean_lines, 1):
            for pattern, label in _WALLCLOCK_PATTERNS:
                if pattern.search(line):
                    if suppressed(source, lineno, "wall-clock"):
                        continue
                    findings.append(Finding(
                        "wall-clock", rel, lineno,
                        f"{label} outside src/sim|tools: determinism "
                        "requires the virtual clock and seeded streams"))
    return findings


# Serialization sinks: functions that turn state into bytes. Reaching
# one of these (or Network::Send) from a hash-order iteration leaks the
# order into observable bytes.
_SINK_NAMES = {
    "Send", "Serialize", "EncodeTuple", "EncodeTupleBatch",
    "PutU8", "PutU32", "PutU64", "PutI32", "PutI64", "PutString",
    "PutVarint", "PutZigzag", "PutVString",
}

_RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*?):([^)]*)\)")
# Classic iterator loop: `for (auto it = x.begin(); ...`. A bare
# x.begin()/x.end() pair outside a for-header is NOT flagged — that is
# the sanctioned fix idiom (copy into a vector, then sort).
_ITER_FOR_RE = re.compile(
    r"\bfor\s*\([^;)]*=\s*([A-Za-z_][\w.\->\[\]]*)\s*\.\s*begin\s*\(")


def build_call_closure(functions):
    """Names (unqualified) of functions that transitively reach a sink."""
    by_name = {}
    for fn in functions:
        by_name.setdefault(fn.name, []).append(fn)
    reaching = set()
    changed = True
    while changed:
        changed = False
        for fn in functions:
            if fn.name in reaching:
                continue
            hit = any(c in _SINK_NAMES or c in reaching for c in fn.calls)
            if hit:
                reaching.add(fn.name)
                changed = True
    return reaching


def iterates_unordered(source, fn):
    """(line, expr) pairs where fn's body iterates an unordered
    container."""
    hits = []
    base_line = fn.line
    local = function_alias_taint(source, fn)
    for m in _RANGE_FOR_RE.finditer(fn.body):
        expr = m.group(2).strip()
        if _UNORDERED_DECL_RE.search(expr) or \
                tainted_expr(source, expr, local):
            line = base_line + fn.body.count("\n", 0, m.start())
            hits.append((line, expr))
    for m in _ITER_FOR_RE.finditer(fn.body):
        expr = m.group(1).strip()
        if tainted_expr(source, expr, local):
            line = base_line + fn.body.count("\n", 0, m.start())
            hits.append((line, expr + ".begin()"))
    return hits


def check_unordered_net(sources, relpath):
    # Per-TU closure only: taint that reaches a sink through a function
    # defined in ANOTHER file is owned by cross-tu-taint, so the two
    # checks partition the paths instead of double-reporting.
    findings = []
    for source in sources:
        reaching = build_call_closure(source.functions)
        for fn in source.functions:
            fn_is_sink = fn.name in _SINK_NAMES
            fn_reaches = fn.name in reaching or \
                any(c in _SINK_NAMES for c in fn.calls)
            if not (fn_is_sink or fn_reaches):
                continue
            for line, expr in iterates_unordered(source, fn):
                if suppressed(source, line, "unordered-net"):
                    continue
                findings.append(Finding(
                    "unordered-net", relpath(source.path), line,
                    f"{fn.qualname} iterates unordered container "
                    f"'{expr}' and reaches Network::Send/serialization: "
                    "hash order would leak into message/blob bytes "
                    "(sort into a vector first)"))
    return findings


_PTR_KEY_RE = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:<>\s]*?\*\s*[,>]"
)


def check_ptr_key_ordered(sources, relpath):
    findings = []
    for source in sources:
        for lineno, line in enumerate(source.clean_lines, 1):
            if _PTR_KEY_RE.search(line):
                if suppressed(source, lineno, "ptr-key-ordered"):
                    continue
                findings.append(Finding(
                    "ptr-key-ordered", relpath(source.path), lineno,
                    "ordered container keyed on a pointer: address order "
                    "differs run to run, so iteration order is "
                    "nondeterministic (key on a stable id instead)"))
    return findings


_SWITCH_RE = re.compile(r"\bswitch\s*\(")
_PHASE_COND_RE = re.compile(r"\b(?:Phase|phase)\b")
_TODO_RE = re.compile(r"\bTODO\b")
_DEFAULT_ARM_RE = re.compile(r"\bdefault\s*:")


def check_phase_switch(sources, relpath):
    findings = []
    for source in sources:
        text = source.clean
        for m in _SWITCH_RE.finditer(text):
            cond_open = text.find("(", m.start())
            cond_close = matching_paren(text, cond_open)
            cond = text[cond_open + 1:cond_close]
            if not _PHASE_COND_RE.search(cond):
                continue
            body_open = text.find("{", cond_close)
            if body_open == -1:
                continue
            body_close = match_brace(text, body_open)
            body = text[body_open:body_close]
            line = source.line_of_offset(m.start())
            raw_body = "\n".join(
                source.lines[line - 1:
                             source.line_of_offset(body_close)])
            if _TODO_RE.search(raw_body):
                continue  # explicitly marked unfinished
            default_ok = False
            dm = _DEFAULT_ARM_RE.search(body)
            if dm:
                arm = body[dm.end():dm.end() + 400]
                if "DCAPE_CHECK" in arm or "CheckFailed" in arm:
                    default_ok = True
            if default_ok:
                continue
            if suppressed(source, line, "phase-switch"):
                continue
            findings.append(Finding(
                "phase-switch", relpath(source.path), line,
                "switch over a protocol phase enum without a "
                "`default: DCAPE_CHECK(...)` arm: a corrupt phase value "
                "must abort, not fall through"))
    return findings


def matching_paren(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


_STATUSOR_DECL_RE = re.compile(
    r"\bStatusOr<[^;=]*?>\s+([A-Za-z_]\w*)\s*[=({]"
)


def check_statusor_unchecked(sources, relpath):
    findings = []
    for source in sources:
        for fn in source.functions:
            for m in _STATUSOR_DECL_RE.finditer(fn.body):
                var = m.group(1)
                rest = fn.body[m.end():]
                deref = re.search(
                    r"(?:\*\s*{v}\b|\b{v}\s*->|\b{v}\s*\.\s*value\s*\()"
                    .format(v=re.escape(var)), rest)
                if not deref:
                    continue
                checked = re.search(
                    r"\b{v}\s*\.\s*(?:ok|status)\s*\(".format(
                        v=re.escape(var)), rest[:deref.start()])
                if checked:
                    continue
                line = fn.line + fn.body.count("\n", 0, m.start())
                if suppressed(source, line, "statusor-unchecked"):
                    continue
                findings.append(Finding(
                    "statusor-unchecked", relpath(source.path), line,
                    f"StatusOr '{var}' is dereferenced before any "
                    ".ok()/.status() check: an error here aborts via "
                    "DCAPE_CHECK instead of propagating"))
    return findings


# Tracer / registry calls whose name argument (0-based position) must be
# a taxonomy constant. Emit(TraceEvent) builds the struct directly and is
# only used inside src/obs/, which is exempt (it forwards caller names).
_TRACE_NAME_ARG_POS = {
    "EmitInstant": 2,
    "EmitComplete": 2,
    "BeginSpan": 2,
    "EndSpan": 2,
    "EmitCounter": 2,
    "AddCounter": 0,
    "AddGauge": 0,
    "AddHistogram": 0,
}
_TRACE_CALL_RE = re.compile(
    r"\b(" + "|".join(_TRACE_NAME_ARG_POS) + r")\s*\("
)
_TRACE_NAME_OK_RE = re.compile(r"^\s*(?:obs::)?(?:ev|m)::k\w+\s*$")


def split_top_level_args(text):
    """Splits an argument list on commas at bracket depth 0."""
    args = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c in "({[":
            depth += 1
        elif c in ")}]":
            depth -= 1
        elif c == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return args


def check_trace_name(sources, relpath):
    findings = []
    for source in sources:
        rel = relpath(source.path)
        if rel.startswith("src/obs/"):
            continue  # the implementation layer forwards caller names
        text = source.clean
        for m in _TRACE_CALL_RE.finditer(text):
            callee = m.group(1)
            close = matching_paren(text, m.end() - 1)
            args = split_top_level_args(text[m.end():close])
            pos = _TRACE_NAME_ARG_POS[callee]
            if len(args) <= pos:
                continue  # a declaration or an unrelated overload
            name_arg = args[pos]
            if _TRACE_NAME_OK_RE.match(name_arg):
                continue
            # Declarations name the parameter's type, not a value.
            if re.search(r"\bconst\s+char\s*\*", name_arg):
                continue
            line = source.line_of_offset(m.start())
            if suppressed(source, line, "trace-name"):
                continue
            findings.append(Finding(
                "trace-name", rel, line,
                f"{callee} name argument '{name_arg.strip()}' is not a "
                "registered taxonomy constant (obs::ev::k*/obs::m::k*): "
                "add the name to src/obs/taxonomy.h and pass the "
                "constant"))
    return findings


CHECKS = {
    "wall-clock": check_wall_clock,
    "unordered-net": check_unordered_net,
    "ptr-key-ordered": check_ptr_key_ordered,
    "phase-switch": check_phase_switch,
    "statusor-unchecked": check_statusor_unchecked,
    "trace-name": check_trace_name,
}


# ---------------------------------------------------------------------------
# Whole-program analysis: per-file fact extraction (the "export" phase)
# ---------------------------------------------------------------------------
#
# Each file is lexed once into a JSON-serializable fact dict; the link
# phase joins the dicts and runs the cross-file checks. CI caches the
# export output keyed on compile_commands.json, so an incremental lint
# only re-extracts changed files.

FACTS_VERSION = 1

# `class CAPABILITY("mutex") Mutex {` / `class SCOPED_CAPABILITY X {` /
# plain `struct GroupStats {`. Post-filtered against `enum class`.
_CLASS_DECL_RE = re.compile(
    r"\b(?:class|struct)\s+"
    r"(?:[A-Za-z_]\w*\s*\([^()]*\)\s*|alignas\s*\([^()]*\)\s*|[A-Z_]+\s+)*"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;]*)?\{")
_ENUM_DECL_RE = re.compile(
    r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)\s*(?::[^{;(]*)?\{")
_MUTEX_MEMBER_RE = re.compile(r"(?:\bmutable\s+)?\bMutex\s+([A-Za-z_]\w*)\s*;")
_RAII_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(([^;()]*?)\)\s*;")
_MANUAL_LOCK_RE = re.compile(
    r"([A-Za-z_][\w.\->\[\]()*]*?)\s*(?:\.|->)\s*(Lock|Unlock|lock|unlock)"
    r"\s*\(\s*\)")
_EXCLUDES_RE = re.compile(r"\bEXCLUDES\s*\(([^()]*)\)")
_WAIT_CALL_RE = re.compile(r"(?:\.|->)\s*Wait\s*\(")
_HOT_ATTR_RE = re.compile(r"\bDCAPE_(HOT_PATH|REALTIME)\b")
_ALLOC_RES = [
    (re.compile(r"\bnew\s+[A-Za-z_(]"), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"(?<![\w.])(?:std::)?(?:m|c|re)alloc\s*\("),
     "malloc/calloc/realloc"),
]
# Callee names that are part of the locking vocabulary itself, not
# ordinary calls to chase through the acquisition closure.
_LOCK_VOCAB = {"Lock", "Unlock", "lock", "unlock", "TryLock", "Wait",
               "WaitFor", "NotifyOne", "NotifyAll", "MutexLock"}

_ATOMIC_DECL_RE = re.compile(r"\bstd::atomic\s*<")
_ATOMIC_OP_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*((?:\[[^][]*\])?)\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
_MEMORDER_RE = re.compile(r"\bmemory_order_(\w+)")
_RANGE_ALIAS_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto&\s+([A-Za-z_]\w*)\s*:\s*([^)]+)\)")

_CASE_RE = re.compile(r"\bcase\s+MessageType::(k\w+)")
_GUARD_RE = re.compile(r"\bGuardProtocol\s*\(")
_PHASE_ASSIGN_RE = re.compile(
    r"(?:\.|->)\s*phase\s*=(?!=)\s*(?:[A-Za-z_]\w*::)*Phase::(k\w+)")
_SEND_TYPE_RE = re.compile(r"\.\s*type\s*=(?!=)\s*MessageType::(k\w+)")
_MAKE_MSG_RE = re.compile(
    r"\bMake(TupleBatch|ResultBatch|StatsReport)Message\s*\(")
_MAKE_MSG_TYPE = {"TupleBatch": "kTupleBatch", "ResultBatch": "kResultBatch",
                  "StatsReport": "kStatsReport"}


def _class_blocks(source):
    """[(name, first_line, last_line)] for every class/struct body."""
    text = source.clean
    blocks = []
    for m in _CLASS_DECL_RE.finditer(text):
        before = text[max(0, m.start() - 8):m.start()]
        if re.search(r"\benum\s*$", before):
            continue  # `enum class X {` is an enum, not a class
        open_idx = text.index("{", m.start())
        close_idx = match_brace(text, open_idx)
        blocks.append((m.group(1), source.line_of_offset(m.start()),
                       source.line_of_offset(close_idx)))
    return blocks


def _innermost_class(blocks, line):
    """Name of the smallest class block containing `line`, or ''."""
    best, best_span = "", None
    for name, s, e in blocks:
        if s <= line <= e and (best_span is None or e - s < best_span):
            best, best_span = name, e - s
    return best


def _collect_allow_map(source):
    """{line: [check names]} for every suppression comment in the file,
    so suppressions survive into exported facts for the link phase."""
    allow = {}
    for lineno, line in enumerate(source.lines, 1):
        m = _ALLOW_RE.search(line)
        if m:
            allow[lineno] = [c.strip() for c in m.group(1).split(",")]
    return allow


def facts_suppressed(facts, line, check):
    """Link-phase twin of suppressed(): consults the exported allow map
    (JSON round-trips dict keys to strings)."""
    allow = facts.get("allow") or {}
    for cand in (line, line - 1):
        checks = allow.get(cand) or allow.get(str(cand))
        if checks and check in checks:
            return True
    return False


def _function_line_spans(source):
    """[(fn, first_line, last_line)] for innermost-function lookup."""
    spans = []
    for fn in source.functions:
        spans.append((fn, fn.line, fn.line + fn.body.count("\n")))
    return spans


def _enclosing_function(spans, line):
    best, best_span = None, None
    for fn, s, e in spans:
        if s <= line <= e and (best_span is None or e - s < best_span):
            best, best_span = fn, e - s
    return best


_LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\s*)?"
    r"(?:->\s*[\w:<>&*\s]+?)?\{")


def _lambda_ranges(body):
    """Brace ranges of lambda bodies. A lock taken inside a lambda runs
    when the callback fires (often on another thread), not in the
    enclosing function's call context — such events are 'deferred'."""
    ranges = []
    for m in _LAMBDA_RE.finditer(body):
        open_idx = body.index("{", m.start())
        ranges.append((open_idx, match_brace(body, open_idx)))
    return ranges


def _lock_events_for_fn(source, fn):
    """Lock-acquisition events in one function body: RAII MutexLock
    scopes and manually paired Lock()/Unlock() intervals. Each event is
    {expr, member, qual_type, line, span:(start,end) offsets into body}."""
    events = []
    body = fn.body
    lambdas = _lambda_ranges(body)
    for m in _RAII_LOCK_RE.finditer(body):
        # Scope: from the declaration to the end of the innermost
        # enclosing brace block.
        depth = 0
        end = len(body)
        for i in range(m.start(), -1, -1):
            if body[i] == "}":
                depth += 1
            elif body[i] == "{":
                if depth == 0:
                    end = match_brace(body, i)
                    break
                depth -= 1
        events.append(_make_lock_event(source, fn, m.group(1).strip(),
                                       m.start(), (m.end(), end)))
    # Manual Lock/Unlock pairing: positional intervals per expression.
    pending = {}
    for m in _MANUAL_LOCK_RE.finditer(body):
        expr, op = m.group(1).strip(), m.group(2)
        if op in ("Lock", "lock"):
            pending.setdefault(expr, []).append(m)
        else:
            starts = pending.get(expr)
            if starts:
                sm = starts.pop(0)
                events.append(_make_lock_event(
                    source, fn, expr, sm.start(), (sm.end(), m.start())))
    for expr, starts in pending.items():
        for sm in starts:  # unmatched Lock: held to end of body
            events.append(_make_lock_event(
                source, fn, expr, sm.start(), (sm.end(), len(body))))
    for ev in events:
        ev["deferred"] = any(s < ev["span"][0] < e for s, e in lambdas)
    events.sort(key=lambda e: e["span"][0])
    return events


def _make_lock_event(source, fn, expr, decl_off, span):
    idents = re.findall(r"[A-Za-z_]\w*", expr)
    member = idents[-1] if idents else expr
    qual_type = None
    if len(idents) > 1:
        qualifier = idents[0]
        tm = re.search(r"([A-Za-z_][\w:]*)\s*[&*]\s*" + re.escape(qualifier)
                       + r"\b", fn.body)
        if tm and tm.group(1) not in ("auto", "const"):
            qual_type = tm.group(1).split("::")[-1]
    return {"expr": expr, "member": member, "qual_type": qual_type,
            "line": fn.line + fn.body.count("\n", 0, decl_off),
            "span": span}


def _finish_lock_events(fn, events):
    """Fills inner_locks (indices of events starting inside this one's
    held region) and inner_calls (non-vocabulary callees invoked while
    held), then drops the offset span from the export."""
    for i, ev in enumerate(events):
        start, end = ev["span"]
        ev["inner_locks"] = [j for j, other in enumerate(events)
                             if j != i and start <= other["span"][0] < end]
        region = fn.body[start:end]
        calls, bare = set(), set()
        for m in _CALL_RE.finditer(region):
            name = m.group(1)
            if name in _KEYWORD_NAMES or name in _LOCK_VOCAB:
                continue
            calls.add(name)
            before = region[:m.start()].rstrip()
            if not (before.endswith(".") or before.endswith("->")):
                bare.add(name)  # implicit-this (or free-function) call
        ev["inner_calls"] = sorted(calls)
        ev["inner_bare_calls"] = sorted(bare)
    for ev in events:
        del ev["span"]
    return events


_ANNOTATION_MACROS = {"EXCLUDES", "REQUIRES", "ACQUIRE", "RELEASE",
                      "GUARDED_BY", "RETURN_CAPABILITY", "TRY_ACQUIRE",
                      "NO_THREAD_SAFETY_ANALYSIS", "ASSERT_CAPABILITY"}


def _func_name_before(text, pos):
    """The function whose parameter list immediately precedes `pos`:
    walks back over trailing qualifiers and earlier annotation macros to
    the `(...)` of the declarator, then names the identifier before it.
    This is what keeps `void Submit(std::function<Status()> f)` from
    being attributed to 'Status'."""
    i = pos - 1
    while True:
        while i >= 0 and text[i] in " \t\n":
            i -= 1
        qm = re.search(r"(?:const|noexcept|override|final)$", text[:i + 1])
        if qm:
            i = qm.start() - 1
            continue
        if i < 0 or text[i] != ")":
            return None
        depth = 0
        j = i
        while j >= 0:
            depth += 1 if text[j] == ")" else (-1 if text[j] == "(" else 0)
            if text[j] == "(" and depth == 0:
                break
            j -= 1
        nm = re.search(r"([A-Za-z_]\w*)\s*$", text[:j])
        if not nm:
            return None
        if nm.group(1) in _ANNOTATION_MACROS:
            i = nm.start() - 1  # a prior annotation; keep walking back
            continue
        return nm.group(1)


def _extract_excludes(source, blocks):
    """[(func_name, owner_class, member_expr)] from EXCLUDES(...)
    annotations on declarations or definitions."""
    out = []
    text = source.clean
    for m in _EXCLUDES_RE.finditer(text):
        func = _func_name_before(text, m.start())
        if not func or func in _KEYWORD_NAMES:
            continue
        owner = _innermost_class(blocks, source.line_of_offset(m.start()))
        for member in m.group(1).split(","):
            member = member.strip()
            if member:
                out.append([func, owner, member])
    return out


def _extract_hot_names(source):
    """Function names carrying DCAPE_HOT_PATH / DCAPE_REALTIME. The
    attribute macro precedes the declarator; scan forward for the first
    plausible function name."""
    hot, realtime = set(), set()
    text = source.clean
    for m in _HOT_ATTR_RE.finditer(text):
        line = source.lines[source.line_of_offset(m.start()) - 1]
        if line.lstrip().startswith("#"):
            continue  # the macro definition itself
        ahead = text[m.end():m.end() + 240]
        for cm in re.finditer(r"([A-Za-z_]\w*)\s*\(", ahead):
            name = cm.group(1)
            if (name in _KEYWORD_NAMES or name.startswith("__")
                    or name in ("annotate", "alignas")):
                continue
            (hot if m.group(1) == "HOT_PATH" else realtime).add(name)
            break
    return sorted(hot), sorted(realtime)


def _extract_atomics(source, spans):
    """Atomic declarations, aliases bound to atomics, and every atomic
    member-function call with its memory_order arguments."""
    text = source.clean
    decls, aliases, ops = [], [], []
    for m in _ATOMIC_DECL_RE.finditer(text):
        semi = text.find(";", m.start())
        if semi == -1:
            continue
        stmt = text[m.start():semi]
        # Truncate at initializer so `{0}` / `= x` don't hide the name.
        for cut in ("=", "{"):
            idx = stmt.find(cut, stmt.find(">") + 1 if ">" in stmt else 0)
            if idx != -1:
                stmt = stmt[:idx]
        nm = re.search(r">\s*(&)?\s*([A-Za-z_]\w*)\s*$", stmt)
        if not nm:
            continue  # e.g. make_unique<std::atomic<...>>(...) call site
        if nm.group(1):  # reference alias: std::atomic<T>& x = <init>
            init = text[m.start():semi]
            init = init.split("=", 1)[1] if "=" in init else ""
            aliases.append([nm.group(2), init.strip()])
        else:
            decls.append([nm.group(2), source.line_of_offset(m.start())])
    for m in _RANGE_ALIAS_RE.finditer(text):
        aliases.append([m.group(1), m.group(2).strip()])
    for m in _ATOMIC_OP_RE.finditer(text):
        open_idx = m.end() - 1
        close_idx = matching_paren(text, open_idx)
        orders = _MEMORDER_RE.findall(text[open_idx:close_idx + 1])
        line = source.line_of_offset(m.start())
        fn = _enclosing_function(spans, line)
        ops.append([m.group(1), m.group(3), sorted(set(orders)), line,
                    fn.name if fn else ""])
    return decls, aliases, ops


def _extract_protocol(source, blocks, spans):
    """Enums, OnMessage handler cases, GuardProtocol sites, phase-field
    assignments, and message sends — the protocol-conformance facts."""
    text = source.clean
    enums, handlers, guards, assigns, sends = [], [], [], [], []
    for m in _ENUM_DECL_RE.finditer(text):
        open_idx = text.index("{", m.start())
        close_idx = match_brace(text, open_idx)
        values = [[vm.group(1),
                   source.line_of_offset(open_idx + vm.start())]
                  for vm in re.finditer(r"\b(k\w+)\b",
                                        text[open_idx:close_idx])]
        owner = _innermost_class(blocks, source.line_of_offset(m.start()))
        enums.append([owner, m.group(1), values,
                      source.line_of_offset(m.start())])

    def owner_of(line):
        fn = _enclosing_function(spans, line)
        if fn is None:
            return "", None
        owner = fn.qualname.rsplit("::", 1)[0] if "::" in fn.qualname \
            else _innermost_class(blocks, fn.line)
        return owner, fn

    for fn, s, _e in _function_line_spans(source):
        if fn.name != "OnMessage":
            continue
        owner, _ = owner_of(s)
        cases = [[cm.group(1), fn.line + fn.body.count("\n", 0, cm.start())]
                 for cm in _CASE_RE.finditer(fn.body)]
        handlers.append([owner, cases, fn.line])

    def enclosing_case(fn, off):
        last = None
        for cm in _CASE_RE.finditer(fn.body):
            if cm.start() < off:
                last = cm.group(1)
            else:
                break
        return last

    for m in _GUARD_RE.finditer(text):
        line = source.line_of_offset(m.start())
        owner, fn = owner_of(line)
        close_idx = matching_paren(text, text.index("(", m.start()))
        pm = re.search(r"Phase::(k\w+)", text[m.start():close_idx + 1])
        if fn is None or pm is None:
            continue
        # Offset of the guard within fn.body:
        body_off = None
        fm = re.search(re.escape(text[m.start():m.start() + 40]), fn.body)
        if fm:
            body_off = fm.start()
        case = enclosing_case(fn, body_off) if body_off is not None else None
        guards.append([owner, case, pm.group(1), line])
    for m in _PHASE_ASSIGN_RE.finditer(text):
        line = source.line_of_offset(m.start())
        owner, fn = owner_of(line)
        if fn is None:
            continue
        fm = re.search(re.escape(text[m.start():m.start() + 40]), fn.body)
        case = enclosing_case(fn, fm.start()) if fm else None
        assigns.append([owner, case, m.group(1), line])
    for m in _SEND_TYPE_RE.finditer(text):
        line = source.line_of_offset(m.start())
        owner, _fn = owner_of(line)
        sends.append([owner, m.group(1), line])
    for m in _MAKE_MSG_RE.finditer(text):
        line = source.line_of_offset(m.start())
        owner, _fn = owner_of(line)
        sends.append([owner, _MAKE_MSG_TYPE[m.group(1)], line])
    return enums, handlers, guards, assigns, sends


def extract_facts(source, rel):
    """The complete per-file fact record for the link phase."""
    blocks = _class_blocks(source)
    spans = _function_line_spans(source)
    is_fixture = "lint_fixtures" in rel or "lint_fixtures" in \
        source.path.replace(os.sep, "/")
    hot, realtime = _extract_hot_names(source)
    mutexes = []
    if rel != "src/common/mutex.h":  # the vocabulary itself is exempt
        for m in _MUTEX_MEMBER_RE.finditer(source.clean):
            line = source.line_of_offset(m.start())
            mutexes.append([_innermost_class(blocks, line), m.group(1)])
    atomic_scope = rel.startswith("src/rt/") or is_fixture
    decls, aliases, ops = (_extract_atomics(source, spans)
                           if atomic_scope else ([], [], []))
    enums, handlers, guards, assigns, sends = _extract_protocol(
        source, blocks, spans)
    functions = []
    for fn in source.functions:
        allocs = []
        for pat, label in _ALLOC_RES:
            for am in pat.finditer(fn.body):
                allocs.append([fn.line + fn.body.count("\n", 0, am.start()),
                               label])
        events = (_finish_lock_events(fn, _lock_events_for_fn(source, fn))
                  if rel != "src/common/mutex.h" else [])
        owner_cls = fn.qualname.rsplit("::", 1)[0] if "::" in fn.qualname \
            else _innermost_class(blocks, fn.line)
        functions.append({
            "name": fn.name,
            "qual": fn.qualname,
            "owner": owner_cls,
            "line": fn.line,
            "calls": sorted(fn.calls),
            "iters": [[line, expr, kind]
                      for line, expr, kind in _iter_sites(source, fn)],
            "aliases": [[am.group(1), am.group(2).strip()]
                        for am in _ALIAS_RE.finditer(fn.body)],
            "has_wait": bool(_WAIT_CALL_RE.search(fn.body)),
            "allocs": allocs,
            "lock_events": events,
        })
    return {
        "file": rel,
        "allow": _collect_allow_map(source),
        "hot": hot,
        "realtime": realtime,
        "unordered_idents": sorted(source.unordered_idents),
        "unordered_returners": sorted(source.unordered_returners),
        "mutexes": mutexes,
        "excludes": _extract_excludes(source, blocks),
        "atomic_scope": atomic_scope,
        "atomic_decls": decls,
        "atomic_aliases": aliases,
        "atomic_ops": ops,
        "enums": enums,
        "handlers": handlers,
        "guards": guards,
        "assigns": assigns,
        "sends": sends,
        "functions": functions,
    }


def _iter_sites(source, fn):
    """(line, expr, kind) for every container iteration in fn — taint is
    evaluated at link time, so every range/iterator loop is exported."""
    sites = []
    for m in _RANGE_FOR_RE.finditer(fn.body):
        sites.append((fn.line + fn.body.count("\n", 0, m.start()),
                      m.group(2).strip(), "range"))
    for m in _ITER_FOR_RE.finditer(fn.body):
        sites.append((fn.line + fn.body.count("\n", 0, m.start()),
                      m.group(1).strip(), "iter"))
    return sites


# ---------------------------------------------------------------------------
# Whole-program analysis: link-phase checks
# ---------------------------------------------------------------------------


def _reach_closure(calls_by, sinks):
    """Names whose call graph transitively reaches a name in `sinks`."""
    reaching = set()
    changed = True
    while changed:
        changed = False
        for name, calls in calls_by.items():
            if name in reaching:
                continue
            if any(c in sinks or c in reaching for c in calls):
                reaching.add(name)
                changed = True
    return reaching


def _bfs_path(start, calls_by, sinks):
    """Shortest start -> ... -> sink call path, for finding messages."""
    from collections import deque
    prev = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for callee in sorted(calls_by.get(cur, ())):
            if callee in sinks:
                path = [callee]
                node = cur
                while node is not None:
                    path.append(node)
                    node = prev[node]
                return list(reversed(path))
            if callee not in prev and callee in calls_by:
                prev[callee] = cur
                queue.append(callee)
    return [start]


def _facts_tainted(facts, expr, extra, glob_idents, glob_rets):
    local_idents = set(facts.get("unordered_idents", ()))
    local_rets = set(facts.get("unordered_returners", ()))
    for ident in re.findall(r"[A-Za-z_]\w*", expr):
        if (ident in extra or ident in local_idents or ident in local_rets
                or ident in glob_idents or ident in glob_rets):
            return True
    return False


def _facts_alias_taint(facts, fn, glob_idents, glob_rets):
    """Per-function alias taint, mirroring function_alias_taint."""
    local = set()
    local_rets = set(facts.get("unordered_returners", ()))
    for _ in range(2):
        for name, init in fn.get("aliases", ()):
            calls = re.findall(r"\b([A-Za-z_]\w*)\s*\(", init)
            if calls:
                if any(c in local_rets or c in glob_rets for c in calls):
                    local.add(name)
                continue
            if re.search(r"\]\s*\[", init):
                continue
            if _facts_tainted(facts, init, local, glob_idents, glob_rets):
                local.add(name)
    return local


def wp_check_cross_tu_taint(facts_list, ctx):
    """Unordered-iteration-to-sink paths that cross a TU boundary."""
    glob_rets, glob_idents = set(), set()
    defs_file, calls_by = {}, {}
    for facts in facts_list:
        glob_rets.update(facts.get("unordered_returners", ()))
        glob_idents.update(i for i in facts.get("unordered_idents", ())
                           if i.endswith("_"))
        for fn in facts["functions"]:
            defs_file.setdefault(fn["name"], facts["file"])
            calls_by.setdefault(fn["name"], set()).update(fn["calls"])
    global_reach = _reach_closure(calls_by, _SINK_NAMES)
    findings = []
    for facts in facts_list:
        local_calls = {}
        for fn in facts["functions"]:
            local_calls.setdefault(fn["name"], set()).update(fn["calls"])
        local_reach = _reach_closure(local_calls, _SINK_NAMES)
        for fn in facts["functions"]:
            name = fn["name"]
            if name in _SINK_NAMES:
                continue
            if name not in global_reach or name in local_reach:
                continue  # either no sink path, or unordered-net owns it
            extra = _facts_alias_taint(facts, fn, glob_idents, glob_rets)
            for line, expr, kind in fn.get("iters", ()):
                hit = (_UNORDERED_DECL_RE.search(expr)
                       or _facts_tainted(facts, expr, extra, glob_idents,
                                         glob_rets)) if kind == "range" \
                    else _facts_tainted(facts, expr, extra, glob_idents,
                                        glob_rets)
                if not hit:
                    continue
                if facts_suppressed(facts, line, "cross-tu-taint"):
                    continue
                path = _bfs_path(name, calls_by, _SINK_NAMES)
                route = " -> ".join(
                    f"{n} ({defs_file[n]})" if n in defs_file else n
                    for n in path)
                findings.append(Finding(
                    "cross-tu-taint", facts["file"], line,
                    f"{fn['qual']} iterates unordered container '{expr}' "
                    f"and reaches a serialization sink across TU "
                    f"boundaries via {route}: hash order leaks into "
                    "bytes (sort into a vector first)"))
    return findings


def _resolve_lock(member, qual_type, owner, file, member_classes):
    classes = member_classes.get(member)
    if not classes:
        return f"{file}:{member}"
    if qual_type and qual_type in classes:
        return f"{qual_type}::{member}"
    if owner and owner in classes:
        return f"{owner}::{member}"
    if len(classes) == 1:
        return f"{next(iter(classes))}::{member}"
    return f"{file}:{member}"


def _lock_tables(facts_list):
    """member -> {owning classes}, plus per-function resolved events."""
    member_classes = {}
    for facts in facts_list:
        for cls, member in facts.get("mutexes", ()):
            member_classes.setdefault(member, set()).add(
                cls or facts["file"])
    per_fn = []  # (facts, fn, [resolved lock ids parallel to events])
    for facts in facts_list:
        for fn in facts["functions"]:
            events = fn.get("lock_events", ())
            if not events:
                continue
            owner = fn.get("owner") or ""
            ids = [_resolve_lock(ev["member"], ev.get("qual_type"), owner,
                                 facts["file"], member_classes)
                   for ev in events]
            per_fn.append((facts, fn, ids))
    return member_classes, per_fn


def wp_check_lock_order(facts_list, ctx):
    """Global lock-order cycles, EXCLUDES violations, and the hot-path /
    realtime rules hung off the same acquisition machinery."""
    member_classes, per_fn = _lock_tables(facts_list)
    calls_by = {}
    for facts in facts_list:
        for fn in facts["functions"]:
            calls_by.setdefault(fn["name"], set()).update(fn["calls"])
    # Per-DEFINITION direct locks (deferred lambda events excluded: the
    # callback runs later, not in the caller's context).
    direct_by_def = {}  # id(fn dict) -> set of lock ids
    defs_by_name = {}   # name -> [(fn, direct set, calls)]
    for facts, fn, ids in per_fn:
        direct_by_def[id(fn)] = {
            lock for ev, lock in zip(fn["lock_events"], ids)
            if not ev.get("deferred")}
    for facts in facts_list:
        for fn in facts["functions"]:
            defs_by_name.setdefault(fn["name"], []).append(
                (fn, direct_by_def.get(id(fn), set()),
                 [c for c in fn["calls"] if c not in _LOCK_VOCAB]))
    # Transitive must-acquire closure. Overload/collision rule: a NAME
    # acquires only the locks that EVERY definition of that name
    # acquires — so InvariantRecorder::empty() colliding with
    # std::vector-ish empty() elsewhere does not smear its lock over
    # every `x.empty()` call in the repo. Monotone (sets only grow), so
    # the fixpoint terminates.
    acquires = {}
    changed = True
    while changed:
        changed = False
        for name, defs in defs_by_name.items():
            per_def = []
            for _fn, direct, calls in defs:
                got = set(direct)
                for c in calls:
                    got |= acquires.get(c, set())
                per_def.append(got)
            merged = set.intersection(*per_def) if per_def else set()
            if merged != acquires.get(name, set()):
                acquires[name] = merged
                changed = True
    acquires = {n: ids for n, ids in acquires.items() if ids}

    findings = []
    edges = {}  # (a, b) -> (file, line, suppressed?)

    def add_edge(a, b, facts, line):
        if a == b:
            if not facts_suppressed(facts, line, "lock-order"):
                findings.append(Finding(
                    "lock-order", facts["file"], line,
                    f"recursive acquisition of {a} (self-deadlock: "
                    "dcape::Mutex is non-reentrant)"))
            return
        key = (a, b)
        sup = facts_suppressed(facts, line, "lock-order")
        if key not in edges or (edges[key][2] and not sup):
            edges[key] = (facts["file"], line, sup)

    for facts, fn, ids in per_fn:
        events = fn["lock_events"]
        for i, ev in enumerate(events):
            if ev.get("deferred"):
                continue
            held = ids[i]
            for j in ev.get("inner_locks", ()):
                if not events[j].get("deferred"):
                    add_edge(held, ids[j], facts, events[j]["line"])
            for callee in ev.get("inner_calls", ()):
                for inner in sorted(acquires.get(callee, ())):
                    add_edge(held, inner, facts, ev["line"])

    # Cycle detection over the acquired-before graph.
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    seen_cycles = set()
    for start in sorted(graph):
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(graph.get(node, ())):
                if nxt == start:
                    cyc = tuple(sorted(path))
                    if cyc in seen_cycles:
                        continue
                    seen_cycles.add(cyc)
                    cycle_edges = list(zip(path, path[1:] + [start]))
                    if any(edges[e][2] for e in cycle_edges if e in edges):
                        continue  # a participating site carries allow()
                    site = min((edges[e] for e in cycle_edges if e in edges),
                               key=lambda s: (s[0], s[1]))
                    findings.append(Finding(
                        "lock-order", site[0], site[1],
                        "lock-order cycle "
                        + " -> ".join(path + [start])
                        + ": opposite acquisition orders can deadlock"))
                elif nxt not in path and len(path) < 16:
                    stack.append((nxt, path + [nxt]))

    # EXCLUDES(m): calling f under m when f is annotated EXCLUDES(m).
    excludes = {}
    for facts in facts_list:
        for func, owner, member in facts.get("excludes", ()):
            member = member.split(".")[-1].split("->")[-1]
            lock_id = _resolve_lock(member, None, owner, facts["file"],
                                    member_classes)
            excludes.setdefault(func, set()).add(lock_id)
    # Only bare calls: `status()` under this->mu_ is a self-deadlock,
    # but `violations_.empty()` is a std::vector call that merely shares
    # a name with an annotated method on another type.
    for facts, fn, ids in per_fn:
        for i, ev in enumerate(fn["lock_events"]):
            if ev.get("deferred"):
                continue
            held = ids[i]
            for callee in ev.get("inner_bare_calls", ()):
                if held in excludes.get(callee, ()):
                    if facts_suppressed(facts, ev["line"], "lock-order"):
                        continue
                    findings.append(Finding(
                        "lock-order", facts["file"], ev["line"],
                        f"{fn['qual']} calls {callee}() while holding "
                        f"{held}, but {callee} is annotated "
                        f"EXCLUDES({held.split('::')[-1]})"))

    # Hot-path / realtime rules.
    hot = set()
    realtime = set()
    for facts in facts_list:
        hot.update(facts.get("hot", ()))
        realtime.update(facts.get("realtime", ()))
    wait_fns = set()
    for facts in facts_list:
        for fn in facts["functions"]:
            if fn.get("has_wait"):
                wait_fns.add(fn["name"])
    wait_reach = _reach_closure(calls_by, wait_fns) | wait_fns
    for facts in facts_list:
        for fn in facts["functions"]:
            name = fn["name"]
            if name in hot:
                for ev in fn.get("lock_events", ()):
                    if ev.get("deferred"):
                        continue
                    if facts_suppressed(facts, ev["line"], "lock-order"):
                        continue
                    findings.append(Finding(
                        "lock-order", facts["file"], ev["line"],
                        f"DCAPE_HOT_PATH {fn['qual']} acquires "
                        f"'{ev['expr']}': per-tuple paths must be "
                        "lock-free"))
                for line, what in fn.get("allocs", ()):
                    if facts_suppressed(facts, line, "lock-order"):
                        continue
                    findings.append(Finding(
                        "lock-order", facts["file"], line,
                        f"DCAPE_HOT_PATH {fn['qual']} heap-allocates "
                        f"({what}): per-tuple paths must not allocate"))
                for callee in fn["calls"]:
                    locks = acquires.get(callee, ())
                    if locks and callee not in hot:
                        if facts_suppressed(facts, fn["line"],
                                            "lock-order"):
                            continue
                        findings.append(Finding(
                            "lock-order", facts["file"], fn["line"],
                            f"DCAPE_HOT_PATH {fn['qual']} calls "
                            f"{callee}() which acquires "
                            f"{', '.join(sorted(locks))}"))
            if name in realtime:
                if fn.get("has_wait") or any(
                        c in wait_reach for c in fn["calls"]):
                    if facts_suppressed(facts, fn["line"], "lock-order"):
                        continue
                    findings.append(Finding(
                        "lock-order", facts["file"], fn["line"],
                        f"DCAPE_REALTIME {fn['qual']} reaches an "
                        "unbounded CondVar::Wait (use WaitFor with a "
                        "deadline)"))
    return findings


_STORE_OPS = {"store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
              "fetch_or", "fetch_xor", "compare_exchange_weak",
              "compare_exchange_strong"}
_LOAD_OPS = {"load", "exchange", "fetch_add", "fetch_sub", "fetch_and",
             "fetch_or", "fetch_xor", "compare_exchange_weak",
             "compare_exchange_strong"}
_RELEASE_ORDERS = {"release", "acq_rel", "seq_cst"}
_ACQUIRE_ORDERS = {"acquire", "acq_rel", "seq_cst"}


def wp_check_atomic_order(facts_list, ctx):
    """Memory-order audit for the realtime plane (src/rt/)."""
    decls = set()
    decl_lines = {}
    for facts in facts_list:
        if not facts.get("atomic_scope"):
            continue
        for name, line in facts.get("atomic_decls", ()):
            decls.add(name)
            decl_lines.setdefault(name, (facts["file"], line))
    # field -> list of (facts, func, op, orders, line)
    field_ops = {}
    for facts in facts_list:
        if not facts.get("atomic_scope"):
            continue
        alias = {}
        for name, init in facts.get("atomic_aliases", ()):
            for ident in re.findall(r"[A-Za-z_]\w*", init):
                if ident in decls:
                    alias[name] = ident
                    break
        for ident, op, orders, line, func in facts.get("atomic_ops", ()):
            field = alias.get(ident, ident)
            if field not in decls:
                continue
            field_ops.setdefault(field, []).append(
                (facts, func, op, orders, line))
    findings = []
    for field in sorted(field_ops):
        ops = field_ops[field]
        rel_stores = [(f, fu, o, od, ln) for f, fu, o, od, ln in ops
                      if o in _STORE_OPS and set(od) & _RELEASE_ORDERS]
        acq_loads = [(f, fu, o, od, ln) for f, fu, o, od, ln in ops
                     if o in _LOAD_OPS and set(od) & _ACQUIRE_ORDERS]
        any_store = {(f["file"], fu) for f, fu, o, od, ln in ops
                     if o in _STORE_OPS}
        strong_store = {(f["file"], fu) for f, fu, o, od, ln in ops
                        if o in _STORE_OPS and set(od) & _RELEASE_ORDERS}
        for facts, func, op, orders, line in ops:
            if not orders:
                if facts_suppressed(facts, line, "atomic-order"):
                    continue
                findings.append(Finding(
                    "atomic-order", facts["file"], line,
                    f"bare {field}.{op}() defaults to seq_cst: spell "
                    "the order (and justify it) explicitly"))
                continue
            if (op in _LOAD_OPS and orders == ["relaxed"] and rel_stores
                    and (facts["file"], func) not in any_store):
                if facts_suppressed(facts, line, "atomic-order"):
                    continue
                findings.append(Finding(
                    "atomic-order", facts["file"], line,
                    f"relaxed load of {field} in {func or '<file scope>'}"
                    f", which never writes it — other functions publish "
                    f"{field} with release stores, so this read needs "
                    "acquire (or a comment-suppressed ownership "
                    "argument)"))
            if (op in _STORE_OPS and orders == ["relaxed"] and acq_loads
                    and (facts["file"], func) not in strong_store):
                if facts_suppressed(facts, line, "atomic-order"):
                    continue
                findings.append(Finding(
                    "atomic-order", facts["file"], line,
                    f"relaxed store of {field} in "
                    f"{func or '<file scope>'} but {field} is read with "
                    "acquire loads: publication needs release (or a "
                    "same-function stronger store)"))
        if rel_stores and not acq_loads:
            facts, func, op, orders, line = rel_stores[0]
            if not facts_suppressed(facts, line, "atomic-order"):
                findings.append(Finding(
                    "atomic-order", facts["file"], line,
                    f"{field} has release-or-stronger stores but no "
                    "acquire-side load anywhere: either the release is "
                    "unnecessary or a reader is missing its acquire"))
        if acq_loads and not rel_stores:
            facts, func, op, orders, line = acq_loads[0]
            if not facts_suppressed(facts, line, "atomic-order"):
                findings.append(Finding(
                    "atomic-order", facts["file"], line,
                    f"{field} has acquire loads but no release-side "
                    "store anywhere: the acquire synchronizes with "
                    "nothing"))
    return findings


def wp_check_protocol_conformance(facts_list, ctx):
    """Code <-> tools/protocol_spec.json round-trip."""
    spec = ctx.get("spec")
    spec_file = ctx.get("spec_rel", "tools/protocol_spec.json")
    if spec is None:
        return [Finding("protocol-conformance", spec_file, 1,
                        f"cannot load protocol spec: "
                        f"{ctx.get('spec_error', 'missing')}")]
    findings = []
    roles = spec.get("roles", {})
    coord_cls = roles.get("coordinator", "GlobalCoordinator")
    role_of = {cls: role for role, cls in roles.items()}
    spec_msgs = {m["type"]: m for m in spec.get("messages", ())}
    spec_phases = list(spec.get("coordinator_phases", ()))
    phase_enum_name = spec.get("coordinator_phase_enum", "Phase")
    transitions = spec.get("phase_transitions", ())
    expected_phase = {m["type"]: m["coordinator_expected_phase"]
                      for m in spec.get("messages", ())
                      if "coordinator_expected_phase" in m}

    # --- Enum round-trips -------------------------------------------------
    for facts in facts_list:
        for owner, ename, values, line in facts.get("enums", ()):
            if ename == phase_enum_name and owner == coord_cls:
                names = [v for v, _l in values]
                for v, vline in values:
                    if v not in spec_phases and not facts_suppressed(
                            facts, vline, "protocol-conformance"):
                        findings.append(Finding(
                            "protocol-conformance", facts["file"], vline,
                            f"{coord_cls}::Phase::{v} is not in "
                            f"{spec_file} coordinator_phases"))
                for v in spec_phases:
                    if v not in names and not facts_suppressed(
                            facts, line, "protocol-conformance"):
                        findings.append(Finding(
                            "protocol-conformance", facts["file"], line,
                            f"spec phase {v} missing from "
                            f"{coord_cls}::Phase"))
            if ename == "MessageType":
                names = [v for v, _l in values]
                for v, vline in values:
                    if v not in spec_msgs and not facts_suppressed(
                            facts, vline, "protocol-conformance"):
                        findings.append(Finding(
                            "protocol-conformance", facts["file"], vline,
                            f"MessageType::{v} has no entry in "
                            f"{spec_file}"))
                for v in spec_msgs:
                    if v not in names and not facts_suppressed(
                            facts, line, "protocol-conformance"):
                        findings.append(Finding(
                            "protocol-conformance", facts["file"], line,
                            f"spec message {v} missing from MessageType"))

    # --- Handler coverage per role ---------------------------------------
    for facts in facts_list:
        for cls, cases, fn_line in facts.get("handlers", ()):
            role = role_of.get(cls)
            if role is None:
                continue
            want = {t for t, m in spec_msgs.items()
                    if role in m.get("handled_by", ())}
            got = {c for c, _l in cases}
            for c, cline in cases:
                if c not in want and not facts_suppressed(
                        facts, cline, "protocol-conformance"):
                    findings.append(Finding(
                        "protocol-conformance", facts["file"], cline,
                        f"{cls}::OnMessage handles {c}, but the spec "
                        f"does not list '{role}' in handled_by({c})"))
            for c in sorted(want - got):
                if not facts_suppressed(facts, fn_line,
                                        "protocol-conformance"):
                    findings.append(Finding(
                        "protocol-conformance", facts["file"], fn_line,
                        f"{cls}::OnMessage is missing a handler for "
                        f"{c} (spec says '{role}' handles it)"))

    # --- Guards and phase transitions (coordinator only) ------------------
    legal = {}  # case msg -> set of (from, to)
    for t in transitions:
        legal.setdefault(t["on"], set()).add((t["from"], t["to"]))
    for facts in facts_list:
        for cls, case, phase, line in facts.get("guards", ()):
            if cls != coord_cls or case is None:
                continue
            want = expected_phase.get(case)
            if want is not None and phase != want and not facts_suppressed(
                    facts, line, "protocol-conformance"):
                findings.append(Finding(
                    "protocol-conformance", facts["file"], line,
                    f"GuardProtocol under case {case} expects {phase}, "
                    f"spec says {want}"))
        guarded_cases = {case for cls, case, _p, _l
                         in facts.get("guards", ())
                         if cls == coord_cls and case}
        for cls, cases, fn_line in facts.get("handlers", ()):
            if cls != coord_cls:
                continue
            for c, cline in cases:
                if c in expected_phase and c not in guarded_cases:
                    if not facts_suppressed(facts, cline,
                                            "protocol-conformance"):
                        findings.append(Finding(
                            "protocol-conformance", facts["file"], cline,
                            f"{cls}::OnMessage case {c} has no "
                            f"GuardProtocol({expected_phase[c]}) check"))
        for cls, case, phase, line in facts.get("assigns", ()):
            if cls != coord_cls:
                continue
            if case is None:
                ok = any(t["from"] == "idle" and t["to"] == phase
                         for t in transitions)
            else:
                src = expected_phase.get(case, "idle")
                ok = (src, phase) in legal.get(case, set())
            if not ok and not facts_suppressed(facts, line,
                                               "protocol-conformance"):
                findings.append(Finding(
                    "protocol-conformance", facts["file"], line,
                    f"phase transition to {phase}"
                    + (f" under case {case}" if case else " outside a "
                       "handler")
                    + " has no matching entry in the spec's "
                    "phase_transitions"))

    # --- Send legality ----------------------------------------------------
    for facts in facts_list:
        for cls, mtype, line in facts.get("sends", ()):
            role = role_of.get(cls)
            if role is None:
                continue
            m = spec_msgs.get(mtype)
            if m is None:
                if not facts_suppressed(facts, line,
                                        "protocol-conformance"):
                    findings.append(Finding(
                        "protocol-conformance", facts["file"], line,
                        f"{cls} sends {mtype}, which the spec does not "
                        "define"))
            elif role not in m.get("from", ()):
                if not facts_suppressed(facts, line,
                                        "protocol-conformance"):
                    findings.append(Finding(
                        "protocol-conformance", facts["file"], line,
                        f"{cls} sends {mtype}, but the spec only allows "
                        f"{', '.join(m.get('from', ())) or 'nobody'} "
                        "to send it"))
    return findings


WP_CHECKS = {
    "cross-tu-taint": wp_check_cross_tu_taint,
    "lock-order": wp_check_lock_order,
    "atomic-order": wp_check_atomic_order,
    "protocol-conformance": wp_check_protocol_conformance,
}


def run_wp_checks(facts_list, ctx, selected):
    findings = []
    for name in selected:
        findings.extend(WP_CHECKS[name](facts_list, ctx))
    findings.sort(key=lambda f: (f.file, f.line, f.check))
    return findings


def load_protocol_spec(path):
    try:
        with open(path) as f:
            return json.load(f), None
    except (OSError, ValueError) as e:
        return None, str(e)


# ---------------------------------------------------------------------------
# Baseline: deferred findings stay visible but do not fail the run
# ---------------------------------------------------------------------------


def load_baseline(path):
    """Set of (check, file, message) identities. Line numbers are
    deliberately excluded so unrelated edits do not churn the file."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError):
        return set()
    return {(e["check"], e["file"], e["message"])
            for e in data.get("findings", ())}


def write_baseline(path, findings):
    entries = sorted({(f.check, f.file, f.message) for f in findings})
    data = {"findings": [
        {"check": c, "file": fl, "message": m} for c, fl, m in entries]}
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Graphviz rendering of the protocol spec
# ---------------------------------------------------------------------------


def render_protocol_dot(spec):
    """Deterministic Graphviz source for the relocation protocol: the
    coordinator phase machine plus the per-step message flow."""
    out = []
    w = out.append
    w("// Generated by tools/dcape_lint.py --emit-protocol-dot from")
    w("// tools/protocol_spec.json. Do not edit by hand; the")
    w("// protocol_dot_sync test regenerates and diffs this file.")
    w("digraph dcape_relocation {")
    w('  rankdir=LR;')
    w('  node [fontname="Helvetica", fontsize=11];')
    w('  edge [fontname="Helvetica", fontsize=9];')
    w("  subgraph cluster_phases {")
    w('    label="GlobalCoordinator phase machine";')
    w('    style=dashed;')
    w('    idle [shape=doublecircle];')
    for phase in spec.get("coordinator_phases", ()):
        w(f'    {phase} [shape=box];')
    for t in spec.get("phase_transitions", ()):
        label = t["on"]
        if t.get("note", "").startswith("abort"):
            label += " (abort)"
        w(f'    {t["from"]} -> {t["to"]} [label="{label}"];')
    w("  }")
    w("  subgraph cluster_flow {")
    w('    label="message flow (step: type)";')
    w('    style=dashed;')
    roles = spec.get("roles", {})
    for role in roles:
        w(f'    {role} [shape=component, label="{role}\\n'
          f'({roles[role]})"];')
    w('    sink [shape=point, label=""];')
    for m in spec.get("messages", ()):
        label = f'{m.get("step", "?")}: {m["type"]}'
        targets = m.get("handled_by") or ["sink"]
        for src in m.get("from", ()):
            for dst in targets:
                w(f'    {src} -> {dst} [label="{label}"];')
    w("  }")
    w("}")
    return "\n".join(out) + "\n"


def discover_files(root, compile_commands):
    """Translation units + headers to lint. compile_commands.json is the
    source of truth for .cc files when present; headers are walked."""
    files = []
    seen = set()
    if compile_commands and os.path.exists(compile_commands):
        try:
            with open(compile_commands) as f:
                for entry in json.load(f):
                    path = os.path.realpath(
                        os.path.join(entry.get("directory", ""),
                                     entry["file"]))
                    if is_linted_path(root, path) and path not in seen:
                        seen.add(path)
                        files.append(path)
        except (OSError, ValueError, KeyError):
            pass
    for base in ("src", "tools"):
        top = os.path.join(root, base)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if not name.endswith((".h", ".cc")):
                    continue
                path = os.path.realpath(os.path.join(dirpath, name))
                if is_linted_path(root, path) and path not in seen:
                    seen.add(path)
                    files.append(path)
    return sorted(files)


def is_linted_path(root, path):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    if rel.startswith(".."):
        return False
    if "tests/lint_fixtures" in rel:
        return False  # intentionally-bad fixtures; linted by --selftest
    if rel.startswith("build"):
        return False
    return rel.endswith((".h", ".cc"))


def load_sources(paths):
    sources = []
    for path in paths:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            print(f"dcape-lint: cannot read {path}: {e}", file=sys.stderr)
            continue
        source = SourceFile(path, raw)
        collect_unordered_symbols(source)
        lex_functions(source)
        sources.append(source)
    for source in sources:
        GLOBAL_UNORDERED_RETURNERS.update(source.unordered_returners)
        # Only members (trailing-underscore house convention) taint
        # across files; a local named `out` in one TU must not flag
        # every `out` in the repo.
        GLOBAL_UNORDERED_IDENTS.update(
            i for i in source.unordered_idents if i.endswith("_"))
    return sources


def run_checks(sources, root, selected):
    def relpath(path):
        return os.path.relpath(path, root).replace(os.sep, "/")
    findings = []
    for name in selected:
        findings.extend(CHECKS[name](sources, relpath))
    findings.sort(key=lambda f: (f.file, f.line, f.check))
    return findings


def _lint_fixture_group(paths, fixtures, ctx):
    """Runs every source check and every whole-program check over one
    fixture (a single file, or an _a/_b/... multi-TU group)."""
    # Fixture groups are self-contained: reset cross-file state.
    GLOBAL_UNORDERED_RETURNERS.clear()
    GLOBAL_UNORDERED_IDENTS.clear()
    sources = load_sources(paths)
    findings = run_checks(sources, fixtures, list(CHECKS))
    facts_list = [extract_facts(
        s, os.path.relpath(s.path, fixtures).replace(os.sep, "/"))
        for s in sources]
    findings.extend(run_wp_checks(facts_list, ctx, list(WP_CHECKS)))
    return findings


_PAIR_SUFFIX_RE = re.compile(r"_([a-z])\.cc$")


def selftest(root):
    """Every tests/lint_fixtures/bad_<check>*.cc must trigger exactly its
    check; clean_*.cc and suppressed_*.cc must be finding-free. A
    fixture named <stem>_a.cc is a multi-TU group: it is linted together
    with its <stem>_b.cc ... siblings (which are not linted alone) so
    cross-TU checks see a real file boundary."""
    fixtures = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"dcape-lint selftest: no fixtures dir at {fixtures}",
              file=sys.stderr)
        return 1
    script_dir = os.path.dirname(os.path.abspath(__file__))
    spec, spec_err = load_protocol_spec(
        os.path.join(script_dir, "protocol_spec.json"))
    ctx = {"spec": spec, "spec_error": spec_err,
           "spec_rel": "tools/protocol_spec.json"}
    failures = 0
    names = sorted(n for n in os.listdir(fixtures) if n.endswith(".cc"))
    if not names:
        print("dcape-lint selftest: fixtures dir is empty", file=sys.stderr)
        return 1
    groups = []  # (display name, expected-check stem source, [paths])
    for name in names:
        m = _PAIR_SUFFIX_RE.search(name)
        if m and m.group(1) != "a":
            stem = name[:m.start()]
            if stem + "_a.cc" in names:
                continue  # linted as part of the _a group
        if m and m.group(1) == "a":
            stem = name[:m.start()]
            siblings = [n for n in names
                        if n.startswith(stem + "_") and
                        _PAIR_SUFFIX_RE.search(n)]
            if len(siblings) > 1:
                groups.append((stem + "_*.cc", stem + ".cc",
                               [os.path.join(fixtures, n)
                                for n in siblings]))
                continue
        groups.append((name, name, [os.path.join(fixtures, name)]))
    all_checks = {**CHECKS, **WP_CHECKS}
    for display, check_name, paths in groups:
        findings = _lint_fixture_group(paths, fixtures, ctx)
        checks_hit = {f.check for f in findings}
        if check_name.startswith("bad_"):
            stem = check_name[len("bad_"):-len(".cc")]
            expected = stem.replace("_", "-")
            # allow a numeric suffix: bad_wall_clock_2.cc
            expected = re.sub(r"-\d+$", "", expected)
            if expected not in all_checks:
                print(f"FAIL {display}: fixture names unknown check "
                      f"'{expected}'")
                failures += 1
            elif checks_hit != {expected}:
                print(f"FAIL {display}: expected only [{expected}], "
                      f"got {sorted(checks_hit) or 'nothing'}")
                for f in findings:
                    print(f"    {f}")
                failures += 1
            else:
                print(f"ok   {display}: triggers [{expected}]")
        elif check_name.startswith(("clean_", "suppressed_")):
            if findings:
                print(f"FAIL {display}: expected no findings, got:")
                for f in findings:
                    print(f"    {f}")
                failures += 1
            else:
                print(f"ok   {display}: no findings")
        else:
            print(f"FAIL {display}: fixture must be named bad_*/clean_*/"
                  "suppressed_*")
            failures += 1
    print(f"selftest: {len(groups)} fixtures, {failures} failures")
    return 1 if failures else 0


def main(argv):
    root = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    all_checks = list(CHECKS) + list(WP_CHECKS)
    compile_commands = None
    selected = None  # None = all checks
    explicit_files = []
    do_selftest = False
    phase = None                 # None | "export" | "link"
    facts_out = None
    facts_in = []
    baseline_path = None
    use_baseline = True
    do_write_baseline = False
    spec_path = None
    emit_dot = None
    check_dot = None

    for arg in argv:
        if arg == "--list":
            for name in all_checks:
                print(name)
            return 0
        if arg == "--selftest":
            do_selftest = True
        elif arg.startswith("--check="):
            names = [n for n in arg.split("=", 1)[1].split(",") if n]
            for name in names:
                if name not in CHECKS and name not in WP_CHECKS:
                    print(f"unknown check '{name}' "
                          f"(known: {', '.join(all_checks)})",
                          file=sys.stderr)
                    return 2
            selected = names
        elif arg.startswith("--root="):
            root = os.path.realpath(arg.split("=", 1)[1])
        elif arg.startswith("--compile-commands="):
            compile_commands = arg.split("=", 1)[1]
        elif arg.startswith("--phase="):
            phase = arg.split("=", 1)[1]
            if phase not in ("export", "link"):
                print(f"--phase must be export or link, not '{phase}'",
                      file=sys.stderr)
                return 2
        elif arg.startswith("--facts-out="):
            facts_out = arg.split("=", 1)[1]
        elif arg.startswith("--facts="):
            facts_in.extend(p for p in arg.split("=", 1)[1].split(",") if p)
        elif arg.startswith("--baseline="):
            baseline_path = arg.split("=", 1)[1]
        elif arg == "--no-baseline":
            use_baseline = False
        elif arg == "--write-baseline":
            do_write_baseline = True
        elif arg.startswith("--protocol-spec="):
            spec_path = arg.split("=", 1)[1]
        elif arg.startswith("--emit-protocol-dot="):
            emit_dot = arg.split("=", 1)[1]
        elif arg.startswith("--check-protocol-dot="):
            check_dot = arg.split("=", 1)[1]
        elif arg in ("--help", "-h"):
            print(__doc__)
            return 0
        elif arg.startswith("--"):
            print(f"unknown flag '{arg}' (see --help)", file=sys.stderr)
            return 2
        else:
            explicit_files.append(os.path.realpath(arg))

    script_dir = os.path.dirname(os.path.abspath(__file__))
    if spec_path is None:
        spec_path = os.path.join(script_dir, "protocol_spec.json")
    spec, spec_err = load_protocol_spec(spec_path)
    ctx = {"spec": spec, "spec_error": spec_err,
           "spec_rel": os.path.relpath(spec_path, root).replace(
               os.sep, "/")}

    if emit_dot or check_dot:
        if spec is None:
            print(f"dcape-lint: cannot load {spec_path}: {spec_err}",
                  file=sys.stderr)
            return 2
        dot = render_protocol_dot(spec)
        if emit_dot:
            with open(emit_dot, "w") as f:
                f.write(dot)
            print(f"dcape-lint: wrote {emit_dot}")
            return 0
        try:
            with open(check_dot) as f:
                current = f.read()
        except OSError as e:
            print(f"dcape-lint: cannot read {check_dot}: {e}",
                  file=sys.stderr)
            return 1
        if current != dot:
            print(f"dcape-lint: {check_dot} is stale — regenerate with "
                  f"--emit-protocol-dot={check_dot}")
            return 1
        print(f"dcape-lint: {check_dot} matches protocol_spec.json")
        return 0

    if compile_commands is None:
        default_db = os.path.join(root, "build", "compile_commands.json")
        compile_commands = default_db if os.path.exists(default_db) else None

    if do_selftest:
        return selftest(root)

    sel = selected if selected is not None else all_checks
    sel_src = [n for n in sel if n in CHECKS]
    sel_wp = [n for n in sel if n in WP_CHECKS]

    if phase == "link":
        if selected is not None and sel_src:
            print(f"--phase=link runs whole-program checks only; "
                  f"{', '.join(sel_src)} need sources", file=sys.stderr)
            return 2
        if not facts_in:
            print("--phase=link requires --facts=FILE[,FILE...]",
                  file=sys.stderr)
            return 2
        facts_list = []
        for path in facts_in:
            try:
                with open(path) as f:
                    data = json.load(f)
            except (OSError, ValueError) as e:
                print(f"dcape-lint: cannot load facts {path}: {e}",
                      file=sys.stderr)
                return 2
            if data.get("version") != FACTS_VERSION:
                print(f"dcape-lint: {path} has facts version "
                      f"{data.get('version')}, expected {FACTS_VERSION} "
                      "(re-run --phase=export)", file=sys.stderr)
                return 2
            facts_list.extend(data.get("files", ()))
        sel = sel_wp or list(WP_CHECKS)
        findings = run_wp_checks(facts_list, ctx, sel)
        nfiles = len(facts_list)
    else:
        paths = explicit_files or discover_files(root, compile_commands)
        sources = load_sources(paths)

        def relpath(path):
            return os.path.relpath(path, root).replace(os.sep, "/")

        facts_list = [extract_facts(s, relpath(s.path)) for s in sources]
        if phase == "export":
            payload = json.dumps(
                {"version": FACTS_VERSION, "files": facts_list},
                indent=None, sort_keys=True)
            if facts_out:
                with open(facts_out, "w") as f:
                    f.write(payload + "\n")
                print(f"dcape-lint: exported facts for {len(facts_list)} "
                      f"files to {facts_out}")
            else:
                print(payload)
            return 0
        findings = run_checks(sources, root, sel_src)
        findings.extend(run_wp_checks(facts_list, ctx, sel_wp))
        findings.sort(key=lambda f: (f.file, f.line, f.check))
        nfiles = len(paths)

    if baseline_path is None:
        baseline_path = os.path.join(root, "tools", "lint_baseline.json")
    if do_write_baseline:
        write_baseline(baseline_path, findings)
        print(f"dcape-lint: wrote {len(findings)} findings to "
              f"{baseline_path}")
        return 0
    baseline = load_baseline(baseline_path) if use_baseline else set()
    new, old = [], []
    for f in findings:
        (old if (f.check, f.file, f.message) in baseline else new).append(f)
    for f in new:
        print(f)
    for f in old:
        print(f"{f}  [baselined]")
    summary = (f"dcape-lint: {nfiles} files, {len(new)} findings"
               + (f" ({len(old)} baselined)" if old else "")
               + f" (checks: {', '.join(sel)})")
    print(summary)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
