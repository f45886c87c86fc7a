#!/usr/bin/env python3
"""restune_lint: project-specific C++ lint rules the compiler cannot enforce.

Rules (see docs/CORRECTNESS.md for rationale):

  rng-discipline   No rand()/srand()/std::random_device/std::mt19937/
                   time(...) wall-clock seeding outside src/common/rng.*.
                   Every stochastic component must draw from restune::Rng so
                   runs stay reproducible bit-for-bit.
  naked-new        No naked `new` / `delete`. Ownership goes through
                   std::make_unique / std::make_shared / containers.
  raw-thread       No std::thread/std::jthread/std::async/pthread_create
                   outside src/common/thread_pool.*. Ad-hoc threads break
                   the deterministic ParallelFor execution model.
  ignored-status   A statement-position call to a function returning Status
                   or Result<T> discards the error. Use
                   RESTUNE_RETURN_IF_ERROR / RESTUNE_ASSIGN_OR_RETURN,
                   check .ok(), or cast to (void) with a reason.
  no-float         No `float` in src/linalg or src/gp: the numeric kernels
                   are double-only by design (mixed precision silently
                   loses the bitwise determinism the replay machinery
                   depends on).
  include-guard    Headers use a #ifndef guard derived from their path
                   (src/gp/kernel.h -> RESTUNE_GP_KERNEL_H_), not
                   #pragma once, so guards are greppable and collisions
                   impossible.
  simd-confinement No vendor SIMD intrinsics (`#include <immintrin.h>`,
                   `_mm*` calls, `__m128/__m256/__m512` types) outside
                   src/linalg/simd/. Everything else targets the
                   dispatching primitives in linalg/simd/simd.h, so the
                   scalar tier stays the single source of portable truth
                   and -DRESTUNE_SIMD=OFF builds cannot break.
  unbounded-wait   No wall-clock sleeps (sleep/usleep/nanosleep/
                   sleep_for/sleep_until) and no naked `.wait()` /
                   `->wait()` calls in tests/. A sleep is timing-based
                   synchronization — flaky on loaded CI and slow
                   everywhere; a wait with no timeout deadlocks the whole
                   suite when the notification never comes. Use simulated
                   time, the ThreadPool's deterministic joins, or a
                   wait_for/wait_until with an explicit bound.
  obs-discipline   Two-way isolation of the observability layer: no
                   wall-clock reads (std::chrono::system_clock,
                   high_resolution_clock, gettimeofday, clock_gettime,
                   localtime, gmtime) outside src/obs/, and no
                   std::chrono::steady_clock in src/ outside src/obs/ —
                   all timing in the library goes through the monotonic
                   tracer (obs/trace.h), so there is one timer and traces
                   never perturb replay (bench/ and tests/ may time with
                   steady_clock); and no randomness (restune::Rng,
                   common/rng.h) inside src/obs/ — observability must not
                   consume RNG draws, or enabling a trace would change
                   every downstream sample.
  lock-discipline  In src/: no naked `.lock()`/`.unlock()`/`.try_lock()`
                   calls and no unannotated std RAII guards
                   (std::lock_guard, std::unique_lock, std::scoped_lock)
                   outside src/common/mutex.h. Locking goes through the
                   annotated restune::Mutex/MutexLock so clang
                   -Wthread-safety can see — and verify — every critical
                   section.
  memory-order     Atomic operations in src/common and src/obs (the two
                   modules with lock-free hot paths) must spell an explicit
                   std::memory_order argument. A bare fetch_add defaults
                   to seq_cst, which both hides the author's intent and
                   costs a fence the comment then has to explain away.
  net-discipline   Socket transport stays confined to src/net/: no
                   global-qualified POSIX socket/IO calls (::socket,
                   ::connect, ::read, ::write, ::poll, ...) and no socket
                   system headers (<sys/socket.h>, <netinet/*>,
                   <arpa/inet.h>, <poll.h>, ...) anywhere else — every
                   transport need goes through the net module's RAII
                   Socket API. Additionally, the EINTR token may appear
                   only in src/net/socket.{h,cc}: hand-rolled EINTR retry
                   loops are a classic source of half-right error
                   handling, so every interruptible syscall routes
                   through the one shared net::RetryEintr helper.
  layering         Include-DAG rule: a file under src/<module>/ may
                   include project headers only from its own module, the
                   modules tools/layering.json lists as its dependencies,
                   or a declared leaf header (dependency-free utilities
                   like thread_annotations.h that any module may use).
                   Leaf headers themselves may include only other leaf
                   headers. Keeps obs → common → numeric core →
                   tuner/service a DAG the compiler never gets to see.
  advisor-         No MaximizeAcquisition/MaximizeAcquisitionBatch calls
  discipline       under src/tuner/ outside the shared suggestion step
                   (src/tuner/suggestion_step.*). Every surrogate advisor
                   maximizes through SuggestionStep::Maximize, which
                   applies the trust region, the quarantine and the
                   pending-point penalty, so a new advisor cannot grow a
                   suggest path that ignores them.
  guarded-by-      A class owning a mutex member (restune::Mutex or
  coverage         std::mutex) must annotate at least one member with
                   GUARDED_BY in the same class — a mutex guarding nothing
                   the analysis can check is a lock the analysis cannot
                   help with.

Suppression, from most to least local:
  * `// restune-lint: allow(rule)` on the offending line;
  * an allowlist file (default tools/lint_allowlist.txt) with lines of
    `rule path-glob  # reason`.

Output is human-readable by default; `--json` emits a CI-friendly list of
{"path", "line", "rule", "message"} objects. Exit status is 1 iff findings
remain after suppression. `--prune-allowlist` inverts the check: it exits 1
if any allowlist entry suppresses nothing, so conscious exceptions cannot
outlive the code they excused. There is deliberately no --fix mode: every
violation is either a bug to fix by hand or a conscious exception to record
with a reason.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")
ALLOW_MARKER = re.compile(r"//\s*restune-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

RNG_EXEMPT = ("src/common/rng.h", "src/common/rng.cc")
THREAD_EXEMPT = ("src/common/thread_pool.h", "src/common/thread_pool.cc")
FLOAT_SCOPES = ("src/linalg/", "src/gp/")

OBS_SCOPE = "src/obs/"
SIMD_SCOPE = "src/linalg/simd/"
TEST_SCOPE = "tests/"

RNG_PATTERN = re.compile(
    r"\b(rand|srand|drand48|lrand48|time)\s*\("
    r"|std::(random_device|mt19937(?:_64)?|minstd_rand0?|default_random_engine)\b"
)
NEW_DELETE_PATTERN = re.compile(r"(?<!\w)(new|delete)(?:\s*\[\s*\])?(?![\w(])")
THREAD_PATTERN = re.compile(r"std::(thread|jthread|async)\b|\bpthread_create\b")
FLOAT_PATTERN = re.compile(r"\bfloat\b")
WALL_CLOCK_PATTERN = re.compile(
    r"std::chrono::(system_clock|high_resolution_clock)\b"
    r"|\b(gettimeofday|clock_gettime|localtime(?:_r)?|gmtime(?:_r)?)\s*\("
)
STEADY_CLOCK_PATTERN = re.compile(r"std::chrono::steady_clock\b")
SLEEP_PATTERN = re.compile(
    r"\b(?:sleep|usleep|nanosleep)\s*\("
    r"|\bsleep_(?:for|until)\s*(?:<[^>]*>)?\s*\(")
# `.wait(` / `->wait(` with no timeout; wait_for/wait_until do not match
# (the paren must follow `wait` directly).
NAKED_WAIT_PATTERN = re.compile(r"(?:\.|->)\s*wait\s*\(")
OBS_RNG_USE_PATTERN = re.compile(r"\bRng\b")
OBS_RNG_INCLUDE_PATTERN = re.compile(r'#\s*include\s*"common/rng\.h"')
SIMD_INCLUDE_PATTERN = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|emmintrin|xmmintrin|smmintrin|"
    r"tmmintrin|nmmintrin|avxintrin|avx2intrin|arm_neon)\.h>")
SIMD_TOKEN_PATTERN = re.compile(
    r"\b_mm(?:256|512)?_\w+|\b__m(?:128|256|512)[di]?\b")

# `Status Foo(...)` / `Result<T> Foo(...)` declarations; used to build the
# set of function names whose return value must not be discarded.
STATUS_DECL_PATTERN = re.compile(
    r"(?:^|[;{}]|\n)\s*(?:virtual\s+|static\s+|\[\[nodiscard\]\]\s+)*"
    r"(Status|Result<[^;{}()]{1,80}>)\s+(\w+)\s*\("
)
# Any other `Type Foo(...)` declaration; names that also appear with a
# non-Status return type are ambiguous under a regex-only analysis, so they
# are skipped rather than risk false positives (e.g. DdpgAgent::Observe
# returns void while the advisors' Observe returns Status).
ANY_DECL_PATTERN = re.compile(
    r"(?:^|[;{}]|\n)\s*(?:virtual\s+|static\s+|inline\s+|constexpr\s+|explicit\s+)*"
    r"((?:::)?[\w:]+(?:<[^;{}()]{1,80}>)?[&*]?)\s+(\w+)\s*\("
)

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
    "defined", "alignof", "decltype", "static_assert",
}


def is_header(path):
    return path.endswith((".h", ".hpp"))


# Raw-string opener: optional encoding prefix, R, quote, then a delimiter of
# up to 16 chars that may not contain parens/backslash/whitespace.
RAW_STRING_START = re.compile(r'(?:u8|[uUL])?R"([^()\\\s]{0,16})\(')
# A C++ pp-number: digits with optional digit separators ('), hex/float
# chars, and signed exponents. Consumed atomically so the ' separator in
# 1'000'000 is never mistaken for a char-literal opener.
PP_NUMBER = re.compile(r"\.?\d(?:['0-9a-zA-Z_.]|[eEpP][+-])*")


def _blank_preserving_newlines(text):
    return "".join("\n" if c == "\n" else " " for c in text)


def strip_comments_and_strings(text):
    """Replaces comment/string contents with spaces, preserving newlines.

    Line numbers and column positions of remaining code are unchanged, so
    findings can point at the original source. Raw strings (R"(...)") are
    blanked like ordinary strings, and numeric literals are consumed whole
    so digit separators (1'000'000) never open a phantom char literal.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            ident_before = i > 0 and (text[i - 1].isalnum() or
                                      text[i - 1] == "_")
            if c in "RuUL" and not ident_before:
                m = RAW_STRING_START.match(text, i)
                if m:
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, m.end())
                    stop = n if end == -1 else end + len(close)
                    region = text[i:stop]
                    out.append('"')
                    out.append(_blank_preserving_newlines(region[1:-1]))
                    if len(region) >= 2:
                        out.append('"')
                    i = stop
                    continue
            if (c.isdigit() or (c == "." and nxt.isdigit())) \
                    and not ident_before:
                m = PP_NUMBER.match(text, i)
                out.append(m.group(0))
                i = m.end()
                continue
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Shared lexer: the multi-pass rules below (lock-discipline, memory-order,
# guarded-by-coverage) work on a token stream rather than raw lines, so a
# declaration split across lines or an annotation macro with arguments is
# still one analyzable unit. Tokens carry their 1-based source line.
# ---------------------------------------------------------------------------

TOKEN_PATTERN = re.compile(r"""
      (?P<ident>[A-Za-z_]\w*)
    | (?P<number>\.?\d(?:['0-9a-zA-Z_.]|[eEpP][+-])*)
    | (?P<punct>::|->\*|->|\.\*|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||
                [-+*/%&|^!<>=~?:;,.(){}\[\]#])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line


def tokenize(code_text):
    """Lexes comment/string-stripped C++ into (kind, text, line) tokens."""
    tokens = []
    line = 1
    pos = 0
    for m in TOKEN_PATTERN.finditer(code_text):
        line += code_text.count("\n", pos, m.start())
        pos = m.start()
        tokens.append(Token(m.lastgroup, m.group(0), line))
    return tokens


def find_class_spans(tokens):
    """Token-index spans of class/struct bodies: [(name, lo, hi)].

    `lo`/`hi` are the indices of the opening and closing brace. Nested
    classes get their own span. Forward declarations, `enum class`, and
    `class T` template parameters produce no span. Attribute macros in the
    class head (`class CAPABILITY("mutex") Mutex {`) are skipped — the
    last identifier before the body or base clause is the name.
    """
    spans = []
    open_stack = []  # (name, open_idx, depth_at_open)
    pending_name = None
    depth = 0
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        if t.text == "{":
            depth += 1
            if pending_name is not None:
                open_stack.append((pending_name, i, depth))
                pending_name = None
        elif t.text == "}":
            if open_stack and open_stack[-1][2] == depth:
                name, lo, _ = open_stack.pop()
                spans.append((name, lo, i))
            depth -= 1
        elif t.text == ";":
            pending_name = None  # forward declaration
        elif t.kind == "ident" and t.text in ("class", "struct") \
                and (i == 0 or tokens[i - 1].text != "enum"):
            name = None
            j = i + 1
            while j < n and tokens[j].text not in ("{", ";", ":"):
                tj = tokens[j]
                if tj.text in ("class", "struct"):
                    break  # template parameter list; the real head follows
                if tj.kind == "ident" and tj.text not in ("final", "alignas"):
                    name = tj.text
                j += 1
            else:
                j = min(j, n)
            if name is not None and j < n and tokens[j].text != ";":
                pending_name = name
            i = j - 1 if j > i else i
        i += 1
    spans.sort(key=lambda s: s[1])
    return spans


class FileContext:
    """Per-file analysis state shared by the token-aware rules, computed
    lazily so single-pass regex rules pay nothing for it."""

    def __init__(self, rel, raw_text, code_text):
        self.rel = rel
        self.raw_text = raw_text
        self.code_text = code_text
        self._tokens = None
        self._class_spans = None

    @property
    def tokens(self):
        if self._tokens is None:
            self._tokens = tokenize(self.code_text)
        return self._tokens

    @property
    def class_spans(self):
        if self._class_spans is None:
            self._class_spans = find_class_spans(self.tokens)
        return self._class_spans


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def as_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def load_allowlist(path):
    entries = []
    if not path or not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                print(
                    f"{path}:{lineno}: malformed allowlist entry "
                    f"(want 'rule path-glob'): {raw.rstrip()}",
                    file=sys.stderr,
                )
                sys.exit(2)
            entries.append((parts[0], parts[1]))
    return entries


def allowed(finding, allowlist, used=None):
    """First allowlist entry index matching `finding`, or None.

    `used` (a set) collects indices of entries that suppressed at least one
    finding — the input to --prune-allowlist staleness detection.
    """
    for idx, (rule, glob) in enumerate(allowlist):
        if rule in (finding.rule, "*") and fnmatch.fnmatch(finding.path, glob):
            if used is not None:
                used.add(idx)
            return idx
    return None


def inline_allowed_rules(raw_line):
    m = ALLOW_MARKER.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def expected_guard(relpath):
    trimmed = relpath[4:] if relpath.startswith("src/") else relpath
    token = re.sub(r"[^A-Za-z0-9]", "_", trimmed).upper()
    return f"RESTUNE_{token}_"


def collect_status_functions(files):
    """Names that *only* ever appear returning Status/Result across `files`."""
    status_names = set()
    other_names = set()
    for path, _rel, text in files:
        if not is_header(path):
            continue
        code = strip_comments_and_strings(text)
        for m in STATUS_DECL_PATTERN.finditer(code):
            status_names.add(m.group(2))
        for m in ANY_DECL_PATTERN.finditer(code):
            rtype, name = m.group(1), m.group(2)
            if rtype in ("Status",) or rtype.startswith("Result<"):
                continue
            if rtype in CONTROL_KEYWORDS or name in CONTROL_KEYWORDS:
                continue
            other_names.add(name)
    return status_names - other_names - CONTROL_KEYWORDS


def check_rng(rel, code_lines, raw_lines, findings):
    if rel in RNG_EXEMPT:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = RNG_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "rng-discipline",
                f"'{m.group(0).strip()}' bypasses restune::Rng; all "
                "randomness must flow through src/common/rng.* so runs are "
                "reproducible"))


def check_new_delete(rel, code_lines, raw_lines, findings):
    for lineno, line in enumerate(code_lines, 1):
        # Preprocessor lines are not expressions (`#include <new>`).
        if line.lstrip().startswith("#"):
            continue
        # Deleted/defaulted special members are declarations, not ownership.
        line = re.sub(r"=\s*(delete|default)\b", "", line)
        for m in NEW_DELETE_PATTERN.finditer(line):
            findings.append(Finding(
                rel, lineno, "naked-new",
                f"naked '{m.group(1)}'; use std::make_unique/"
                "std::make_shared or a container"))


def check_threads(rel, code_lines, raw_lines, findings):
    if rel in THREAD_EXEMPT:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = THREAD_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "raw-thread",
                f"'{m.group(0)}' outside the ThreadPool; ad-hoc threads "
                "break the deterministic ParallelFor execution model"))


def check_float(rel, code_lines, raw_lines, findings):
    if not rel.startswith(FLOAT_SCOPES):
        return
    for lineno, line in enumerate(code_lines, 1):
        if FLOAT_PATTERN.search(line):
            findings.append(Finding(
                rel, lineno, "no-float",
                "'float' in the double-only numeric core; mixed precision "
                "breaks bitwise replay determinism"))


def check_simd_confinement(rel, code_lines, raw_lines, findings):
    if rel.startswith(SIMD_SCOPE):
        return
    # Include scan runs on raw lines: the angle-bracket path survives
    # stripping, but keep both scans consistent with the obs include check.
    for lineno, raw in enumerate(raw_lines, 1):
        if SIMD_INCLUDE_PATTERN.search(raw):
            findings.append(Finding(
                rel, lineno, "simd-confinement",
                "vendor intrinsics header included outside src/linalg/simd/; "
                "use the dispatching primitives in linalg/simd/simd.h"))
    for lineno, line in enumerate(code_lines, 1):
        m = SIMD_TOKEN_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "simd-confinement",
                f"'{m.group(0)}' intrinsic outside src/linalg/simd/; use "
                "the dispatching primitives in linalg/simd/simd.h"))


def check_unbounded_wait(rel, code_lines, raw_lines, findings):
    if not rel.startswith(TEST_SCOPE):
        return
    for lineno, line in enumerate(code_lines, 1):
        m = SLEEP_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "unbounded-wait",
                f"'{m.group(0).strip()}' wall-clock sleep in a test; "
                "timing-based synchronization is flaky on loaded CI — use "
                "simulated time or an explicitly bounded wait"))
        m = NAKED_WAIT_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "unbounded-wait",
                "naked 'wait()' with no timeout in a test; a missed "
                "notification deadlocks the suite — use wait_for/"
                "wait_until with an explicit bound"))


def check_obs_discipline(rel, code_lines, raw_lines, findings):
    if rel.startswith(OBS_SCOPE):
        # Inside the observability layer: no randomness, so enabling a
        # trace can never shift a downstream sample. The include check
        # scans raw lines because strip_comments_and_strings blanks the
        # quoted include path.
        for lineno, raw in enumerate(raw_lines, 1):
            if OBS_RNG_INCLUDE_PATTERN.search(raw):
                findings.append(Finding(
                    rel, lineno, "obs-discipline",
                    "src/obs must not include common/rng.h; observability "
                    "code may not consume RNG draws"))
        for lineno, line in enumerate(code_lines, 1):
            if OBS_RNG_USE_PATTERN.search(line):
                findings.append(Finding(
                    rel, lineno, "obs-discipline",
                    "'Rng' inside src/obs; observability code may not "
                    "consume RNG draws, or tracing would perturb replay"))
        return
    # Outside it: no wall-clock reads; all timing flows through the
    # monotonic tracer so traces stay comparable and replay-stable. The
    # library has no second timer either: its steady_clock reads live in
    # src/obs/ alone, while benches and tests may time with it.
    in_src = rel.startswith("src/")
    for lineno, line in enumerate(code_lines, 1):
        m = WALL_CLOCK_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "obs-discipline",
                f"'{m.group(0).strip()}' wall-clock read outside src/obs/; "
                "time measurements go through the monotonic tracer "
                "(obs/trace.h), or std::chrono::steady_clock in benches "
                "and tests"))
        elif in_src and STEADY_CLOCK_PATTERN.search(line):
            findings.append(Finding(
                rel, lineno, "obs-discipline",
                "'std::chrono::steady_clock' in src/ outside src/obs/; the "
                "library times its phases with trace spans "
                "(RESTUNE_TRACE_SPAN, obs/trace.h), not a second timer"))


ADVISOR_SCOPE = "src/tuner/"
ADVISOR_EXEMPT = ("src/tuner/suggestion_step.h", "src/tuner/suggestion_step.cc")
MAXIMIZE_CALL_PATTERN = re.compile(r"\bMaximizeAcquisition(?:Batch)?\s*\(")


def check_advisor_discipline(rel, code_lines, findings):
    if not rel.startswith(ADVISOR_SCOPE) or rel in ADVISOR_EXEMPT:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = MAXIMIZE_CALL_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "advisor-discipline",
                f"'{m.group(0).rstrip('( ')}' called outside the shared "
                "suggestion step; maximize through SuggestionStep::Maximize "
                "(tuner/suggestion_step.h) so the trust region, quarantine "
                "and pending-point penalty apply"))


LOCK_EXEMPT = ("src/common/mutex.h",)
NAKED_LOCK_PATTERN = re.compile(
    r"(?:\.|->)\s*(try_lock|lock|unlock)\s*\(")
STD_GUARD_PATTERN = re.compile(
    r"\bstd::(lock_guard|unique_lock|scoped_lock)\b")

MEMORY_ORDER_SCOPES = ("src/common/", "src/obs/")
ATOMIC_OP_PATTERN = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set)\s*\(")

GUARDED_BY_EXEMPT = ("src/common/mutex.h",)
INCLUDE_PATTERN = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

NET_SCOPE = "src/net/"
# The one home of EINTR handling: the shared RetryEintr helper and the
# syscall wrappers built on it.
NET_EINTR_EXEMPT = ("src/net/socket.h", "src/net/socket.cc")
# Global-qualified POSIX socket/IO calls. The lookbehind keeps qualified
# names (std::bind, absl::flat_hash_map::accept, ...) from matching: their
# `::` is preceded by an identifier character.
NET_SYSCALL_PATTERN = re.compile(
    r"(?<![\w)])::(socket|bind|listen|accept4?|connect|recv|recvfrom|"
    r"recvmsg|send|sendto|sendmsg|read|write|poll|select|epoll_\w+|"
    r"setsockopt|getsockopt|getsockname|getpeername|shutdown|close)\s*\(")
NET_HEADER_PATTERN = re.compile(
    r"#\s*include\s*<(sys/socket\.h|sys/epoll\.h|sys/select\.h|"
    r"netinet/[^>]+|arpa/inet\.h|poll\.h|netdb\.h)>")
EINTR_PATTERN = re.compile(r"\bEINTR\b")


def check_lock_discipline(rel, code_lines, raw_lines, findings):
    # src/ only: production locking must be visible to -Wthread-safety;
    # tests may use std primitives directly to exercise interop fixtures.
    if not rel.startswith("src/") or rel in LOCK_EXEMPT:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = NAKED_LOCK_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "lock-discipline",
                f"naked '.{m.group(1)}()' call; take restune::MutexLock so "
                "the critical section is RAII-scoped and visible to clang "
                "-Wthread-safety"))
        m = STD_GUARD_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "lock-discipline",
                f"'std::{m.group(1)}' carries no thread-safety annotations; "
                "use restune::Mutex/MutexLock (common/mutex.h) so the "
                "analysis can verify the lock"))


def check_net_discipline(rel, code_lines, raw_lines, findings):
    if rel.startswith(NET_SCOPE):
        # Inside the net module only socket.{h,cc} may spell EINTR — the
        # retry loop lives exactly once, in net::RetryEintr.
        if rel not in NET_EINTR_EXEMPT:
            for lineno, line in enumerate(code_lines, 1):
                if EINTR_PATTERN.search(line):
                    findings.append(Finding(
                        rel, lineno, "net-discipline",
                        "EINTR handled outside net/socket.{h,cc}; route the "
                        "interruptible syscall through the shared "
                        "net::RetryEintr helper instead of a hand-rolled "
                        "retry loop"))
        return
    # Outside src/net/: no raw sockets at all. Header scan runs on raw
    # lines because stripping blanks nothing inside <...> but this keeps
    # the scan consistent with the other include checks.
    for lineno, raw in enumerate(raw_lines, 1):
        m = NET_HEADER_PATTERN.search(raw)
        if m:
            findings.append(Finding(
                rel, lineno, "net-discipline",
                f"socket system header <{m.group(1)}> outside src/net/; "
                "transports go through the net module's RAII Socket API"))
    for lineno, line in enumerate(code_lines, 1):
        m = NET_SYSCALL_PATTERN.search(line)
        if m:
            findings.append(Finding(
                rel, lineno, "net-discipline",
                f"naked '::{m.group(1)}' syscall outside src/net/; use the "
                "net module's Socket/ListenTcp/ConnectTcp wrappers so EINTR "
                "handling, non-blocking modes, and fd lifetimes stay in one "
                "audited place"))
        if EINTR_PATTERN.search(line):
            findings.append(Finding(
                rel, lineno, "net-discipline",
                "EINTR handling outside src/net/; interruptible syscalls "
                "belong behind net::RetryEintr (src/net/socket.h)"))


def _matching_paren_span(text, open_pos):
    """Text span of a balanced paren group starting at `open_pos` ('(')."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos:i]
    return text[open_pos:]


def check_memory_order(rel, code_text, findings):
    if not rel.startswith(MEMORY_ORDER_SCOPES):
        return
    for m in ATOMIC_OP_PATTERN.finditer(code_text):
        args = _matching_paren_span(code_text, m.end() - 1)
        if "memory_order" in args:
            continue
        line = 1 + code_text.count("\n", 0, m.start())
        findings.append(Finding(
            rel, line, "memory-order",
            f"atomic '{m.group(1)}' without an explicit std::memory_order; "
            "the lock-free paths in src/common and src/obs must state "
            "their ordering (a bare call is an implicit seq_cst fence)"))


def check_layering(rel, raw_lines, layering, findings):
    if layering is None or not rel.startswith("src/"):
        return
    modules = layering.get("modules", {})
    leaf_headers = set(layering.get("leaf_headers", []))
    parts = rel.split("/")
    if len(parts) < 3:
        return  # a file directly under src/ belongs to no module
    module = parts[1]
    rel_in_src = rel[len("src/"):]
    is_leaf = rel_in_src in leaf_headers
    if module not in modules:
        findings.append(Finding(
            rel, 1, "layering",
            f"module 'src/{module}/' is not declared in tools/layering.json; "
            "add it (with its dependency list) so the include DAG stays "
            "complete"))
        return
    allowed = set(modules[module]) | {module}
    for lineno, raw in enumerate(raw_lines, 1):
        m = INCLUDE_PATTERN.match(raw)
        if not m:
            continue
        inc = m.group(1)
        if is_leaf:
            if inc not in leaf_headers:
                findings.append(Finding(
                    rel, lineno, "layering",
                    f"leaf header includes \"{inc}\"; leaf headers must "
                    "stay dependency-free (only other leaf headers allowed) "
                    "or every module inherits the dependency"))
            continue
        if inc in leaf_headers:
            continue
        inc_module = inc.split("/")[0]
        if inc_module not in modules:
            continue  # not a module-scoped project header
        if inc_module not in allowed:
            findings.append(Finding(
                rel, lineno, "layering",
                f"src/{module} may not include \"{inc}\": "
                f"'{inc_module}' is not among its declared dependencies in "
                "tools/layering.json (obs → common → numeric core → "
                "tuner/service must stay a DAG)"))


def check_guarded_by_coverage(rel, ctx, findings):
    if not rel.startswith("src/") or rel in GUARDED_BY_EXEMPT:
        return
    tokens = ctx.tokens
    spans = ctx.class_spans
    for name, lo, hi in spans:
        # Exclude nested class bodies: their mutexes/annotations are their
        # own concern, and crediting an inner GUARDED_BY to the outer class
        # would hide an unguarded outer mutex.
        children = [(clo, chi) for _, clo, chi in spans
                    if lo < clo and chi < hi]
        mutex_members = []
        has_guard = False
        idx = lo + 1
        while idx < hi:
            if any(clo <= idx <= chi for clo, chi in children):
                idx += 1
                continue
            t = tokens[idx]
            if t.kind == "ident" and t.text == "GUARDED_BY":
                has_guard = True
            is_mutex_type = t.kind == "ident" and (
                t.text == "Mutex"
                or (t.text == "mutex" and idx >= 2
                    and tokens[idx - 1].text == "::"
                    and tokens[idx - 2].text == "std"))
            if is_mutex_type and idx + 2 < hi:
                member = tokens[idx + 1]
                after = tokens[idx + 2]
                if member.kind == "ident" and after.text in (";", "=", "{"):
                    mutex_members.append((member.text, t.line))
            idx += 1
        if mutex_members and not has_guard:
            for member_name, line in mutex_members:
                findings.append(Finding(
                    rel, line, "guarded-by-coverage",
                    f"class '{name}' owns mutex '{member_name}' but "
                    "annotates nothing GUARDED_BY it; a mutex the analysis "
                    "cannot associate with data is a lock it cannot check"))


def load_layering(root):
    path = os.path.join(root, "tools", "layering.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


STATEMENT_CALL = r"^\s*(?:[\w\[\]]+(?:\.|->))*{name}\s*\("
IGNORE_STATEMENT = re.compile(
    r"=|\breturn\b|\(void\)|RESTUNE_|EXPECT_|ASSERT_|CHECK\(|\bco_return\b")


def check_ignored_status(rel, code_text, status_functions, findings):
    # Statement-level scan: split the comment/string-stripped code on ';'
    # and flag statements that *start* with a call to a Status-returning
    # function (possibly via object.method / pointer->method) and neither
    # consume nor forward the result. AST-lite on purpose: names whose
    # declarations are ambiguous never enter `status_functions`.
    line = 1
    call_head = re.compile(r"^((?:[\w\[\]]+(?:\.|->))*)(\w+)\s*\(")
    for statement in code_text.split(";"):
        # A chunk between semicolons may drag along the tail of an enclosing
        # construct (`void F() {\n  session.Begin(...)`) — the statement
        # proper starts after the last brace.
        brace = max(statement.rfind("{"), statement.rfind("}"))
        tail = statement[brace + 1:] if brace >= 0 else statement
        stripped = tail.strip()
        if stripped and not IGNORE_STATEMENT.search(stripped):
            m = call_head.match(stripped)
            if m and m.group(2) in status_functions:
                name = m.group(2)
                pos = brace + 1 + (len(tail) - len(tail.lstrip())) + m.start(2)
                call_line = line + statement[:pos].count("\n")
                findings.append(Finding(
                    rel, call_line, "ignored-status",
                    f"result of '{name}(...)' (returns Status/Result) is "
                    "discarded; propagate it, check .ok(), or cast to "
                    "(void) with a reason"))
        line += statement.count("\n")


def check_include_guard(rel, raw_text, findings):
    guard = expected_guard(rel)
    lines = raw_text.splitlines()
    if "#pragma once" in raw_text:
        line = next((i for i, l in enumerate(lines, 1)
                     if "#pragma once" in l), 1)
        findings.append(Finding(
            rel, line, "include-guard",
            f"'#pragma once' — use the path-derived guard {guard}"))
        return
    m_ifndef = re.search(r"^#ifndef\s+(\S+)", raw_text, re.MULTILINE)
    m_define = re.search(r"^#define\s+(\S+)", raw_text, re.MULTILINE)
    if not m_ifndef or not m_define or m_ifndef.group(1) != guard \
            or m_define.group(1) != guard:
        got = m_ifndef.group(1) if m_ifndef else "(none)"
        findings.append(Finding(
            rel, 1, "include-guard",
            f"include guard is {got}, expected path-derived {guard}"))
        return
    if "#endif" not in raw_text:
        findings.append(Finding(
            rel, len(lines), "include-guard",
            f"missing closing #endif for guard {guard}"))


def gather_files(paths, root):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            candidates = [full]
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames[:] = [d for d in dirnames
                               if d not in ("build", ".git")]
                for name in sorted(filenames):
                    candidates.append(os.path.join(dirpath, name))
        for c in candidates:
            if c.endswith(CXX_EXTENSIONS):
                rel = os.path.relpath(c, root).replace(os.sep, "/")
                with open(c, encoding="utf-8") as f:
                    files.append((c, rel, f.read()))
    return files


def run_lint(paths, root, allowlist_path):
    findings, _allowlist, _used = run_lint_with_usage(
        paths, root, allowlist_path)
    return findings


def run_lint_with_usage(paths, root, allowlist_path):
    """Lints `paths`; returns (findings, allowlist entries, used indices).

    The used-index set drives --prune-allowlist: an entry whose index never
    lands in it suppressed nothing and is stale.
    """
    allowlist = load_allowlist(allowlist_path)
    layering = load_layering(root)
    files = gather_files(paths, root)
    status_functions = collect_status_functions(files)
    findings = []
    used = set()
    for _path, rel, text in files:
        raw_lines = text.splitlines()
        code_text = strip_comments_and_strings(text)
        code_lines = code_text.splitlines()
        ctx = FileContext(rel, text, code_text)
        file_findings = []
        check_rng(rel, code_lines, raw_lines, file_findings)
        check_new_delete(rel, code_lines, raw_lines, file_findings)
        check_threads(rel, code_lines, raw_lines, file_findings)
        check_float(rel, code_lines, raw_lines, file_findings)
        check_simd_confinement(rel, code_lines, raw_lines, file_findings)
        check_unbounded_wait(rel, code_lines, raw_lines, file_findings)
        check_obs_discipline(rel, code_lines, raw_lines, file_findings)
        check_ignored_status(rel, code_text, status_functions, file_findings)
        check_lock_discipline(rel, code_lines, raw_lines, file_findings)
        check_advisor_discipline(rel, code_lines, file_findings)
        check_net_discipline(rel, code_lines, raw_lines, file_findings)
        check_memory_order(rel, code_text, file_findings)
        check_layering(rel, raw_lines, layering, file_findings)
        check_guarded_by_coverage(rel, ctx, file_findings)
        if is_header(rel):
            check_include_guard(rel, text, file_findings)
        for f in file_findings:
            # Inline suppression applies on the offending line or, for lines
            # with no room for a trailing comment, on the line above.
            local = set()
            if 1 <= f.line <= len(raw_lines):
                local |= inline_allowed_rules(raw_lines[f.line - 1])
            if f.line >= 2:
                local |= inline_allowed_rules(raw_lines[f.line - 2])
            if f.rule in local or allowed(f, allowlist, used) is not None:
                continue
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, allowlist, used


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint (repo-relative)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout")
    parser.add_argument("--prune-allowlist", action="store_true",
                        help="exit 1 if any allowlist entry suppresses no "
                             "finding over the given paths (stale exception)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             "<root>/tools/lint_allowlist.txt)")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(__file__), os.pardir))
    allowlist_path = args.allowlist
    if allowlist_path is None:
        allowlist_path = os.path.join(root, "tools", "lint_allowlist.txt")

    findings, allowlist, used = run_lint_with_usage(
        args.paths, root, allowlist_path)

    if args.prune_allowlist:
        stale = [(rule, glob) for idx, (rule, glob) in enumerate(allowlist)
                 if idx not in used]
        for rule, glob in stale:
            print(f"{allowlist_path}: stale entry '{rule} {glob}' "
                  "suppresses nothing; delete it (the code it excused is "
                  "gone or fixed)")
        if stale:
            print(f"restune_lint: {len(stale)} stale allowlist entr"
                  f"{'y' if len(stale) == 1 else 'ies'}")
        else:
            print("restune_lint: allowlist has no stale entries")
        return 1 if stale else 0

    if args.json:
        json.dump([f.as_dict() for f in findings], sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for f in findings:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if findings:
            print(f"\nrestune_lint: {len(findings)} finding(s)")
        else:
            print("restune_lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
