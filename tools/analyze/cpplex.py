"""cpplex: the shared comment/string-stripping C++ lexer and brace-scope
parser behind the repo's static-analysis tooling.

It grew out of the schedule-point lint (now the `schedpoint` pass),
factored into a module so every pass of tools/analyze (wait-freedom,
blocking calls, memory orders, struct layout, schedule points) parses
the implementation trees the same way. It is deliberately
NOT a real C++ front end: it strips comments and literals while
preserving line structure, matches braces into scopes, and classifies
scope headers as function-like or not. That is enough to attribute a
token to "the function it is in" — the unit every audit pass reasons
about — over this codebase's disciplined C++ subset, and `--self-test`
corpora plus tests/analyze/cpplex_test.py keep it honest.

Guarantees the passes rely on:
  * strip_comments_and_strings() preserves byte-for-byte line structure
    (same number of lines, tokens keep their line/column), blanks the
    inside of //, /* */, "...", '...' and raw R"delim(...)delim"
    literals, and leaves everything else untouched.
  * parse_scopes() yields every brace scope with its header text and
    [start, end] line span; function classification handles member
    initializer lists, const/noexcept/override/final/trailing-return
    specifiers and `decltype(...)` return types, and treats lambdas and
    uniform-init braces as non-function scopes (their contents
    attribute to the enclosing function).
  * Nested templates (Foo<Bar<T>>) and brackets never unbalance the
    scope stack: only '{' / '}' drive it, and header accumulation
    resets at ';'.
"""

import re
from collections import namedtuple

# A brace-matched scope. `header` is the text between the previous
# scope terminator and the '{'; `is_function` says the header looks
# like a function definition; `name` is the identifier before the first
# top-level '(' (None when there is none); `start`/`end` are 1-based
# line numbers of the '{' and '}'.
Scope = namedtuple("Scope", "header is_function name start end")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignas", "alignof", "decltype", "static_assert",
    "new", "delete", "throw", "case", "default", "co_return",
}

NON_FUNCTION_HEADS = re.compile(
    r"^\s*(namespace|struct|class|union|enum|extern)\b"
)

_RAW_STRING_OPEN = re.compile(r'R"([^()\\ \t\n]{0,16})\(')


def strip_comments_and_strings(text):
    """Blank out comments and literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "R" and text.startswith('R"', i):
            # Raw string literal: R"delim( ... )delim". No escape
            # processing inside; newlines are legal and preserved.
            m = _RAW_STRING_OPEN.match(text, i)
            if m is None:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, m.end())
            j = n if j < 0 else j + len(close)
            out.append('""')
            out.append("".join("\n" for ch in text[i:j] if ch == "\n"))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def function_name(header):
    """Identifier before the first top-level '(' of a scope header.

    A `decltype(...)` group (a `decltype(auto)` or `decltype(expr)`
    return type) is part of the return type, not the parameter list,
    so it is skipped.
    """
    depth = 0
    idx, n = 0, len(header)
    while idx < n:
        ch = header[idx]
        if ch in "<[":
            depth += 1
        elif ch in ">]":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            m = re.search(r"([~\w:]+)\s*$", header[:idx])
            if not m:
                return None
            if m.group(1) == "decltype":
                idx, _ = balanced_args(header, idx)
                continue
            return m.group(1).split("::")[-1]
        idx += 1
    return None


def parse_scopes(clean):
    """Brace-matched scopes of comment/string-stripped text.

    A scope is function-like when its header ends in ')' (plus trailing
    specifiers), names a non-keyword identifier before its first '(',
    and is not a namespace/class/struct/enum/union head. Lambdas and
    uniform-init braces become non-function scopes; ops inside them
    attribute to the nearest enclosing function scope.
    """
    scopes = []
    stack = []  # (header, is_function, name, start_line)
    line = 1
    header_chars = []
    i, n = 0, len(clean)
    while i < n:
        c = clean[i]
        if c == "\n":
            line += 1
            header_chars.append(c)
        elif c == "{":
            header = "".join(header_chars).strip()
            # Constructor member-init lists re-open after ':'; keep the
            # whole header so the name extraction sees Foo::Foo(...).
            name = function_name(header)
            trimmed = re.sub(
                r"(\)|\bconst\b|\bnoexcept\b|\boverride\b|\bfinal\b|"
                r"->\s*[\w:<>,*&\s]+|:\s*[^{}]*)\s*$",
                ")",
                header,
            )
            is_fn = bool(
                header
                and not NON_FUNCTION_HEADS.search(header)
                and name
                and name.lstrip("~") not in CONTROL_KEYWORDS
                and trimmed.endswith(")")
                and "(" in header
            )
            stack.append((header, is_fn, name, line))
            header_chars = []
        elif c == "}":
            if stack:
                header, is_fn, name, start = stack.pop()
                scopes.append(Scope(header, is_fn, name, start, line))
            header_chars = []
        elif c == ";":
            header_chars = []
        else:
            header_chars.append(c)
        i += 1
    return scopes


def class_names(clean):
    """Names of every class/struct declared in the stripped text."""
    return set(
        re.findall(r"\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+)",
                   clean)
    )


def record_scopes(scopes):
    """The subset of scopes that are class/struct bodies, with names.

    Returns [(name, Scope)] for headers of the form
    `class X ...` / `struct X ...` (template heads included).
    """
    out = []
    for s in scopes:
        m = re.search(
            r"\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+)\s*"
            r"(?:final\b)?\s*(?::[^{]*)?$",
            s.header,
        )
        if m:
            out.append((m.group(1), s))
    return out


def function_scopes(scopes):
    return [s for s in scopes if s.is_function]


def enclosing_function(fn_scopes, lineno):
    """Innermost function scope containing `lineno`, or None."""
    best = None
    for s in fn_scopes:
        if s.start <= lineno <= s.end:
            if best is None or s.start > best.start:
                best = s
    return best


def balanced_args(clean, open_idx):
    """Span of a balanced parenthesized argument list.

    `open_idx` must point at '(' in the stripped text; returns the
    index one past the matching ')' (or len(clean) if unbalanced) and
    the argument text between the parentheses.
    """
    depth = 0
    i, n = open_idx, len(clean)
    while i < n:
        c = clean[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1, clean[open_idx + 1:i]
        i += 1
    return n, clean[open_idx + 1:n]


class SourceFile:
    """One parsed file: the shared context every analysis pass reads."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.clean = strip_comments_and_strings(text)
        self.clean_lines = self.clean.splitlines()
        self.scopes = parse_scopes(self.clean)
        self.fn_scopes = function_scopes(self.scopes)
        self.records = record_scopes(self.scopes)
        self.ctors = class_names(self.clean)

    def enclosing_function(self, lineno):
        return enclosing_function(self.fn_scopes, lineno)

    def is_ctor_or_dtor(self, scope):
        if scope is None or scope.name is None:
            return False
        return (scope.name.lstrip("~") in self.ctors
                or scope.name.startswith("~"))

    def function_body(self, scope):
        """Stripped body text of a scope (header line through end)."""
        return "\n".join(self.clean_lines[scope.start - 1:scope.end])

    def line_offset(self, lineno):
        """Character offset of the start of a 1-based line in `clean`."""
        off = 0
        for i in range(lineno - 1):
            off += len(self.clean_lines[i]) + 1
        return off
