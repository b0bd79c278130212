#!/usr/bin/env python3
"""Determinism & convention static analyzer for the SSR tree.

Every correctness guarantee this reproduction makes rests on bit-identical
determinism: golden-replay digests, the 200-scenario differential suite, the
open-vs-closed equivalence suite and the trace round-trips all compare byte
streams.  The runtime suites *sample* nondeterminism; this pass proves the
structural sources of it absent before code lands.  Most rules run over a
parsed representation of the code: class/field/method structure, local
variable types, range-for iteration targets resolved through member and call
chains, lock_guard scopes, and a cross-TU call graph.  The two convention
rules read comment- and string-stripped source lines instead, because the
parser drops preprocessor lines and a macro body must still be checked.

Rules (see DESIGN.md §12 for the hazard-class -> runtime-suite mapping):

  nondet-iteration    iterating a std::unordered_map/std::unordered_set in a
                      function that (transitively) reaches EngineObserver
                      dispatch, event scheduling, or digest/trace emission —
                      or that sits below a StageSelector override
                      (stage_score/rank_slots), whose return values order
                      placement decisions directly (sched/types.h contract).
                      Hash iteration order is stdlib- and history-dependent;
                      feeding it into the observer stream breaks replay.
  pointer-keyed-order std::map/std::set (or multi-variants) keyed by a raw
                      pointer: traversal order is allocation order, which no
                      two runs share.
  lock-discipline     a field of a mutex-holding class accessed both under a
                      lock_guard/unique_lock/scoped_lock of that mutex and
                      outside any lock region (constructors/destructors are
                      exempt: single-threaded by contract).  Race candidates
                      for the sweep thread pool.
  observer-schema     every virtual on_* of EngineObserver must be
                      overridden by TraceStream (the one callback ->
                      TraceEvent conversion), each with its own
                      TraceEventKind, and ReplayAuditor (the one
                      event-stream invariant checker) must handle every
                      kind.
  sim-time-arith      float where simulated time flows (SimTime is double;
                      float truncates event timestamps), integer variables
                      assigned from time-typed expressions without an
                      explicit cast, and SimTime computed by integer/integer
                      division (silent truncation).
  nondet-api          rand/srand/time(nullptr) calls, std::random_device,
                      default-constructed <random> engines (including
                      never-seeded engine fields), and naked `new`.
  no-assert           assert()/abort() terminate without context; use the
                      SSR_CHECK* macros, which throw ssr::CheckError with
                      file:line and a message (tests rely on catching it).
  pragma-once         headers use #pragma once, not #ifndef guards.

Usage:
  tools/ssr_analyze.py [paths...]   # default: src tools bench examples tests
  tools/ssr_analyze.py --json out.json
  tools/ssr_analyze.py --list-rules

There is no suppression annotation and no baseline: every finding fails the
run, and a false positive is fixed in the analyzer.
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".cxx"}

HEADER_SUFFIXES = {".h", ".hpp"}

# The default sweep; perfbench/ is the benchmark and stays outside it.
DEFAULT_PATHS = ["src", "tools", "bench", "examples", "tests"]

# The deliberately-broken fixture corpus; never part of a directory sweep
# (tests/analyze/test_ssr_analyze.py points the analyzer at it explicitly).
SKIP_DIR_PART = "tests/analyze/fixtures"

RULES = {
    "nondet-iteration":
        "no unordered-container iteration on paths that feed observers, "
        "events, or digests",
    "pointer-keyed-order":
        "no std::map/std::set keyed by raw pointers (address order is not "
        "reproducible)",
    "lock-discipline":
        "fields guarded by a mutex must be guarded at every access "
        "(ctors/dtors exempt)",
    "observer-schema":
        "every EngineObserver callback must become its own TraceEventKind in "
        "TraceStream, and ReplayAuditor must handle every kind",
    "sim-time-arith":
        "no float / implicit narrowing / int-division where simulated time "
        "flows",
    "nondet-api":
        "no wall-clock, unseeded <random> engines, std::random_device, or "
        "naked new",
    "no-assert": "assert()/abort() forbidden; use SSR_CHECK*/SSR_CHECK_MSG",
    "pragma-once": "headers must use #pragma once, not #ifndef guards",
}


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

@dataclass
class Token:
    kind: str  # 'id', 'num', 'str', 'chr', 'punct'
    value: str
    line: int


_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
# Longest-match punctuation that matters for parsing decisions.
_PUNCT3 = {"->*", "<<=", ">>=", "...", "<=>"}
_PUNCT2 = {"::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
           "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"}


def lex(text: str) -> list[Token]:
    """Tokenize C++ source: comments dropped, strings/chars collapsed to one
    token each, preprocessor lines dropped (includes recorded elsewhere)."""
    tokens: list[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            line += text.count("\n", i, j)
            i = j
        elif c == "#":
            # Preprocessor directive: skip to end of (possibly continued) line.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k == -1:
                    j = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                else:
                    j = k
                    break
            line += text.count("\n", i, j)
            i = j
        elif c == "R" and text.startswith('R"', i):
            # Raw string literal R"delim(...)delim"
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i + m.end())
                end = n if end == -1 else end + len(m.group(1)) + 2
                line += text.count("\n", i, end)
                tokens.append(Token("str", '""', line))
                i = end
            else:
                tokens.append(Token("id", "R", line))
                i += 1
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            tokens.append(Token("str" if c == '"' else "chr", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
        elif c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] == "." or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
        else:
            for size, table in ((3, _PUNCT3), (2, _PUNCT2)):
                if text[i:i + size] in table:
                    tokens.append(Token("punct", text[i:i + size], line))
                    i += size
                    break
            else:
                tokens.append(Token("punct", c, line))
                i += 1
    return tokens


# --------------------------------------------------------------------------
# IR
# --------------------------------------------------------------------------

@dataclass
class VarDecl:
    name: str
    type_str: str
    line: int
    init: str = ""  # flattened initializer tokens ('' = none)


@dataclass
class RangeFor:
    expr: list[Token]  # the iterated expression
    line: int


@dataclass
class IterLoop:
    base: list[Token]  # x in `x.begin()` classic-for iteration
    line: int


@dataclass
class Call:
    name: str            # unqualified callee
    recv: list[Token]    # receiver expr tokens ('' for free calls)
    line: int


@dataclass
class FieldAccess:
    name: str
    line: int
    guarded_by: frozenset  # mutex field names whose lock regions cover it


@dataclass
class Assign:
    target: str          # simple identifier target
    rhs: list[Token]
    line: int


@dataclass
class Method:
    name: str
    cls: str                  # '' for free functions
    line: int
    return_type: str = ""
    is_virtual: bool = False
    is_ctor: bool = False
    is_dtor: bool = False
    has_body: bool = False
    params: list = field(default_factory=list)       # [VarDecl]
    locals: list = field(default_factory=list)       # [VarDecl]
    range_fors: list = field(default_factory=list)   # [RangeFor]
    iter_loops: list = field(default_factory=list)   # [IterLoop]
    calls: list = field(default_factory=list)        # [Call]
    field_accesses: list = field(default_factory=list)
    assigns: list = field(default_factory=list)      # [Assign]
    new_lines: list = field(default_factory=list)    # [int]
    ctor_inits: list = field(default_factory=list)   # [str] field names
    path: str = ""

    def key(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def var_type(self, name: str) -> str:
        for v in self.locals + self.params:
            if v.name == name:
                return v.type_str
        return ""


@dataclass
class ClassInfo:
    name: str
    line: int
    path: str = ""
    bases: list = field(default_factory=list)
    fields: list = field(default_factory=list)   # [VarDecl]
    methods: list = field(default_factory=list)  # [Method]
    enums: dict = field(default_factory=dict)    # name -> [enumerators]

    def field_type(self, name: str) -> str:
        for f in self.fields:
            if f.name == name:
                return f.type_str
        return ""


@dataclass
class FileIR:
    path: Path
    rel: str
    lines: list
    classes: list = field(default_factory=list)
    functions: list = field(default_factory=list)  # free + member defs
    enums: dict = field(default_factory=dict)
    aliases: dict = field(default_factory=dict)    # using X = Y;


@dataclass
class Finding:
    rel: str
    line: int
    rule: str
    message: str

    def text(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Structural parser (pure python, stdlib only)
# --------------------------------------------------------------------------

_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "return",
    "break", "continue", "goto", "sizeof", "alignof", "new", "delete", "throw",
    "try", "catch", "operator", "template", "typename", "using", "namespace",
    "public", "private", "protected", "friend", "static_assert", "co_return",
    "co_await", "co_yield", "this", "nullptr", "true", "false",
}

_TYPE_QUALIFIERS = {"const", "constexpr", "inline", "static", "mutable",
                    "volatile", "virtual", "explicit", "friend", "typename",
                    "thread_local", "extern", "register", "unsigned", "signed"}

_LOCK_TYPES = ("lock_guard", "unique_lock", "scoped_lock", "shared_lock")


def _match_angle(tokens, i):
    """tokens[i] == '<'; return index just past the matching '>'."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif v in (";", "{"):
            return i  # not a template argument list after all
        i += 1
    return i


def _match_paren(tokens, i, open_="(", close=")"):
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == open_:
            depth += 1
        elif v == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _flatten(tokens) -> str:
    out = []
    for t in tokens:
        if out and out[-1] and out[-1][-1] in _ID_CONT and t.value and \
                t.value[0] in _ID_CONT:
            out.append(" ")
        out.append(t.value)
    return "".join(out)


def _parse_type(tokens, i):
    """Try to parse a type starting at i.  Returns (type_str, next_index) or
    (None, i).  Accepts `const ns::Name<...>::Nested*&` shapes."""
    start = i
    n = len(tokens)
    while i < n and tokens[i].kind == "id" and \
            tokens[i].value in _TYPE_QUALIFIERS:
        i += 1
    if i < n and tokens[i].value == "::":
        i += 1
    if i >= n or tokens[i].kind != "id" or tokens[i].value in _KEYWORDS:
        # `unsigned x` / `unsigned long x` style
        if i > start and tokens[i - 1].value in ("unsigned", "signed"):
            return "int", i
        return None, start
    i += 1
    while i < n:
        v = tokens[i].value
        if v == "<":
            i = _match_angle(tokens, i)
        elif v == "::" and i + 1 < n and tokens[i + 1].kind == "id":
            i += 2
        elif v in ("*", "&", "&&"):
            i += 1
        elif v == "const":
            i += 1
        else:
            break
    return _flatten(tokens[start:i]), i


_INT_TYPES = {
    "int", "long", "short", "unsigned", "signed", "size_t", "std::size_t",
    "ssize_t", "ptrdiff_t", "std::ptrdiff_t", "int8_t", "int16_t", "int32_t",
    "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "std::int8_t", "std::int16_t", "std::int32_t", "std::int64_t",
    "std::uint8_t", "std::uint16_t", "std::uint32_t", "std::uint64_t",
    "std::uintmax_t", "std::intmax_t", "char", "bool",
}

_RNG_ENGINES = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b",
}


class FileParser:
    """One pass over a token stream building FileIR.

    The walker tracks namespace/class/function nesting through braces.  It is
    a structural parser, not a full C++ grammar: it recognizes exactly the
    declaration shapes the rules need (classes, methods, fields, locals,
    range-fors, lock guards, calls, assignments) and skips what it cannot
    classify, erring on the side of *not* inventing structure.
    """

    def __init__(self, path: Path, rel: str, text: str):
        self.ir = FileIR(path=path, rel=rel, lines=text.splitlines(),
                         enums={})
        self.toks = lex(text)
        # Bodies are parsed only after the whole structural pass, so a method
        # defined above the class's field list (the project style) still sees
        # every field.
        self._pending_bodies = []  # (start, end, Method, ClassInfo|None)

    # -- top level ----------------------------------------------------------

    def parse(self) -> FileIR:
        """Structural pass only; call finish() once every file in the
        analysis set has been parsed, so out-of-line method bodies can see
        the fields of classes declared in other files (headers)."""
        self._scope(0, len(self.toks), cls=None)
        return self.ir

    def finish(self, class_index: dict):
        for start, end, m, cls in self._pending_bodies:
            if cls is None and m.cls:
                cls = class_index.get(m.cls)
            self._parse_body(start, end, m, cls)

    def _scope(self, i, end, cls):
        """Parse declarations in [i, end): namespace / class / enum /
        function / field."""
        toks = self.toks
        while i < end:
            t = toks[i]
            v = t.value
            if v in ("namespace",):
                j = i + 1
                while j < end and toks[j].value != "{" and toks[j].value != ";":
                    j += 1
                if j < end and toks[j].value == "{":
                    close = _match_paren(toks, j, "{", "}")
                    self._scope(j + 1, close - 1, cls)
                    i = close
                else:
                    i = j + 1
            elif v in ("class", "struct") and cls is None or \
                    v in ("class", "struct") and cls is not None:
                ni = self._try_class(i, end)
                if ni is None:
                    i += 1
                else:
                    i = ni
            elif v == "enum":
                i = self._parse_enum(i, end, cls)
            elif v == "using":
                i = self._parse_using(i, end)
            elif v == "template":
                # skip `template <...>`, continue at the declaration
                j = i + 1
                if j < end and toks[j].value == "<":
                    j = _match_angle(toks, j)
                i = j
            elif v == "{":
                i = _match_paren(toks, i, "{", "}")
            elif v in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].value == ":":
                i += 2
            else:
                ni = self._try_function_or_var(i, end, cls)
                i = ni if ni is not None and ni > i else i + 1

    def _try_class(self, i, end):
        toks = self.toks
        j = i + 1
        if j >= end or toks[j].kind != "id":
            return None
        name = toks[j].value
        line = toks[j].line
        j += 1
        if j < end and toks[j].value == "<":  # template specialization
            j = _match_angle(toks, j)
        if j < end and toks[j].value == "final":
            j += 1
        bases = []
        if j < end and toks[j].value == ":":
            k = j + 1
            while k < end and toks[k].value != "{" and toks[k].value != ";":
                if toks[k].kind == "id" and toks[k].value not in (
                        "public", "private", "protected", "virtual", "std"):
                    bases.append(toks[k].value)
                if toks[k].value == "<":
                    k = _match_angle(toks, k) - 1
                k += 1
            j = k
        if j >= end or toks[j].value != "{":
            return None  # forward declaration or variable of class type
        close = _match_paren(toks, j, "{", "}")
        info = ClassInfo(name=name, line=line, path=self.ir.rel, bases=bases)
        self.ir.classes.append(info)
        self._scope(j + 1, close - 1, cls=info)
        return close

    def _parse_enum(self, i, end, cls):
        toks = self.toks
        j = i + 1
        if j < end and toks[j].value in ("class", "struct"):
            j += 1
        if j >= end or toks[j].kind != "id":
            return i + 1
        name = toks[j].value
        j += 1
        if j < end and toks[j].value == ":":  # underlying type
            while j < end and toks[j].value not in ("{", ";"):
                j += 1
        if j >= end or toks[j].value != "{":
            return j + 1
        close = _match_paren(toks, j, "{", "}")
        enumerators = []
        k = j + 1
        depth = 0
        expect = True
        while k < close - 1:
            v = toks[k].value
            if v in ("{", "(", "<"):
                depth += 1
            elif v in ("}", ")", ">"):
                depth -= 1
            elif depth == 0:
                if expect and toks[k].kind == "id":
                    enumerators.append(toks[k].value)
                    expect = False
                elif v == ",":
                    expect = True
            k += 1
        target = cls.enums if cls is not None else self.ir.enums
        target[name] = enumerators
        return close

    def _parse_using(self, i, end):
        toks = self.toks
        j = i + 1
        if j + 1 < end and toks[j].kind == "id" and toks[j + 1].value == "=":
            k = j + 2
            while k < end and toks[k].value != ";":
                if toks[k].value == "<":
                    k = _match_angle(toks, k) - 1
                k += 1
            self.ir.aliases[toks[j].value] = _flatten(toks[j + 2:k])
            return k + 1
        while j < end and toks[j].value != ";":
            j += 1
        return j + 1

    # -- functions and fields ------------------------------------------------

    def _try_function_or_var(self, i, end, cls):
        """At a declaration start inside a class or at file scope.  Decide
        between method/function (…name(params)… `{`/`;`) and field/variable
        (Type name …;)."""
        toks = self.toks
        j = i
        is_virtual = False
        while j < end and toks[j].kind == "id" and \
                toks[j].value in _TYPE_QUALIFIERS:
            if toks[j].value == "virtual":
                is_virtual = True
            j += 1
        if j >= end:
            return None
        # Destructor
        if toks[j].value == "~" and cls is not None:
            k = j + 1
            if k < end and toks[k].kind == "id":
                m = Method(name="~" + toks[k].value, cls=cls.name,
                           line=toks[k].line, is_virtual=is_virtual,
                           is_dtor=True, path=self.ir.rel)
                return self._finish_callable(k + 1, end, m, cls)
            return None
        type_str, k = _parse_type(toks, j)
        if type_str is None:
            return None
        # `auto name(...) -> ret`
        # Constructor: type_str == class name and next token is '('
        if cls is not None and k < end and toks[k].value == "(" and \
                type_str.rstrip("&*") == cls.name:
            m = Method(name=cls.name, cls=cls.name, line=toks[j].line,
                       is_ctor=True, path=self.ir.rel)
            return self._finish_callable(k, end, m, cls)
        # Out-of-line ctor/dtor/method: Type is `Cls::name` handled by
        # _parse_type absorbing `::name`; re-split on the last '::'.
        if k < end and toks[k].kind == "id":
            name_tok = toks[k]
            owner = cls.name if cls is not None else ""
            k2 = k + 1
            # Out-of-line member: `Ret Cls::method(...)` — walk the
            # qualified chain; the last id is the name, the one before it
            # the owning class.
            while k2 + 1 < end and toks[k2].value == "::" and \
                    toks[k2 + 1].kind == "id":
                owner = name_tok.value
                name_tok = toks[k2 + 1]
                k2 += 2
            if k2 < end and toks[k2].value == "<":
                k2 = _match_angle(toks, k2)
            if k2 < end and toks[k2].value == "(":
                is_dtor = k2 >= 1 and toks[k2 - 2].value == "~" if \
                    name_tok is not toks[k] else False
                m = Method(name=name_tok.value, cls=owner,
                           line=name_tok.line, return_type=type_str,
                           is_virtual=is_virtual, is_dtor=is_dtor,
                           path=self.ir.rel)
                if m.name == owner:
                    m.is_ctor = True
                return self._finish_callable(k2, end, m, cls)
            # Field / variable declaration
            if cls is not None and k2 < end and \
                    toks[k2].value in (";", "=", "{"):
                init_end = k2
                init = ""
                if toks[k2].value != ";":
                    e = k2
                    while e < end and toks[e].value != ";":
                        if toks[e].value == "{":
                            e = _match_paren(toks, e, "{", "}") - 1
                        elif toks[e].value == "(":
                            e = _match_paren(toks, e) - 1
                        e += 1
                    init = _flatten(toks[k2:e]).lstrip("=")
                    init_end = e
                cls.fields.append(VarDecl(name=name_tok.value,
                                          type_str=type_str,
                                          line=name_tok.line, init=init))
                e = init_end
                while e < end and toks[e].value != ";":
                    e += 1
                return e + 1
        # Out-of-line constructor: `Cls::Cls(...)` — _parse_type absorbed the
        # whole qualified name as the "type".
        if k < end and toks[k].value == "(" and "::" in type_str:
            parts = [p for p in re.split(r"\s*::\s*", type_str) if p]
            if len(parts) >= 2 and parts[-1] == parts[-2]:
                m = Method(name=parts[-1], cls=parts[-1], line=toks[j].line,
                           is_ctor=True, path=self.ir.rel)
                return self._finish_callable(k, end, m, cls)
        # `operator` overloads, conversion operators: skip to ; or matching {}
        if k < end and toks[k].value == "operator":
            e = k
            while e < end and toks[e].value not in ("{", ";"):
                e += 1
            if e < end and toks[e].value == "{":
                return _match_paren(toks, e, "{", "}")
            return e + 1
        return None

    def _finish_callable(self, i, end, m: Method, cls):
        """i points at '(' of the parameter list."""
        toks = self.toks
        close_params = _match_paren(toks, i)
        m.params = self._parse_params(i + 1, close_params - 1)
        j = close_params
        while j < end and toks[j].kind == "id" and toks[j].value in (
                "const", "noexcept", "override", "final", "mutable"):
            j += 1
        if j < end and toks[j].value == "->":  # trailing return type
            ts, j2 = _parse_type(toks, j + 1)
            if ts:
                m.return_type = ts
                j = j2
        if j < end and toks[j].value == "=":
            # = default / = delete / = 0 (pure virtual)
            while j < end and toks[j].value != ";":
                j += 1
            self._register(m, cls)
            return j + 1
        if j < end and toks[j].value == ":" and (m.is_ctor or m.cls):
            # ctor init list: record initialized field names
            m.is_ctor = True
            k = j + 1
            while k < end and toks[k].value != "{":
                if toks[k].kind == "id" and k + 1 < end and \
                        toks[k + 1].value in ("(", "{"):
                    m.ctor_inits.append(toks[k].value)
                    k = _match_paren(toks, k + 1, toks[k + 1].value,
                                     ")" if toks[k + 1].value == "(" else "}")
                else:
                    k += 1
            j = k
        if j < end and toks[j].value == "{":
            body_close = _match_paren(toks, j, "{", "}")
            m.has_body = True
            self._pending_bodies.append((j + 1, body_close - 1, m, cls))
            self._register(m, cls)
            return body_close
        if j < end and toks[j].value == ";":
            self._register(m, cls)
            return j + 1
        return None

    def _register(self, m: Method, cls):
        if cls is not None and m.cls == cls.name:
            cls.methods.append(m)
        self.ir.functions.append(m)

    def _parse_params(self, i, end):
        params = []
        toks = self.toks
        depth = 0
        start = i
        slices = []
        while i < end:
            v = toks[i].value
            if v in ("(", "{", "["):
                depth += 1
            elif v in (")", "}", "]"):
                depth -= 1
            elif v == "<":
                i = _match_angle(toks, i) - 1
            elif v == "," and depth == 0:
                slices.append((start, i))
                start = i + 1
            i += 1
        if start < end:
            slices.append((start, end))
        for s, e in slices:
            ts, k = _parse_type(toks, s)
            if ts is None:
                continue
            if k < e and toks[k].kind == "id":
                params.append(VarDecl(name=toks[k].value, type_str=ts,
                                      line=toks[k].line))
            else:
                params.append(VarDecl(name="", type_str=ts,
                                      line=toks[s].line))
        return params

    # -- function bodies -----------------------------------------------------

    def _parse_body(self, i, end, m: Method, cls):
        toks = self.toks
        field_names = {f.name for f in cls.fields} if cls is not None else set()
        # Lock regions: list of (mutex_names frozenset, start_idx, end_idx).
        regions = []

        def guards_at(idx):
            names = set()
            for mus, s, e in regions:
                if s <= idx < e:
                    names |= mus
            return frozenset(names)

        # Pre-scan for lock-guard declarations to build regions.
        j = i
        block_stack = []  # indexes of '{'
        pending = []      # (mutex_names, start_idx, depth)
        while j < end:
            v = toks[j].value
            if v == "{":
                block_stack.append(j)
            elif v == "}":
                depth = len(block_stack)
                block_stack and block_stack.pop()
                still = []
                for mus, s, d in pending:
                    if d >= depth:
                        regions.append((mus, s, j))
                    else:
                        still.append((mus, s, d))
                pending = still
            elif v == "std" and j + 2 < end and toks[j + 1].value == "::" and \
                    toks[j + 2].value in _LOCK_TYPES:
                k = j + 3
                if k < end and toks[k].value == "<":
                    k = _match_angle(toks, k)
                if k < end and toks[k].kind == "id":
                    k += 1  # variable name
                    if k < end and toks[k].value in ("(", "{"):
                        close = _match_paren(
                            toks, k, toks[k].value,
                            ")" if toks[k].value == "(" else "}")
                        mus = frozenset(
                            t.value for t in toks[k + 1:close - 1]
                            if t.kind == "id" and t.value in field_names)
                        pending.append((mus, close, len(block_stack)))
                        j = close
                        continue
            j += 1
        depth = 0
        for mus, s, d in pending:  # regions open to end of body
            regions.append((mus, s, end))

        # Main statement scan.
        j = i
        while j < end:
            t = toks[j]
            v = t.value
            if v == "for" and j + 1 < end and toks[j + 1].value == "(":
                close = _match_paren(toks, j + 1)
                inner = toks[j + 2:close - 1]
                colon = None
                depth2 = 0
                for k2, tk in enumerate(inner):
                    if tk.value in ("(", "{", "["):
                        depth2 += 1
                    elif tk.value in (")", "}", "]"):
                        depth2 -= 1
                    elif tk.value == "<":
                        pass
                    elif tk.value == ":" and depth2 == 0 and \
                            (k2 == 0 or inner[k2 - 1].value != ":") and \
                            (k2 + 1 >= len(inner) or
                             inner[k2 + 1].value != ":"):
                        colon = k2
                        break
                if colon is not None:
                    expr = inner[colon + 1:]
                    m.range_fors.append(RangeFor(expr=expr, line=t.line))
                else:
                    # classic for: look for `<id chain>.begin()`
                    for k2 in range(len(inner) - 2):
                        if inner[k2].value in (".", "->") and \
                                inner[k2 + 1].value in ("begin", "cbegin") and \
                                k2 + 2 < len(inner) and \
                                inner[k2 + 2].value == "(":
                            s2 = k2
                            while s2 > 0 and (inner[s2 - 1].kind == "id" or
                                              inner[s2 - 1].value in
                                              (".", "->", "::")):
                                s2 -= 1
                            m.iter_loops.append(IterLoop(
                                base=inner[s2:k2], line=t.line))
                            break
                j = close
                continue
            if v == "new" and t.kind == "id":
                if j + 1 < end and toks[j + 1].value != "(":
                    m.new_lines.append(t.line)
                j += 1
                continue
            if t.kind == "id" and v not in _KEYWORDS:
                # local declaration?
                consumed = self._try_local(j, end, m)
                if consumed is not None:
                    j = consumed
                    continue
                # call?  id (
                nxt = toks[j + 1].value if j + 1 < end else ""
                if nxt == "(" and v not in ("assert",):
                    recv = []
                    s2 = j
                    if j >= 1 and toks[j - 1].value in (".", "->"):
                        s2 = j - 1
                        while s2 > 0 and (toks[s2 - 1].kind in ("id",) or
                                          toks[s2 - 1].value in
                                          (".", "->", "::", ")", "]")):
                            if toks[s2 - 1].value in (")", "]"):
                                break
                            s2 -= 1
                        recv = toks[s2:j - 1]
                    m.calls.append(Call(name=v, recv=recv, line=t.line))
                if v == "new":
                    pass
                # field access?
                if cls is not None and v in field_names:
                    prev = toks[j - 1].value if j > i else ""
                    prev2 = toks[j - 2].value if j - 1 > i else ""
                    bare = prev not in (".", "->") or \
                        (prev == "->" and prev2 == "this")
                    if bare:
                        m.field_accesses.append(FieldAccess(
                            name=v, line=t.line, guarded_by=guards_at(j)))
                # assignment `id = rhs ;` (plain identifier targets only;
                # `x.member = ...` is the member's business, not x's)
                prev_tok = toks[j - 1].value if j > i else ""
                if nxt == "=" and prev_tok not in (".", "->") and \
                        (j + 2 >= end or toks[j + 2].value != "="):
                    e2 = j + 2
                    while e2 < end and toks[e2].value not in (";", "{"):
                        if toks[e2].value == "(":
                            e2 = _match_paren(toks, e2) - 1
                        e2 += 1
                    m.assigns.append(Assign(target=v,
                                            rhs=toks[j + 2:e2], line=t.line))
                j += 1
                continue
            j += 1

    def _try_local(self, j, end, m: Method):
        toks = self.toks
        if toks[j].value in _KEYWORDS or toks[j].value in ("SSR_CHECK_MSG",):
            return None
        prev = toks[j - 1].value if j > 0 else ""
        if prev in (".", "->", "::", "(", ",", "=", "<", "return", "+",
                    "-", "*", "/", "!", "&", "|", "<<", ">>"):
            # only consider statement starts (heuristic: after ; { } or ))
            if prev not in (";", "{", "}", ")"):
                return None
        ts, k = _parse_type(toks, j)
        if ts is None or k >= end:
            return None
        if toks[k].kind != "id" or toks[k].value in _KEYWORDS:
            return None
        name_tok = toks[k]
        k2 = k + 1
        if k2 >= end:
            return None
        nxt = toks[k2].value
        if nxt not in (";", "=", "{", "("):
            return None
        if nxt == "(":
            # function call vs ctor-style init: `Type name(args);` only if
            # type is not a single lower-case id (avoids `foo bar(...)` that
            # is really a call); accept qualified/known type spellings.
            close = _match_paren(toks, k2)
            if close >= end or toks[close].value != ";":
                return None
        init = ""
        e = k2
        if nxt != ";":
            depth = 0
            while e < end:
                v = toks[e].value
                if v in ("(", "{", "["):
                    depth += 1
                elif v in (")", "}", "]"):
                    depth -= 1
                elif v == ";" and depth == 0:
                    break
                e += 1
            init = _flatten(toks[k2:e]).lstrip("=")
        m.locals.append(VarDecl(name=name_tok.value, type_str=ts,
                                line=name_tok.line, init=init))
        # Resume the scan *inside* the initializer so calls and `new`
        # expressions there (`int r = rand();`, `T* p = new T();`) are still
        # seen by the main statement walk.
        return k + 1


# --------------------------------------------------------------------------
# Program: cross-file indexes, type resolution, call graph
# --------------------------------------------------------------------------

class Program:
    def __init__(self, files: list[FileIR]):
        self.files = files
        self.classes: dict[str, ClassInfo] = {}
        self.enums: dict[str, list] = {}
        self.aliases: dict[str, str] = {}
        self.methods_by_name: dict[str, list[Method]] = {}
        self.methods_by_key: dict[str, list[Method]] = {}
        for f in files:
            for c in f.classes:
                self.classes.setdefault(c.name, c)
                for en, vals in c.enums.items():
                    self.enums.setdefault(en, vals)
            self.enums.update(f.enums)
            self.aliases.update(f.aliases)
            for fn in f.functions:
                self.methods_by_name.setdefault(fn.name, []).append(fn)
                self.methods_by_key.setdefault(fn.key(), []).append(fn)

    # -- type utilities -----------------------------------------------------

    def canon_type(self, ts: str) -> str:
        ts = ts.strip()
        for q in ("const ", "constexpr ", "static ", "mutable "):
            while ts.startswith(q):
                ts = ts[len(q):]
        ts = ts.rstrip("&* ").replace("const", "").strip()
        seen = set()
        while ts in self.aliases and ts not in seen:
            seen.add(ts)
            ts = self.aliases[ts].rstrip("&* ").strip()
        return ts

    def class_of_type(self, ts: str):
        base = self.canon_type(ts)
        base = base.split("<")[0]
        base = base.split("::")[-1] if base.startswith("std") is False else base
        return self.classes.get(base)

    def merged_fields(self, cls: ClassInfo):
        """Fields of cls and (one level of) its bases."""
        out = list(cls.fields)
        for b in cls.bases:
            bc = self.classes.get(b)
            if bc:
                out.extend(bc.fields)
        return out

    def resolve_expr_type(self, expr_tokens, scope: Method,
                          cls: ClassInfo | None) -> str:
        """Resolve the static type of a member/call chain expression like
        `foo_`, `e.time`, `engine.sim().now()`, `vcm.tenant_names()`.
        Returns '' when unknown."""
        toks = [t for t in expr_tokens if t.value not in ("const", "&")]
        if not toks:
            return ""
        i = 0
        cur = ""
        # Base
        t0 = toks[i]
        if t0.value == "this":
            cur = cls.name if cls else ""
            i += 1
        elif t0.kind == "id":
            name = t0.value
            # qualified std:: type-expression (e.g. a cast) — bail
            nxt_call = i + 1 < len(toks) and toks[i + 1].value == "("
            if nxt_call:
                cur = self._return_type_of(name, cls)
                i = _match_paren(toks, i + 1)
            else:
                cur = scope.var_type(name)
                if not cur and cls is not None:
                    cur = self._field_type(cls, name)
                if not cur:
                    return ""
                i += 1
        else:
            return ""
        # Chain
        while i < len(toks) and cur:
            if toks[i].value in (".", "->"):
                i += 1
                if i >= len(toks) or toks[i].kind != "id":
                    break
                member = toks[i].value
                is_call = i + 1 < len(toks) and toks[i + 1].value == "("
                owner = self.class_of_type(cur)
                nxt = ""
                if is_call:
                    if owner is not None:
                        for mtd in owner.methods:
                            if mtd.name == member and mtd.return_type:
                                nxt = mtd.return_type
                                break
                    if not nxt:
                        nxt = self._return_type_of(member, owner)
                    i = _match_paren(toks, i + 1)
                else:
                    if owner is not None:
                        nxt = self._field_type(owner, member)
                    i += 1
                cur = nxt
            else:
                break
        return cur

    def _field_type(self, cls: ClassInfo, name: str) -> str:
        for f in self.merged_fields(cls):
            if f.name == name:
                return f.type_str
        return ""

    def _return_type_of(self, name: str, owner) -> str:
        cands = []
        if owner is not None:
            cands = [m for m in owner.methods if m.name == name]
        if not cands:
            cands = self.methods_by_name.get(name, [])
        rets = {m.return_type for m in cands if m.return_type}
        return rets.pop() if len(rets) == 1 else ""

    # -- call graph ---------------------------------------------------------

    def build_reachability(self, sink_pred):
        """Return the set of Method objects from which a sink call is
        reachable.  `sink_pred(call, method)` decides direct sinks."""
        direct = set()
        for fns in self.methods_by_key.values():
            for m in fns:
                for call in m.calls:
                    if sink_pred(call, m):
                        direct.add(id(m))
                        break
        # reverse call graph by callee name
        callers_of: dict[str, list[Method]] = {}
        for fns in self.methods_by_key.values():
            for m in fns:
                for call in m.calls:
                    callers_of.setdefault(call.name, []).append(m)
        reach = set(direct)
        work = []
        for fns in self.methods_by_key.values():
            for m in fns:
                if id(m) in reach:
                    work.append(m)
        while work:
            m = work.pop()
            for caller in callers_of.get(m.name, []):
                if id(caller) not in reach:
                    reach.add(id(caller))
                    work.append(caller)
        return reach


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

_UNORDERED = ("unordered_map<", "unordered_set<", "unordered_multimap<",
              "unordered_multiset<")

# Files whose functions count as digest/trace emission sinks.
_EMIT_FILE_HINTS = ("run_digest", "trace_capture", "trace_export",
                    "bench_report")


def _observer_callbacks(program: Program):
    obs = program.classes.get("EngineObserver")
    if obs is None:
        return []
    return [m for m in obs.methods if m.name.startswith("on_") and
            m.is_virtual]


def rule_nondet_iteration(program: Program):
    findings = []
    callback_names = {m.name for m in _observer_callbacks(program)}
    # Also treat ReservationHook callbacks as sinks (same dispatch hazard).
    hook = program.classes.get("ReservationHook")
    if hook is not None:
        callback_names |= {m.name for m in hook.methods
                           if m.name.startswith("on_")}

    def is_sink(call: Call, m: Method) -> bool:
        if call.name in callback_names and callback_names:
            return True
        if call.name in ("schedule_at", "schedule_after"):
            return True
        if call.name == "push" and call.recv:
            rt = program.resolve_expr_type(call.recv, m, _owner(program, m))
            if "EventQueue" in rt:
                return True
        if call.name in ("serialize", "serialize_trace", "write_file",
                         "digest_run", "run_digest", "format_digest"):
            return True
        return False

    def emits(m: Method) -> bool:
        stem = Path(m.path).stem
        return any(h in stem for h in _EMIT_FILE_HINTS)

    reach = program.build_reachability(is_sink)

    # StageSelector overrides ARE the dispatch path: the engine consults
    # stage_score / rank_slots while ordering stages and slots, so hash-order
    # iteration inside an override — or inside any helper it calls — leaks
    # straight into placement decisions (sched/types.h documents this
    # contract).  The sink pass above walks callee -> caller; selector
    # methods need the opposite closure, caller -> callee, because the
    # hazard sits *below* the entry point rather than above a sink call.
    selector = program.classes.get("StageSelector")
    entry_names = ({m.name for m in selector.methods if m.is_virtual and
                    not m.is_dtor} if selector is not None else set())
    dispatch_hot: set[int] = set()
    if entry_names:
        work = [m for fns in program.methods_by_key.values() for m in fns
                if m.name in entry_names and m.has_body]
        dispatch_hot = {id(m) for m in work}
        while work:
            m = work.pop()
            for call in m.calls:
                for callee in program.methods_by_name.get(call.name, []):
                    if callee.has_body and id(callee) not in dispatch_hot:
                        dispatch_hot.add(id(callee))
                        work.append(callee)

    for f in program.files:
        for m in f.functions:
            if not m.has_body:
                continue
            owner = _owner(program, m)
            hot = id(m) in reach or id(m) in dispatch_hot or emits(m)
            if not hot:
                continue
            sites = [(rf.expr, rf.line) for rf in m.range_fors]
            sites += [(il.base, il.line) for il in m.iter_loops]
            for expr, line in sites:
                ts = program.resolve_expr_type(expr, m, owner)
                canon = program.canon_type(ts) if ts else ""
                if any(u in canon for u in _UNORDERED):
                    why = ("sits on the StageSelector dispatch path"
                           if id(m) in dispatch_hot and id(m) not in reach
                           else "reaches observer dispatch / event "
                                "scheduling / digest emission")
                    findings.append(Finding(
                        f.rel, line, "nondet-iteration",
                        f"iterates `{canon}` in `{m.key()}`, which {why}; "
                        "hash order is not reproducible — use an ordered "
                        "container or sort a snapshot first"))
    return findings


def _owner(program: Program, m: Method):
    return program.classes.get(m.cls) if m.cls else None


_PTR_KEYED = re.compile(
    r"std\s*::\s*(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*(?:const\s*)?\*")


def rule_pointer_keyed_order(program: Program):
    findings = []
    for f in program.files:
        decls = []
        for c in f.classes:
            decls += [(v, f"field of {c.name}") for v in c.fields]
        for m in f.functions:
            if m.path != f.rel:
                continue
            decls += [(v, f"local in {m.key()}") for v in m.locals]
            decls += [(v, f"parameter of {m.key()}") for v in m.params]
        for v, where in decls:
            if _PTR_KEYED.search(v.type_str):
                findings.append(Finding(
                    f.rel, v.line, "pointer-keyed-order",
                    f"`{v.type_str} {v.name}` ({where}) is ordered by a raw "
                    "pointer key; traversal follows allocation addresses, "
                    "which differ run to run — key by a stable id instead"))
    return findings


_MUTEX_TYPES = ("std::mutex", "std::shared_mutex", "std::recursive_mutex",
                "std::timed_mutex")
_LOCK_EXEMPT_FIELD_TYPES = ("mutex", "condition_variable", "atomic")


def rule_lock_discipline(program: Program):
    findings = []
    for cname, cls in sorted(program.classes.items()):
        mutexes = {v.name for v in cls.fields
                   if any(mt in v.type_str for mt in _MUTEX_TYPES)}
        if not mutexes:
            continue
        guarded: dict[str, list] = {}
        unguarded: dict[str, list] = {}
        for m in program.methods_by_key.get(f"{cname}::", []):
            pass
        methods = [m for fns in program.methods_by_key.values() for m in fns
                   if m.cls == cname and m.has_body]
        for m in methods:
            if m.is_ctor or m.is_dtor:
                continue
            for fa in m.field_accesses:
                if fa.name in mutexes:
                    continue
                ftype = cls.field_type(fa.name)
                if any(x in ftype for x in _LOCK_EXEMPT_FIELD_TYPES):
                    continue
                if fa.guarded_by & mutexes:
                    guarded.setdefault(fa.name, []).append((m, fa))
                else:
                    unguarded.setdefault(fa.name, []).append((m, fa))
        for fname in sorted(set(guarded) & set(unguarded)):
            for m, fa in unguarded[fname]:
                findings.append(Finding(
                    m.path, fa.line, "lock-discipline",
                    f"`{cname}::{fname}` is accessed under "
                    f"{'/'.join(sorted(guarded[fname][0][1].guarded_by))} "
                    f"elsewhere but without a lock in `{m.key()}` — race "
                    "candidate; take the lock or document why it is safe"))
    return findings


def rule_observer_schema(program: Program):
    findings = []
    callbacks = _observer_callbacks(program)
    if not callbacks:
        return findings
    obs = program.classes["EngineObserver"]

    stream = program.classes.get("TraceStream")
    replay_auditor = program.classes.get("ReplayAuditor")
    kinds = program.enums.get("TraceEventKind", [])

    if stream is None:
        findings.append(Finding(
            obs.path, obs.line, "observer-schema",
            "EngineObserver is analyzed but no TraceStream class is in the "
            "analysis set; the event schema cannot be checked"))
        return findings

    stream_methods = {m.name: m for fns in program.methods_by_key.values()
                      for m in fns if m.cls == "TraceStream"}

    def kinds_in(m: Method, whole_file: bool):
        """TraceEventKind enumerators named in m's definition (or its whole
        defining file)."""
        used = set()
        for f in program.files:
            if f.rel != m.path:
                continue
            if whole_file:
                text = "\n".join(f.lines)
            else:
                span = _method_line_span(f, m)
                text = "\n".join(f.lines[span[0] - 1:span[1]])
            for k in kinds:
                if re.search(r"TraceEventKind\s*::\s*" + k, text):
                    used.add(k)
        return used

    def stream_kinds(mname: str):
        used = set()
        for fns in program.methods_by_key.values():
            for m in fns:
                if m.cls == "TraceStream" and m.name == mname and m.has_body:
                    used |= kinds_in(m, whole_file=False)
        return used

    emitted_by = {}  # kind -> first callback whose override emits it
    for cb in callbacks:
        if cb.name not in stream_methods:
            findings.append(Finding(
                obs.path, cb.line, "observer-schema",
                f"EngineObserver::{cb.name} has no TraceStream override; every "
                "stream consumer (RunResult fold, audit, export, capture) "
                "silently misses the event — extend TraceEventKind/TraceStream "
                "and bump kTraceVersion"))
            continue
        if not kinds:
            continue
        used = stream_kinds(cb.name)
        sm = stream_methods[cb.name]
        if not used:
            findings.append(Finding(
                sm.path, sm.line, "observer-schema",
                f"TraceStream::{cb.name} never emits a TraceEventKind; the "
                "override exists but the event is dropped"))
        for k in sorted(used):
            if k in emitted_by:
                findings.append(Finding(
                    sm.path, sm.line, "observer-schema",
                    f"TraceStream::{cb.name} emits TraceEventKind::{k}, which "
                    f"TraceStream::{emitted_by[k]} already emits; consumers "
                    "cannot tell the two callbacks apart"))
            else:
                emitted_by[k] = cb.name

    # TraceEventKind enumerators referenced by ReplayAuditor bodies.
    replay_kinds = set()
    if replay_auditor is not None:
        for fns in program.methods_by_key.values():
            for m in fns:
                if m.cls == "ReplayAuditor" and m.has_body:
                    replay_kinds |= kinds_in(m, whole_file=True)
        for k in kinds:
            if k not in replay_kinds:
                findings.append(Finding(
                    replay_auditor.path, replay_auditor.line,
                    "observer-schema",
                    f"TraceEventKind::{k} is never handled by ReplayAuditor; "
                    "the invariant audit skips its transition"))
    return findings


def _method_line_span(f: FileIR, m: Method):
    """(first, last) line of a method definition within its file: from its
    own line to the line before the next function in the same file."""
    starts = sorted(fn.line for fn in f.functions if fn.path == f.rel)
    last = len(f.lines)
    for s in starts:
        if s > m.line:
            last = s - 1
            break
    return (m.line, last)


_TIME_TYPES = {"SimTime", "SimDuration"}
_TIME_RETURNING = {"now", "next_event_time", "next_time", "job_finish_time",
                   "jct"}


def _is_time_type(program: Program, ts: str) -> bool:
    raw = ts.replace("const", "").strip().rstrip("&* ")
    return raw.split("::")[-1] in _TIME_TYPES


def _is_int_type(ts: str) -> bool:
    raw = ts.replace("const", "").replace("unsigned", "").strip()
    raw = raw.rstrip("&* ").strip()
    return raw in _INT_TYPES or raw.replace("std::", "") in {
        t.replace("std::", "") for t in _INT_TYPES}


def rule_sim_time_arith(program: Program):
    findings = []
    for f in program.files:
        # (a) float declarations anywhere: simulated time is double end to
        # end; a float in the tree is either a timestamp truncation or an
        # invitation for one.
        decls = []
        for c in f.classes:
            decls += [(v, None, c) for v in c.fields]
        for m in f.functions:
            if m.path != f.rel:
                continue
            owner = _owner(program, m)
            decls += [(v, m, owner) for v in m.locals]
            decls += [(v, m, owner) for v in m.params]
        for v, m, owner in decls:
            base = v.type_str.replace("const", "").strip().rstrip("&* ")
            if base == "float":
                findings.append(Finding(
                    f.rel, v.line, "sim-time-arith",
                    f"`float {v.name}` — simulated time and all derived "
                    "quantities are double (SimTime); float silently drops "
                    "precision"))
        # (b) int var initialized from a time-typed expression without a cast
        # and (d) SimTime var initialized from int/int division.
        for m in f.functions:
            if m.path != f.rel or not m.has_body:
                continue
            owner = _owner(program, m)
            env = {v.name: v.type_str for v in m.params + m.locals}
            if owner is not None:
                for fv in program.merged_fields(owner):
                    env.setdefault(fv.name, fv.type_str)

            def narrowing_target(ts: str) -> bool:
                # bool-from-comparison is ordinary control flow, not a
                # timestamp truncation.
                return _is_int_type(ts) and "bool" not in ts

            def comparisonish(expr: str) -> bool:
                return bool(re.search(r"[<>!=]=|&&|\|\||[<>](?![<>])", expr))

            def expr_has_time(tokens_str: str) -> bool:
                for name in re.findall(r"[A-Za-z_]\w*", tokens_str):
                    if name in ("static_cast", "int64_t", "uint64_t"):
                        continue
                    ts = env.get(name, "")
                    if ts and _is_time_type(program, ts):
                        return True
                    if name in _TIME_RETURNING and "(" in tokens_str:
                        return True
                return False

            for v in m.locals:
                if not v.init:
                    continue
                if narrowing_target(v.type_str) and \
                        "static_cast" not in v.init and \
                        not comparisonish(v.init) and \
                        expr_has_time(v.init):
                    findings.append(Finding(
                        f.rel, v.line, "sim-time-arith",
                        f"`{v.type_str} {v.name}` initialized from a "
                        "time-typed expression without an explicit cast; "
                        "narrowing truncates the timestamp"))
                if _is_time_type(program, v.type_str) and \
                        "static_cast" not in v.init and \
                        _int_division(v.init, env):
                    findings.append(Finding(
                        f.rel, v.line, "sim-time-arith",
                        f"`{v.type_str} {v.name}` computed by integer "
                        "division; the quotient truncates before the "
                        "conversion to simulated time"))
            for a in m.assigns:
                tt = env.get(a.target, "")
                rhs = _flatten(a.rhs)
                if tt and narrowing_target(tt) and \
                        "static_cast" not in rhs and \
                        not comparisonish(rhs) and expr_has_time(rhs):
                    findings.append(Finding(
                        f.rel, a.line, "sim-time-arith",
                        f"assignment to `{a.target}` ({tt}) from a "
                        "time-typed expression without an explicit cast"))
                if tt and _is_time_type(program, tt) and \
                        "static_cast" not in rhs and _int_division(rhs, env):
                    findings.append(Finding(
                        f.rel, a.line, "sim-time-arith",
                        f"assignment to `{a.target}` ({tt}) from integer "
                        "division; the quotient truncates first"))
    return findings


def _int_division(expr: str, env: dict) -> bool:
    m = re.search(r"([A-Za-z_]\w*|\d[\w.]*)\s*/\s*([A-Za-z_]\w*|\d[\w.]*)",
                  expr)
    if not m:
        return False

    def is_int_term(term: str) -> bool:
        if re.fullmatch(r"\d+", term):
            return True
        if re.fullmatch(r"\d[\w.]*", term):
            return False  # 30.0, 1e-9 …
        ts = env.get(term, "")
        return bool(ts) and _is_int_type(ts)

    return is_int_term(m.group(1)) and is_int_term(m.group(2))


def rule_nondet_api(program: Program):
    findings = []
    for f in program.files:
        for m in f.functions:
            if m.path != f.rel or not m.has_body:
                continue
            for call in m.calls:
                if call.name in ("rand", "srand") and not call.recv:
                    findings.append(Finding(
                        f.rel, call.line, "nondet-api",
                        f"{call.name}() is unseeded global state; draw from "
                        "the scenario's ssr::Rng"))
            for v in m.locals:
                self_t = v.type_str.replace(" ", "")
                if "random_device" in self_t:
                    findings.append(Finding(
                        f.rel, v.line, "nondet-api",
                        "std::random_device is non-deterministic; derive "
                        "seeds from ssr::Rng::fork() instead"))
                base = program.canon_type(v.type_str).replace("std::", "")
                if base in _RNG_ENGINES and _is_default_init(v.init):
                    findings.append(Finding(
                        f.rel, v.line, "nondet-api",
                        f"`{v.type_str} {v.name}` is default-constructed; a "
                        "hidden fixed seed makes every run identical but "
                        "unlabeled — pass an explicit seed"))
            for line in m.new_lines:
                findings.append(Finding(
                    f.rel, line, "nondet-api",
                    "naked `new` leaks on exceptions; use std::make_unique "
                    "or a container"))
            # time(nullptr) style wall-clock reads
            for call in m.calls:
                if call.name == "time" and not call.recv:
                    findings.append(Finding(
                        f.rel, call.line, "nondet-api",
                        "wall-clock time() breaks replay determinism; plumb "
                        "a seed or simulated clock through"))
        # never-seeded engine fields: no default member init and no ctor
        # init-list entry in any constructor.
        for c in f.classes:
            ctors = [m for fns in program.methods_by_key.values()
                     for m in fns if m.cls == c.name and m.is_ctor]
            inited = set()
            for ct in ctors:
                inited |= set(ct.ctor_inits)
            for v in c.fields:
                base = program.canon_type(v.type_str).replace("std::", "")
                if base in _RNG_ENGINES and not v.init and \
                        v.name not in inited:
                    findings.append(Finding(
                        f.rel, v.line, "nondet-api",
                        f"engine field `{v.name}` is never seeded (no "
                        "default member initializer, no constructor "
                        "init-list entry); it falls back to the "
                        "implementation's fixed seed"))
    return findings


def _is_default_init(init: str) -> bool:
    stripped = init.replace(" ", "")
    return stripped in ("", "{}", "()")


# Comments, then string and char literals.
_COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'",
    re.DOTALL)


def _code_lines(f: FileIR) -> list:
    """f's source lines with comments and string/char literals blanked, so
    `// no assert() here` and "abort()" are not calls.  Unlike the lexer's
    token stream, preprocessor lines (macro bodies) stay."""
    text = "\n".join(f.lines)
    return _COMMENT_OR_LITERAL.sub(
        lambda m: re.sub(r"[^\n]", " ", m.group()), text).split("\n")


_ASSERT_CALLS = (
    (re.compile(r"(?<![\w.])assert\s*\("),
     "assert() aborts without context; use SSR_CHECK or SSR_CHECK_MSG"),
    (re.compile(r"(?<![\w.])(?:std::)?abort\s*\("),
     "abort() is uncatchable; throw via SSR_CHECK_MSG(false, ...) instead"),
)


def rule_no_assert(program: Program):
    findings = []
    for f in program.files:
        for lineno, line in enumerate(_code_lines(f), start=1):
            for pattern, message in _ASSERT_CALLS:
                if pattern.search(line):
                    findings.append(
                        Finding(f.rel, lineno, "no-assert", message))
    return findings


_GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+\w+_H\w*\s*$")
_PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$")


def rule_pragma_once(program: Program):
    findings = []
    for f in program.files:
        if f.path.suffix not in HEADER_SUFFIXES:
            continue
        lines = _code_lines(f)
        if any(_PRAGMA_ONCE_RE.match(line) for line in lines):
            continue
        guard = next((n for n, line in enumerate(lines, start=1)
                      if _GUARD_RE.match(line)), None)
        findings.append(Finding(
            f.rel, guard or 1, "pragma-once",
            "header lacks #pragma once" +
            (" (uses an #ifndef guard)" if guard else "")))
    return findings


RULE_FUNCS = {
    "nondet-iteration": rule_nondet_iteration,
    "pointer-keyed-order": rule_pointer_keyed_order,
    "lock-discipline": rule_lock_discipline,
    "observer-schema": rule_observer_schema,
    "sim-time-arith": rule_sim_time_arith,
    "nondet-api": rule_nondet_api,
    "no-assert": rule_no_assert,
    "pragma-once": rule_pragma_once,
}


# --------------------------------------------------------------------------
# Driver: collection and reporting
# --------------------------------------------------------------------------

def collect_files(paths, root: Path):
    files = []
    for arg in paths:
        p = Path(arg)
        if not p.is_absolute():
            p = root / p
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CXX_SUFFIXES and f.is_file():
                    if SKIP_DIR_PART not in f.as_posix():
                        files.append(f)
        else:
            print(f"ssr_analyze: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS)
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--json", metavar="PATH",
                        help="write structured findings to PATH ('-' stdout)")
    parser.add_argument("--root", metavar="DIR", default=".",
                        help="project root for relative paths (default .)")
    parser.add_argument("--rules", metavar="R1,R2",
                        help="run only these rules (comma-separated)")
    args = parser.parse_args()

    if args.list_rules:
        for rule, blurb in RULES.items():
            print(f"{rule:20} {blurb}")
        return 0

    root = Path(args.root).resolve()
    files = collect_files(args.paths, root)
    if not files:
        print("ssr_analyze: no input files", file=sys.stderr)
        return 2

    irs = []
    parsers = []
    for f in files:
        try:
            rel = f.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = f.as_posix()
        text = f.read_text(encoding="utf-8", errors="replace")
        p = FileParser(f, rel, text)
        irs.append(p.parse())
        parsers.append(p)
    # Second phase: parse bodies now that every class in the analysis set is
    # known (out-of-line .cpp methods need their header's field list).
    class_index = {}
    for ir in irs:
        for c in ir.classes:
            class_index.setdefault(c.name, c)
    for p in parsers:
        p.finish(class_index)

    program = Program(irs)

    selected = list(RULE_FUNCS)
    if args.rules:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in RULE_FUNCS]
        if unknown:
            print(f"ssr_analyze: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    findings = []
    for rule in selected:
        findings.extend(RULE_FUNCS[rule](program))
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))

    for f in findings:
        print(f.text())

    if args.json:
        doc = {
            "schema": "ssr-analyze-v1",
            "files": len(files),
            "findings": [
                {"file": f.rel, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in findings
            ],
        }
        payload = json.dumps(doc, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="utf-8")

    print(f"ssr_analyze: {len(files)} files, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
