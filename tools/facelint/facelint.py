#!/usr/bin/env python3
"""facelint — AST-ish determinism & invariant lint for the FaCE repo.

Enforces the repo's real correctness invariants as named rules with
file:line diagnostics (see tools/facelint/README.md for the rationale
behind each rule and the bug/PR that motivated it):

  no-unordered-sim   banned containers on simulated-state paths
                     (src/buffer, src/core, src/engine, src/recovery)
  no-wallclock-sim   no host clocks / host randomness in src/
  no-pointer-order   no ordering/hashing/map-keying on raw pointer values
  mark-dirty-range   frame-payload writes must pair with MarkDirtyRange
  obs-hot-handle     no string-keyed metric lookups outside setup paths

Engine: a self-contained C++ lexer + heuristic function segmenter. The
fixture suite under tests/facelint pins its behavior, and it needs nothing
beyond Python 3.

Suppression:
  - inline: `// facelint: allow(<rule>[, <rule>...]) [reason]` on the
    finding line or the line directly above it (`all` allows every rule).
  - baseline: `--baseline FILE` with lines of the form
        <rule>|<path>|<exact stripped source line>|<justification>
    Entries are keyed on line *content*, not line numbers, so they
    survive unrelated edits. A baseline entry that matches nothing is an
    error (stale baselines rot).

Input selection: --compile-commands lists the translation units; files
under src/ are linted (plus all src/**/*.h, which compile_commands never
names). Explicit file arguments override both.

A fixture file may carry `// FACELINT-FIXTURE-PATH: src/core/x.cc` to be
linted as if it lived at that path (used by tests/facelint).
"""

import argparse
import glob
import json
import os
import re
import sys
from collections import namedtuple

RULES = {
    "no-unordered-sim":
        "std::unordered_map/set, std::list, std::set on a simulated-state "
        "path — use PageMap / IntrusiveList / LazyMinHeap / sorted vector",
    "no-wallclock-sim":
        "host clock or host randomness in src/ — simulated state must "
        "derive from virtual time and seeded PRNGs",
    "no-pointer-order":
        "ordering/hashing/map-keying on raw pointer values — ASLR makes "
        "it nondeterministic across runs",
    "mark-dirty-range":
        "direct frame-payload write without MarkDirtyRange in the same "
        "function — the delta chain silently degrades to whole-page",
    "obs-hot-handle":
        "string-keyed metric lookup outside a registration/setup path — "
        "resolve handles once (src/obs README cardinal rule)",
}

# Directories (relative, '/'-terminated) where each rule applies.
UNORDERED_SCOPE = ("src/buffer/", "src/core/", "src/engine/", "src/recovery/")
SRC_SCOPE = ("src/",)
OBS_EXEMPT = ("src/obs/",)

Token = namedtuple("Token", ["kind", "text", "line"])
Finding = namedtuple("Finding", ["rule", "path", "line", "message"])
Func = namedtuple("Func", ["name", "sig", "body"])  # token-index slices

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "throw", "case", "do", "else", "goto", "alignof", "decltype",
    "static_assert", "typeid", "assert", "defined",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<lcomment>//[^\n]*)
    | (?P<bcomment>/\*.*?\*/)
    | (?P<raw>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<num>\.?[0-9](?:'?[0-9a-zA-Z_.]|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct>::|->\*|->|\+\+|--|<<=|>>=|<=|>=|==|!=|&&|\|\||\+=|-=|\*=
                |/=|%=|&=|\|=|\^=|<<|\.\.\.|.)
    """,
    re.DOTALL | re.VERBOSE,
)
# Note: '>>' is deliberately absent from the punct alternatives so nested
# template closers lex as two '>' tokens; the shift operator is rare enough
# on the paths these rules inspect that the simpler lexing wins.


class FileCtx:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel  # path facelint reasons about (may be a fixture alias)
        self.lines = text.split("\n")
        self.toks = []           # code tokens (no ws/comments/preprocessor)
        self.comments = {}       # line -> concatenated comment text
        self.includes = []       # (line, header-name) from #include <...>
        self.funcs = []          # [Func]
        self._lex(text)
        self.funcs = segment_functions(self.toks)

    def _lex(self, text):
        line = 1
        pp_until = -1  # consuming a preprocessor logical line
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            tx = m.group()
            if kind == "ws":
                line += tx.count("\n")
                continue
            if kind in ("lcomment", "bcomment"):
                for off, part in enumerate(tx.split("\n")):
                    ln = line + off
                    self.comments[ln] = self.comments.get(ln, "") + " " + part
                line += tx.count("\n")
                continue
            if tx == "#" and (line > pp_until):
                # Preprocessor logical line: swallow tokens to end of line
                # (honoring backslash continuations), but record includes.
                end = text.find("\n", m.end())
                seg_start = m.end()
                while end != -1 and text[seg_start:end].rstrip().endswith("\\"):
                    seg_start = end + 1
                    end = text.find("\n", seg_start)
                directive = text[m.end(): end if end != -1 else len(text)]
                inc = re.match(r'\s*include\s*[<"]([^>"]+)[>"]', directive)
                if inc:
                    self.includes.append((line, inc.group(1)))
                pp_until = line + directive.count("\n")
                continue
            if line <= pp_until:
                continue
            self.toks.append(Token(kind, tx, line))
            line += tx.count("\n")

    def comment_near(self, ln):
        return (self.comments.get(ln, "") + " " + self.comments.get(ln - 1, ""))


def _match_group(toks, i, open_t, close_t):
    """Index of the token closing the group opened at toks[i], or None."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return j
    return None


def segment_functions(toks):
    """Best-effort function-definition segmenter.

    Yields non-nested Func(name, sig=(lparen,rparen), body=(lbrace,rbrace))
    entries; every token inside a matched body is attributed to that
    function (lambdas and local blocks included). Class/namespace braces
    are not function bodies and scanning continues inside them.
    """
    funcs = []
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text != "(":
            i += 1
            continue
        rp = _match_group(toks, i, "(", ")")
        if rp is None:
            break
        name = _candidate_name(toks, i)
        if name is None:
            i += 1
            continue
        body = _find_body(toks, rp + 1)
        if body is None:
            i = rp + 1
            continue
        lb, rb = body
        funcs.append(Func(name, (i, rp), (lb, rb)))
        i = rb + 1  # do not segment inside bodies: lambdas stay attributed
    return funcs


def _candidate_name(toks, lparen):
    j = lparen - 1
    if j < 0:
        return None
    t = toks[j]
    if t.kind == "id" and t.text not in KEYWORDS:
        name = t.text
        # absorb qualification: A::B::name
        while j >= 2 and toks[j - 1].text == "::" and toks[j - 2].kind == "id":
            j -= 2
            name = toks[j].text + "::" + name
        return name
    if t.kind == "punct" and j >= 1 and toks[j - 1].text == "operator":
        return "operator" + t.text
    return None


def _find_body(toks, k):
    """From just past the param-list ')', find the body '{...}' if this is
    a definition. Returns (lbrace, rbrace) or None."""
    n = len(toks)
    while k < n:
        t = toks[k].text
        if t in ("const", "noexcept", "override", "final", "mutable", "&",
                 "&&", "volatile", "try"):
            k += 1
        elif t == "->":  # trailing return type
            k += 1
            while k < n and toks[k].text not in ("{", ";"):
                if toks[k].text == "(":
                    rp = _match_group(toks, k, "(", ")")
                    if rp is None:
                        return None
                    k = rp
                k += 1
        elif t == ":":  # ctor init list
            k += 1
            while k < n:
                t2 = toks[k].text
                if t2 == "(":
                    rp = _match_group(toks, k, "(", ")")
                    if rp is None:
                        return None
                    k = rp + 1
                elif t2 == "{":
                    # member brace-init if preceded by an identifier or '>',
                    # otherwise this brace opens the constructor body
                    prev = toks[k - 1].text
                    if prev and (toks[k - 1].kind == "id" or prev == ">"):
                        rb = _match_group(toks, k, "{", "}")
                        if rb is None:
                            return None
                        k = rb + 1
                    else:
                        break
                elif t2 == ";":
                    return None
                else:
                    k += 1
        elif t == "{":
            rb = _match_group(toks, k, "{", "}")
            if rb is None:
                return None
            return (k, rb)
        else:
            return None
    return None


def in_scope(rel, prefixes, exempt=()):
    rel = rel.replace(os.sep, "/")
    if any(rel.startswith(e) for e in exempt):
        return False
    return any(rel.startswith(p) for p in prefixes)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

_BANNED_CONTAINERS = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "list", "set", "multiset", "multimap",
}
_BANNED_HEADERS = {"unordered_map", "unordered_set", "list", "set"}


def rule_no_unordered_sim(ctx):
    if not in_scope(ctx.rel, UNORDERED_SCOPE):
        return []
    out = []
    toks = ctx.toks
    for i in range(len(toks) - 2):
        if (toks[i].text == "std" and toks[i + 1].text == "::"
                and toks[i + 2].text in _BANNED_CONTAINERS):
            name = toks[i + 2].text
            out.append(Finding(
                "no-unordered-sim", ctx.rel, toks[i].line,
                "std::%s on a simulated-state path — use PageMap, "
                "IntrusiveList, LazyMinHeap, or a sorted vector" % name))
    for line, hdr in ctx.includes:
        if hdr in _BANNED_HEADERS:
            out.append(Finding(
                "no-unordered-sim", ctx.rel, line,
                "#include <%s> in a simulated-state directory" % hdr))
    return out


_CLOCK_IDS = {
    "system_clock", "steady_clock", "high_resolution_clock", "random_device",
    "gettimeofday", "clock_gettime", "localtime", "localtime_r", "gmtime",
    "gmtime_r", "mktime", "strftime", "timespec_get", "getrandom",
}
_CLOCK_CALLS = {"time", "clock", "rand", "srand", "random", "srandom"}


def rule_no_wallclock_sim(ctx):
    if not in_scope(ctx.rel, SRC_SCOPE):
        return []
    out = []
    toks = ctx.toks
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in _CLOCK_IDS:
            out.append(Finding(
                "no-wallclock-sim", ctx.rel, t.line,
                "%s: host time/randomness must not feed simulated state "
                "(virtual time + seeded PRNGs only)" % t.text))
        elif (t.text in _CLOCK_CALLS
              and i + 1 < len(toks) and toks[i + 1].text == "("
              # member access (x.time(...)) and declarations whose name
              # merely collides (TpccRandom& random() {...}) are not calls
              and (i == 0 or toks[i - 1].text not in (".", "->", "&", "*"))
              and (i == 0 or toks[i - 1].kind != "id")):
            out.append(Finding(
                "no-wallclock-sim", ctx.rel, t.line,
                "call to %s(): host time/randomness must not feed "
                "simulated state" % t.text))
    return out


_ORDERED_CONTAINERS = {"map", "set", "multimap", "multiset",
                       "unordered_map", "unordered_set", "hash"}
_PTR_INT_TYPES = {"uintptr_t", "intptr_t", "size_t", "uint64_t", "int64_t",
                  "uint32_t", "unsigned"}


def _first_template_arg_is_pointer(toks, lt):
    """toks[lt] == '<' right after a container name: does the first
    template argument end in '*'?"""
    depth = 0
    last = None
    for j in range(lt, len(toks)):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return last == "*"
        elif t == "," and depth == 1:
            return last == "*"
        elif depth >= 1:
            last = t
        if j - lt > 64:  # not a template argument list after all
            return False
    return False


def rule_no_pointer_order(ctx):
    if not in_scope(ctx.rel, SRC_SCOPE):
        return []
    out = []
    toks = ctx.toks
    for i, t in enumerate(toks):
        if (t.kind == "id" and t.text in _ORDERED_CONTAINERS
                and i + 1 < len(toks) and toks[i + 1].text == "<"
                and _first_template_arg_is_pointer(toks, i + 1)):
            out.append(Finding(
                "no-pointer-order", ctx.rel, t.line,
                "%s keyed on a raw pointer value — iteration/hash order "
                "varies with ASLR; key on a stable id instead" % t.text))
        elif (t.text == "reinterpret_cast" and i + 2 < len(toks)
              and toks[i + 1].text == "<"
              and toks[i + 2].text in _PTR_INT_TYPES):
            out.append(Finding(
                "no-pointer-order", ctx.rel, t.line,
                "pointer-to-integer cast — the value is ASLR-"
                "nondeterministic and must not feed simulated state, "
                "ordering, or hashing"))
    return out


_WRITE_FNS = {"memcpy", "memmove", "memset",
              "EncodeFixed16", "EncodeFixed32", "EncodeFixed64"}
_HANDLE_FACTORIES = {"FetchPage", "NewPage", "FetchPageForRedo"}


def _first_arg_tokens(toks, lparen):
    depth = 0
    out = []
    for j in range(lparen, len(toks)):
        t = toks[j].text
        if t in ("(", "[", "{"):
            depth += 1
            if depth == 1:
                continue
        elif t in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                break
        elif t == "," and depth == 1:
            break
        if depth >= 1:
            out.append(toks[j])
    return out


def _mentions_payload(arg_toks, handles, payload_ptrs):
    for k, t in enumerate(arg_toks):
        if t.text in payload_ptrs:
            return True
        if (t.text == "data" and k >= 2 and arg_toks[k - 1].text in (".", "->")
                and arg_toks[k - 2].text in handles):
            return True
        # Frame-internal payloads: <frame-expr>.data.get()
        if (t.text == "data" and k + 2 < len(arg_toks)
                and arg_toks[k + 1].text == "." and arg_toks[k + 2].text == "get"):
            return True
    return False


def rule_mark_dirty_range(ctx):
    if not in_scope(ctx.rel, SRC_SCOPE):
        return []
    out = []
    toks = ctx.toks
    for fn in ctx.funcs:
        lo, hi = fn.body
        # 1. collect page-handle variables (params + locals)
        handles = set()
        slo, shi = fn.sig
        span = list(range(slo, shi + 1)) + list(range(lo, hi + 1))
        for j in span:
            if toks[j].text == "PageHandle" and (j == 0 or toks[j - 1].text != "<"):
                k = j + 1
                while k <= hi and toks[k].text in ("*", "&", "const"):
                    k += 1
                if k <= hi and toks[k].kind == "id":
                    handles.add(toks[k].text)
        for j in range(lo, hi):
            if toks[j].text == "auto":
                k = j + 1
                while k <= hi and toks[k].text in ("*", "&", "const"):
                    k += 1
                if (k + 1 <= hi and toks[k].kind == "id"
                        and toks[k + 1].text == "="):
                    # scan initializer to ';'
                    init = []
                    m = k + 2
                    while m <= hi and toks[m].text != ";":
                        init.append(toks[m].text)
                        m += 1
                    if any(f in init for f in _HANDLE_FACTORIES):
                        handles.add(toks[k].text)
        # 2. payload pointers: <type>* p = <handle>.data() / ...data.get()
        payload_ptrs = set()
        for j in range(lo, hi):
            if toks[j].kind == "id" and j + 1 <= hi and toks[j + 1].text == "=":
                init = []
                m = j + 2
                while m <= hi and toks[m].text != ";":
                    init.append(toks[m])
                    m += 1
                if _mentions_payload(init, handles, payload_ptrs):
                    # only pointer-ish inits count: must end in data()/get()
                    txt = "".join(t.text for t in init)
                    if re.search(r"data\(\)$|get\(\)$|data\(\)[+\-]|get\(\)[+\-]",
                                 txt):
                        payload_ptrs.add(toks[j].text)
        if not handles and not payload_ptrs:
            continue
        # 3. writes into payload bytes
        first_write = None
        has_mark = False
        for j in range(lo, hi):
            t = toks[j]
            if t.text == "MarkDirtyRange":
                has_mark = True
            if (t.kind == "id" and t.text in _WRITE_FNS
                    and j + 1 <= hi and toks[j + 1].text == "("):
                args = _first_arg_tokens(toks, j + 1)
                if _mentions_payload(args, handles, payload_ptrs):
                    first_write = first_write or t
            # p[i] = ...  /  *(p + i) = ...
            if (t.kind == "id" and t.text in payload_ptrs
                    and j + 1 <= hi and toks[j + 1].text == "["):
                rb = _match_group(toks, j + 1, "[", "]")
                if (rb is not None and rb + 1 <= hi
                        and toks[rb + 1].text == "="):
                    first_write = first_write or t
        if first_write is not None and not has_mark:
            out.append(Finding(
                "mark-dirty-range", ctx.rel, first_write.line,
                "frame-payload write in %s() without MarkDirtyRange in the "
                "same function — the PR 8 delta chain degrades to "
                "whole-page (add MarkDirtyRange(lsn, off, len) or an "
                "allow comment)" % fn.name))
    return out


_LOOKUP_FNS = {"GetCounter", "GetGauge", "GetHistogram", "Intern"}
_SETUP_NAME = re.compile(r"Obs|Register|Init|Setup|Bind")


def rule_obs_hot_handle(ctx):
    if not in_scope(ctx.rel, SRC_SCOPE, exempt=OBS_EXEMPT):
        return []
    out = []
    toks = ctx.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in _LOOKUP_FNS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        fn = None
        for f in ctx.funcs:
            if f.body[0] <= i <= f.body[1]:
                fn = f
                break
        if fn is not None and _SETUP_NAME.search(fn.name):
            continue
        # statement-level escape: static/thread_local initializer
        j = i
        stmt_ok = False
        while j >= 0 and toks[j].text not in (";", "{", "}"):
            if toks[j].text in ("thread_local", "static"):
                stmt_ok = True
                break
            j -= 1
        if stmt_ok:
            continue
        out.append(Finding(
            "obs-hot-handle", ctx.rel, t.line,
            "%s(\"...\") on a non-setup path — string-keyed metric lookups "
            "belong in a Register/Init/*Obs* function or a static/"
            "thread_local initializer; cache the handle" % t.text))
    return out


RULE_FNS = {
    "no-unordered-sim": rule_no_unordered_sim,
    "no-wallclock-sim": rule_no_wallclock_sim,
    "no-pointer-order": rule_no_pointer_order,
    "mark-dirty-range": rule_mark_dirty_range,
    "obs-hot-handle": rule_obs_hot_handle,
}

_ALLOW_RE = re.compile(r"facelint:\s*allow\(([^)]*)\)")
_FIXTURE_PATH_RE = re.compile(r"FACELINT-FIXTURE-PATH:\s*(\S+)")


def allowed_rules_near(ctx, line):
    rules = set()
    for m in _ALLOW_RE.finditer(ctx.comment_near(line)):
        for r in m.group(1).split(","):
            rules.add(r.strip())
    return rules


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

def load_baseline(path):
    entries = []  # (rule, rel, stripped-line, justification, raw-lineno)
    if not path or not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            parts = s.split("|", 3)
            if len(parts) != 4 or not parts[3].strip():
                raise SystemExit(
                    "%s:%d: malformed baseline entry (want "
                    "rule|path|line-text|justification): %s" % (path, ln, s))
            entries.append((parts[0].strip(), parts[1].strip(),
                            parts[2].strip(), parts[3].strip(), ln))
    return entries


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_files(args):
    if args.files:
        return list(args.files)
    files = []
    seen = set()
    have_cc = False
    if args.compile_commands and os.path.exists(args.compile_commands):
        with open(args.compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                have_cc = True
                p = os.path.normpath(
                    os.path.join(entry.get("directory", "."), entry["file"]))
                rel = os.path.relpath(p, args.root)
                if rel.replace(os.sep, "/").startswith("src/") and p not in seen:
                    seen.add(p)
                    files.append(p)
    for p in sorted(glob.glob(os.path.join(args.root, "src", "**", "*.h"),
                              recursive=True)):
        p = os.path.normpath(p)
        if p not in seen:
            seen.add(p)
            files.append(p)
    if not have_cc:
        # no compile_commands.json: fall back to globbing the sources
        for p in sorted(glob.glob(os.path.join(args.root, "src", "**", "*.cc"),
                                  recursive=True)):
            p = os.path.normpath(p)
            if p not in seen:
                seen.add(p)
                files.append(p)
    return files


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="*", help="explicit files (else src/ via "
                    "compile_commands + headers)")
    ap.add_argument("--root", default=".")
    ap.add_argument("--compile-commands",
                    default=os.path.join("build", "compile_commands.json"))
    ap.add_argument("--baseline",
                    default=os.path.join("tools", "facelint", "baseline.txt"))
    ap.add_argument("--no-baseline", action="store_true")
    ap.add_argument("--rule", action="append", choices=sorted(RULES),
                    help="run only these rules (repeatable)")
    ap.add_argument("--stats", action="store_true",
                    help="print rule-by-rule counts")
    ap.add_argument("--json", action="store_true", dest="as_json")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in sorted(RULES):
            print("%-18s %s" % (r, RULES[r]))
        return 0

    active = {r: RULE_FNS[r] for r in (args.rule or sorted(RULES))}
    baseline = [] if args.no_baseline else load_baseline(args.baseline)
    baseline_used = [False] * len(baseline)

    results = []   # dicts: rule/path/line/message/suppressed
    stats = {r: {"found": 0, "allowed": 0, "baselined": 0, "reported": 0}
             for r in active}

    for path in collect_files(args):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print("facelint: cannot read %s: %s" % (path, e), file=sys.stderr)
            return 2
        rel = os.path.relpath(path, args.root).replace(os.sep, "/")
        m = _FIXTURE_PATH_RE.search(text)
        if m:
            rel = m.group(1)
        ctx = FileCtx(path, rel, text)
        for rule, fn in active.items():
            for fd in fn(ctx):
                stats[rule]["found"] += 1
                suppressed = None
                allowed = allowed_rules_near(ctx, fd.line)
                if rule in allowed or "all" in allowed:
                    suppressed = "allow"
                    stats[rule]["allowed"] += 1
                else:
                    ltext = (ctx.lines[fd.line - 1].strip()
                             if fd.line - 1 < len(ctx.lines) else "")
                    for bi, (brule, bpath, btext, _j, _ln) in enumerate(baseline):
                        if brule == rule and bpath == fd.path and btext == ltext:
                            suppressed = "baseline"
                            baseline_used[bi] = True
                            stats[rule]["baselined"] += 1
                            break
                if suppressed is None:
                    stats[rule]["reported"] += 1
                results.append({"rule": rule, "path": fd.path, "line": fd.line,
                                "message": fd.message,
                                "suppressed": suppressed})

    stale = [b for b, used in zip(baseline, baseline_used) if not used]
    reported = [r for r in results if r["suppressed"] is None]

    if args.as_json:
        print(json.dumps({"findings": results, "stats": stats,
                          "stale_baseline": [
                              {"rule": b[0], "path": b[1], "line_text": b[2]}
                              for b in stale]}, indent=2))
    else:
        for r in sorted(reported, key=lambda r: (r["path"], r["line"])):
            print("%s:%d: [%s] %s" % (r["path"], r["line"], r["rule"],
                                      r["message"]))
        for b in stale:
            print("%s:%d: stale baseline entry (matches nothing): %s|%s|%s"
                  % (args.baseline, b[4], b[0], b[1], b[2]), file=sys.stderr)
        if args.stats or reported:
            print("facelint: %d finding(s) reported" % len(reported))
        if args.stats:
            for rule in sorted(stats):
                s = stats[rule]
                print("  %-18s found=%-3d allowed=%-3d baselined=%-3d "
                      "reported=%d" % (rule, s["found"], s["allowed"],
                                       s["baselined"], s["reported"]))
    return 1 if (reported or stale) else 0


if __name__ == "__main__":
    sys.exit(main())
