"""dipclint rules.

Each rule is a function over one file's tokens/model plus shared repo
context (the probe and metric manifests), returning Finding objects. The
driver applies NOLINT-DIPC suppressions afterwards, so rules just report.

Rules (see README "Static analysis" for the catalog):
  CAP-LEAK         acquired send buffers must reach a consuming call on
                   every path (flow walk over the statement tree); a
                   failed send consumes its buffer only when the plane is
                   broken
  FUTEX-PREDICATE  FutexBlockUntil must receive a real still-blocked
                   predicate
  DEADLINE-THREAD  public blocking channel/fabric/semaphore APIs must
                   accept an os::Deadline
  PROBE-MANIFEST   DIPC_FAULT_POINT idents must exist in probes.def; raw
                   Injector.Probe calls are reserved to src/fault/
  METRIC-SCHEMA    registered metric names must be derivable from
                   metric_schema.def patterns (kind-checked)
  MEM-ORDER        memory_order_relaxed outside the metrics counter
                   classes needs an adjacent "// relaxed:" justification
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cpp_lexer import COMMENT, IDENT, PUNCT, STRING, Tok
from cpp_model import (
    Decl,
    Func,
    extract_lambda_bodies,
    match_forward,
    parse_statements,
    split_args,
    Stmt,
)

ALL_RULES = (
    "CAP-LEAK",
    "FUTEX-PREDICATE",
    "DEADLINE-THREAD",
    "PROBE-MANIFEST",
    "METRIC-SCHEMA",
    "MEM-ORDER",
    "NOLINT-REASON",
)


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    # Extra lines whose suppressions also cover this finding (declaration
    # regions span several lines).
    extra_lines: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class FileModel:
    path: str        # repo-relative, forward slashes
    toks: list[Tok]  # full stream (comments included)
    code: list[Tok]  # comments/preproc stripped
    funcs: list[Func]
    decls: list[Decl]


@dataclass
class RepoContext:
    probe_idents: set[str]
    probe_names: set[str]
    # (kind, [components]) with kind in {"Counter", "Gauge", "Histogram"}
    metric_schema: list[tuple[str, list[str]]]


# ---- Manifest loading -----------------------------------------------------

_PROBE_RE = re.compile(r'DIPC_FAULT_PROBE\((\w+)\s*,\s*"([^"]+)"\)')
_METRIC_RE = re.compile(r'DIPC_METRIC\((\w+)\s*,\s*"([^"]+)"\)')


def load_probe_manifest(text: str) -> tuple[set[str], set[str]]:
    idents, names = set(), set()
    for m in _PROBE_RE.finditer(text):
        idents.add(m.group(1))
        names.add(m.group(2))
    return idents, names


def load_metric_schema(text: str) -> list[tuple[str, list[str]]]:
    out = []
    for m in _METRIC_RE.finditer(text):
        out.append((m.group(1), m.group(2).split("/")))
    return out


def schema_examples(entry: tuple[str, list[str]]) -> list[str]:
    """Concrete example names a schema pattern covers (for regex checks)."""
    _, comps = entry
    parts: list[list[str]] = []
    for c in comps:
        if c == "**":
            parts.append(["x", "x/y"])
        elif c == "*":
            parts.append(["0"])
        elif c.endswith("*"):
            parts.append([c[:-1] + "0"])
        else:
            parts.append([c])
    examples = [""]
    for options in parts:
        examples = [e + ("/" if e else "") + o for e in examples for o in options]
    return examples


# ---- CAP-LEAK -------------------------------------------------------------

# chan::Plane's method names (the endpoint wrappers forward the same ones).
_ACQUIRES = {"AcquireBuf", "AcquireBufBatch"}
_SENDS = {"Send", "SendTo", "SendBatch", "SendToBatch"}
_SINKS = _SENDS | {
    "Abandon", "AbandonBatch",
    "Release", "ReleaseBatch",
    "BindSendCap", "BindRecvCap",
}
_ALIAS_RECEIVERS = {"push_back", "emplace_back", "insert", "assign"}


class _CapWalk:
    """Per-function symbolic walk tracking acquired-buffer liveness.

    Approximations, chosen to keep false positives at zero on this tree:
      - loops run 0-or-1 times for the post-state, but consumption inside a
        loop body counts afterwards (real loops here always run);
      - an early return inside an `if` whose condition mentions the handle
        (or an alias) is exempt — that is the acquire-failure guard shape,
        and also the thread-killed shape where the grant is already gone;
      - except a failed send: in the branch of `if (!(co_await x.Send*(h)).ok())`
        or of `auto r = co_await x.Send*(h); if (!r.ok())` the plane still
        owns nothing unless it broke, so `h` is live again there — the
        branch must Abandon it or test broken() before it exits;
      - `break`/`continue` are not exit points; per-iteration leaks are
        caught at the declaring block's scope end instead.
    """

    def __init__(self, fm: FileModel, func: Func):
        self.fm = fm
        self.func = func
        self.findings: list[Finding] = []
        self.roots: dict[str, int] = {}      # var name -> root id
        self.consumed: dict[int, bool] = {}  # root id -> consumed
        self.acq_line: dict[int, int] = {}
        self.acq_var: dict[int, str] = {}
        self.next_root = 0
        self.guard: list[set[int]] = []      # roots mentioned by enclosing ifs
        self.send_results: dict[str, set[int]] = {}  # `r` of `r = x.Send*(h)` -> h

    # -- helpers --

    def _mentioned(self, toks: list[Tok]) -> set[int]:
        out = set()
        for t in toks:
            if t.kind == IDENT and t.text in self.roots:
                out.add(self.roots[t.text])
        return out

    def _scan(self, toks: list[Tok]) -> None:
        """Consumption + receiver-alias detection over a token run."""
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT or i + 1 >= n or toks[i + 1].text != "(":
                continue
            close = match_forward(toks, i + 1)
            inside = toks[i + 2 : close]
            touched = self._mentioned(inside)
            if not touched:
                continue
            if t.text in _SINKS:
                for r in touched:
                    self.consumed[r] = True
            elif t.text in _ALIAS_RECEIVERS and i >= 2 and \
                    toks[i - 1].kind == PUNCT and toks[i - 1].text in (".", "->") and \
                    toks[i - 2].kind == IDENT:
                # items.push_back(SendItem{b, ...}) -> `items` carries b now.
                receiver = toks[i - 2].text
                self.roots[receiver] = next(iter(touched))

    def _maybe_acquire(self, toks: list[Tok]) -> None:
        depth = 0
        for i, t in enumerate(toks):
            if t.kind == PUNCT:
                if t.text in "([{":
                    depth += 1
                elif t.text in ")]}":
                    depth -= 1
                continue
            # An acquire nested in a bracket group belongs to a lambda (or a
            # call argument) this statement only carries; the lambda body is
            # walked separately, so tracking it here would be double vision.
            if depth == 0 and t.kind == IDENT and t.text in _ACQUIRES and \
                    i + 1 < len(toks) and toks[i + 1].text == "(":
                # find `var =` to the left
                for j in range(i - 1, 0, -1):
                    if toks[j].kind == PUNCT and toks[j].text == "=":
                        if toks[j - 1].kind == IDENT:
                            var = toks[j - 1].text
                            rid = self.next_root
                            self.next_root += 1
                            self.roots[var] = rid
                            self.consumed[rid] = False
                            self.acq_line[rid] = t.line
                            self.acq_var[rid] = var
                        return
                return

    def _sent_roots(self, toks: list[Tok]) -> set[int]:
        """Roots handed to a Send* call somewhere in `toks`."""
        out: set[int] = set()
        for i, t in enumerate(toks):
            if t.kind == IDENT and t.text in _SENDS and i + 1 < len(toks) and \
                    toks[i + 1].text == "(":
                out |= self._mentioned(toks[i + 2 : match_forward(toks, i + 1)])
        return out

    def _maybe_send_result(self, toks: list[Tok]) -> None:
        # `auto r = co_await x.Send*(...h...);` — remember which handles a
        # later `if (!r.ok())` sees failing.
        for j, t in enumerate(toks):
            if t.kind == PUNCT and t.text == "=":
                sent = self._sent_roots(toks[j + 1 :])
                if sent and j >= 1 and toks[j - 1].kind == IDENT:
                    self.send_results[toks[j - 1].text] = sent
                return

    def _failed_sends(self, header: list[Tok]) -> set[int]:
        """Handles whose send the then-branch of `header` sees failing."""
        if not header or header[0].text != "!" or \
                not any(t.kind == IDENT and t.text == "ok" for t in header):
            return set()
        out = self._sent_roots(header)
        for t in header:
            if t.kind == IDENT and t.text in self.send_results:
                out |= self.send_results[t.text]
        return out

    def _maybe_alias(self, toks: list[Tok]) -> None:
        # `Type X = <root>...;` where the RHS is a pure handle expression
        # (member/index access only, no arithmetic/calls-with-commas).
        depth = 0
        for j, t in enumerate(toks):
            if t.kind == PUNCT:
                if t.text in "([{":
                    depth += 1
                elif t.text in ")]}":
                    depth -= 1
                elif t.text == "=" and depth == 0:
                    rhs = toks[j + 1 :]
                    while rhs and rhs[0].kind == IDENT and rhs[0].text in ("std", "move") or \
                            (rhs and rhs[0].kind == PUNCT and rhs[0].text in ("::", "(")):
                        rhs = rhs[1:]
                    if not rhs or rhs[0].kind != IDENT or rhs[0].text not in self.roots:
                        return
                    for r in rhs[1:]:
                        if r.kind == IDENT and r.text not in ("value", "front", "back", "at"):
                            return
                        if r.kind == PUNCT and r.text in ("+", ",", "?"):
                            return
                    if j >= 1 and toks[j - 1].kind == IDENT:
                        self.roots[toks[j - 1].text] = self.roots[rhs[0].text]
                    return
        return

    def _check_exit(self, line: int) -> None:
        exempt = set().union(*self.guard) if self.guard else set()
        for rid, done in self.consumed.items():
            if not done and rid not in exempt:
                self.findings.append(Finding(
                    "CAP-LEAK", self.fm.path, line,
                    f"'{self.acq_var[rid]}' (acquired at line {self.acq_line[rid]}) "
                    f"can reach this exit without Send/Abandon/Release",
                    extra_lines=(self.acq_line[rid],)))
                self.consumed[rid] = True  # report once per root

    def _check_scope_end(self, created: set[int], line: int) -> None:
        for rid in created:
            if not self.consumed.get(rid, True):
                self.findings.append(Finding(
                    "CAP-LEAK", self.fm.path, self.acq_line[rid],
                    f"'{self.acq_var[rid]}' acquired here goes out of scope "
                    f"without Send/Abandon/Release"))
                self.consumed[rid] = True
            self.consumed.pop(rid, None)
        self.roots = {v: r for v, r in self.roots.items() if r not in created}

    # -- walk --

    def run(self) -> list[Finding]:
        stmts = parse_statements(self.func.body)
        outcome = self._walk_block(stmts, check_scope=False)
        if outcome == "flow":
            # Falling off the end is an implicit co_return.
            last = self.func.body[-1].line if self.func.body else self.func.line
            self._check_exit(last)
        # Any root still live leaks at function end.
        self._check_scope_end(set(self.consumed.keys()), self.func.line)
        return self.findings

    def _walk_block(self, stmts: list[Stmt], check_scope: bool = True) -> str:
        before = set(self.consumed.keys())
        outcome = "flow"
        for s in stmts:
            outcome = self._walk_stmt(s)
            if outcome == "exit":
                break
        created = set(self.consumed.keys()) - before
        if outcome == "flow" and check_scope:
            self._check_scope_end(created, 0)
        return outcome

    def _walk_stmt(self, s: Stmt) -> str:
        if s.kind == "plain":
            first = s.toks[0] if s.toks else None
            if first is not None and first.kind == IDENT and \
                    first.text in ("return", "co_return"):
                for rid in self._mentioned(s.toks):
                    self.consumed[rid] = True
                self._scan(s.toks)
                self._check_exit(s.line)
                return "exit"
            self._scan(s.toks)
            self._maybe_acquire(s.toks)
            self._maybe_alias(s.toks)
            self._maybe_send_result(s.toks)
            return "flow"
        if s.kind == "block":
            return self._walk_block(s.children)
        if s.kind == "if":
            failed = self._failed_sends(s.header)
            self._scan(s.header)
            self._maybe_acquire(s.header)  # `if (auto b = co_await Acquire...)`
            mentioned = self._mentioned(s.header)
            snapshot = dict(self.consumed)
            if failed and not _calls(s.children, "broken"):
                mentioned -= failed
                for rid in failed & set(self.consumed):
                    self.consumed[rid] = False
            self.guard.append(mentioned)
            out_then = self._walk_block(s.children)
            after_then = dict(self.consumed)
            self.consumed = dict(snapshot)
            # Roots acquired in the then-branch are gone; keep common ones.
            out_else = "flow"
            if s.orelse:
                out_else = self._walk_block(s.orelse)
            after_else = dict(self.consumed)
            self.guard.pop()
            if out_then == "exit" and out_else == "exit":
                self.consumed = {r: True for r in snapshot}
                return "exit"
            if out_then == "exit":
                self.consumed = after_else
            elif out_else == "exit":
                self.consumed = after_then
            else:
                merged = {}
                for rid in set(after_then) | set(after_else):
                    merged[rid] = after_then.get(rid, True) and after_else.get(rid, True)
                self.consumed = merged
            return "flow"
        if s.kind in ("loop", "switch", "do"):
            self._scan(s.header)
            self._range_for_alias(s.header)
            snapshot = dict(self.consumed)
            self._walk_block(s.children, check_scope=True)
            # 0-or-1 iteration post-state, except consumption sticks (loops
            # that consume do run in this codebase).
            merged = dict(snapshot)
            for rid, done in self.consumed.items():
                if rid in merged:
                    merged[rid] = merged[rid] or done
            self.consumed = merged
            return "flow"
        return "flow"

    def _range_for_alias(self, header: list[Tok]) -> None:
        depth = 0
        for j, t in enumerate(header):
            if t.kind == PUNCT:
                if t.text in "([{":
                    depth += 1
                elif t.text in ")]}":
                    depth -= 1
                elif t.text == ":" and depth == 0:
                    rng = header[j + 1 :]
                    if rng and rng[0].kind == IDENT and rng[0].text in self.roots:
                        # `for (const SendBuf& b : bufs.value())`
                        for k in range(j - 1, -1, -1):
                            if header[k].kind == IDENT:
                                self.roots[header[k].text] = self.roots[rng[0].text]
                                break
                    return


def _calls(stmts: list[Stmt], name: str) -> bool:
    """True when any statement under `stmts` calls `name(...)`."""
    for st in stmts:
        toks = st.toks + st.header
        if any(t.kind == IDENT and t.text == name and i + 1 < len(toks) and
               toks[i + 1].text == "(" for i, t in enumerate(toks)):
            return True
        if _calls(st.children, name) or _calls(st.orelse, name):
            return True
    return False


def rule_cap_leak(fm: FileModel, ctx: RepoContext) -> list[Finding]:
    if not fm.path.endswith(".cc"):
        return []
    out: list[Finding] = []
    for f in fm.funcs:
        if f.name in _ACQUIRES:
            continue  # the channel's own delegating acquire implementations
        if not any(t.kind == IDENT and t.text in _ACQUIRES for t in f.body):
            continue
        out.extend(_CapWalk(fm, f).run())
        # Lambda bodies (Spawn thunks, handlers) get their own walk — the
        # enclosing function's walk treats them as opaque statement tokens.
        for body, line in extract_lambda_bodies(f.body):
            if not any(t.kind == IDENT and t.text in _ACQUIRES for t in body):
                continue
            out.extend(_CapWalk(fm, Func("<lambda>", f"{f.qualname}::<lambda>",
                                         line, [], [], body, line)).run())
    return out


# ---- FUTEX-PREDICATE ------------------------------------------------------

_FUTEX_ARITY = {"FutexBlockUntil": 4}


def rule_futex_predicate(fm: FileModel, ctx: RepoContext) -> list[Finding]:
    out: list[Finding] = []
    toks = fm.code
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in _FUTEX_ARITY:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = match_forward(toks, i + 1)
        args = split_args(toks[i + 2 : close])
        want = _FUTEX_ARITY[t.text]
        if len(args) < want:
            out.append(Finding(
                "FUTEX-PREDICATE", fm.path, t.line,
                f"{t.text} takes a still-blocked predicate as its last "
                f"argument ({len(args)} of {want} arguments given)"))
            continue
        pred = args[-1]
        if len(pred) == 1 and pred[0].text in ("true", "false", "nullptr"):
            out.append(Finding(
                "FUTEX-PREDICATE", fm.path, t.line,
                f"{t.text} predicate '{pred[0].text}' is not a still-blocked "
                f"re-check; wakes issued while entering the kernel get lost"))
            continue
        # Lambda predicate: body must not be trivially `return true/false;`.
        for j, p in enumerate(pred):
            if p.kind == PUNCT and p.text == "{":
                bclose = match_forward(pred, j)
                body = [b for b in pred[j + 1 : bclose]]
                texts = [b.text for b in body]
                if texts in (["return", "true", ";"], ["return", "false", ";"], []):
                    out.append(Finding(
                        "FUTEX-PREDICATE", fm.path, t.line,
                        f"{t.text} predicate is trivially "
                        f"{'empty' if not texts else texts[1]}; it must "
                        f"re-check the blocked condition"))
                break
    return out


# ---- DEADLINE-THREAD ------------------------------------------------------

_DEADLINE_SCOPE = ("src/chan/", "src/fabric/")
_DEADLINE_FILES = ("src/os/semaphore.h",)
# A queue push is not among them: MpmcQueue::PushN never waits for room (a
# plane's pool and FIFOs have room for every slot, and a push past capacity
# aborts).
_BLOCKING_VERB = re.compile(r"^(Acquire|Recv|Pop|Wait|Write|Read|Call)")


def _deadline_in_scope(path: str) -> bool:
    return path.startswith(_DEADLINE_SCOPE) or path in _DEADLINE_FILES


def rule_deadline_thread(fm: FileModel, ctx: RepoContext) -> list[Finding]:
    if not _deadline_in_scope(fm.path):
        return []
    out: list[Finding] = []

    def check(name: str, line: int, lead: list[Tok], params: list[Tok],
              lead_line: int) -> None:
        if not _BLOCKING_VERB.match(name):
            return
        if not any(t.kind == IDENT and t.text == "Task" for t in lead):
            return  # not a coroutine API (no blocking surface)
        if not any(t.kind == IDENT and t.text == "Env" for t in params):
            return  # no thread context: not a blocking entry point
        if any(t.kind == IDENT and t.text == "Deadline" for t in params):
            return
        out.append(Finding(
            "DEADLINE-THREAD", fm.path, line,
            f"blocking API '{name}' takes no os::Deadline; callers cannot "
            f"bound the park (add a defaulted deadline parameter)",
            extra_lines=tuple(range(lead_line, line))))

    seen: set[tuple[str, int]] = set()
    for d in fm.decls:
        key = (d.qualname, d.line)
        if key not in seen:
            seen.add(key)
            check(d.name, d.line, d.lead, d.params, d.lead_line)
    for f in fm.funcs:
        # Out-of-line definitions are covered by their header declaration;
        # still check header-inline definitions (wrappers) found as Funcs.
        if "::" in f.qualname and fm.path.endswith(".cc"):
            continue
        key = (f.qualname, f.line)
        if key not in seen:
            seen.add(key)
            check(f.name, f.line, f.lead, f.params, f.lead_line)
    return out


# ---- PROBE-MANIFEST -------------------------------------------------------

def rule_probe_manifest(fm: FileModel, ctx: RepoContext) -> list[Finding]:
    out: list[Finding] = []
    toks = fm.code
    in_fault = fm.path.startswith("src/fault/")
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        if t.text == "DIPC_FAULT_POINT" and i + 1 < len(toks) and toks[i + 1].text == "(":
            close = match_forward(toks, i + 1)
            args = split_args(toks[i + 2 : close])
            ident = args[0][0].text if args and args[0] else ""
            if ident and ident not in ctx.probe_idents:
                out.append(Finding(
                    "PROBE-MANIFEST", fm.path, t.line,
                    f"probe ident '{ident}' is not declared in "
                    f"src/fault/probes.def; plans could never arm it"))
        elif t.text == "Probe" and not in_fault and \
                i >= 1 and toks[i - 1].kind == PUNCT and toks[i - 1].text in (".", "->") and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            out.append(Finding(
                "PROBE-MANIFEST", fm.path, t.line,
                "raw Injector Probe call; use DIPC_FAULT_POINT(<ident>) so "
                "the site stays in the manifest and compiles out under "
                "DIPC_FAULT_OFF"))
    return out


# ---- METRIC-SCHEMA --------------------------------------------------------

_GETTERS = {"GetCounter": "Counter", "GetGauge": "Gauge", "GetHistogram": "Histogram"}


def _name_regex(arg: list[Tok]) -> str | None:
    """Regex over the metric name from the call argument: string-literal
    fragments stay literal, everything else becomes a wildcard. Returns
    None when nothing literal is known (nothing to check)."""
    frags = []
    for frag in _split_plus(arg):
        lit = None
        if len(frag) == 1 and frag[0].kind == STRING and frag[0].text.startswith('"'):
            lit = frag[0].text[1:-1]
        frags.append(lit)
    if not any(f is not None for f in frags):
        return None
    return "^" + "".join(re.escape(f) if f is not None else ".*" for f in frags) + "$"


def _split_plus(toks: list[Tok]) -> list[list[Tok]]:
    out: list[list[Tok]] = []
    cur: list[Tok] = []
    depth = 0
    for t in toks:
        if t.kind == PUNCT:
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == "+" and depth == 0:
                out.append(cur)
                cur = []
                continue
    # (fallthrough appends below)
        cur.append(t)
    out.append(cur)
    return out


def rule_metric_schema(fm: FileModel, ctx: RepoContext) -> list[Finding]:
    out: list[Finding] = []
    toks = fm.code
    examples: dict[str, list[str]] = {}
    for entry in ctx.metric_schema:
        examples.setdefault(entry[0], []).extend(schema_examples(entry))
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in _GETTERS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        close = match_forward(toks, i + 1)
        args = split_args(toks[i + 2 : close])
        if not args or not args[0]:
            continue
        pattern = _name_regex(args[0])
        if pattern is None:
            continue  # fully dynamic name: nothing checkable statically
        kind = _GETTERS[t.text]
        rx = re.compile(pattern)
        if not any(rx.match(e) for e in examples.get(kind, [])):
            lit = pattern[1:-1].replace("\\", "").replace(".*", "<*>")
            out.append(Finding(
                "METRIC-SCHEMA", fm.path, t.line,
                f"{kind.lower()} name '{lit}' matches no "
                f"src/obs/metric_schema.def pattern of that kind; add the "
                f"series to the manifest (and README) or fix the name"))
    return out


# ---- MEM-ORDER ------------------------------------------------------------

_MEMORDER_EXEMPT = ("src/obs/metrics.h",)


def rule_mem_order(fm: FileModel, ctx: RepoContext) -> list[Finding]:
    if fm.path in _MEMORDER_EXEMPT:
        return []
    out: list[Finding] = []
    justified: set[int] = set()
    for t in fm.toks:
        if t.kind == COMMENT and "relaxed:" in t.text:
            last = t.line + t.text.count("\n")
            for ln in range(t.line, last + 1):
                justified.add(ln)
    for t in fm.toks:
        if t.kind == IDENT and t.text == "memory_order_relaxed":
            window = {t.line, t.line - 1, t.line - 2, t.line - 3}
            if not (window & justified):
                out.append(Finding(
                    "MEM-ORDER", fm.path, t.line,
                    "memory_order_relaxed outside the metrics counter "
                    "classes needs an adjacent '// relaxed:' comment "
                    "justifying why no ordering is required"))
    return out


RULE_FUNCS = (
    rule_cap_leak,
    rule_futex_predicate,
    rule_deadline_thread,
    rule_probe_manifest,
    rule_metric_schema,
    rule_mem_order,
)
