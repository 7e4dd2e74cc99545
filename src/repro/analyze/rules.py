"""The repo-specific invariant rules.

Each rule encodes one convention this codebase has already violated and
re-fixed by hand at least once; see the class docstrings for the
incident that motivated each.  Scoping is by package prefix (a dtype
rule has no business in the experiment scripts) and deliberate
exceptions are suppressed inline with ``# repro: allow[rule-id]``.
"""

from __future__ import annotations

import ast
import re

from .core import Rule, register

__all__ = [
    "AtomicWriteRule",
    "DtypeHygieneRule",
    "FailClosedRule",
    "LockDisciplineRule",
    "ThreadLifecycleRule",
    "WallClockRule",
]

#: ``# guarded-by: _lock`` (or ``_lock, _wake`` — any listed lock
#: satisfies the access) on an attribute assignment line.
_GUARDED_RE = re.compile(r"#[#:\s]*guarded-by:\s*([A-Za-z0-9_.,\s]+)")

#: ``# requires-lock: _lock`` on a method: the caller holds the lock
#: (the intra-procedural analysis assumes it held for the whole body).
_REQUIRES_RE = re.compile(r"#[#:\s]*requires-lock:\s*([A-Za-z0-9_.,\s]+)")


def _self_attr(node) -> str | None:
    """``self.x`` → ``"x"`` (None for anything else)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _dotted_self(node) -> str | None:
    """``self.a.b`` → ``"a.b"`` (None unless rooted at ``self``)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _parse_names(text: str) -> frozenset:
    return frozenset(name.strip() for name in text.split(",")
                     if name.strip())


def _const_str(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@register
class LockDisciplineRule(Rule):
    """Annotated shared state must be accessed under its lock.

    A class declares which lock guards which attribute either with a
    ``# guarded-by: _lock`` comment on the attribute's assignment line
    (or the line above it), or with a class-level literal map::

        GUARDED_BY = {"_pending": "_lock", "_queue_depth": ("_lock", "_wake")}

    Multiple lock names mean any one of them satisfies the access —
    the idiom for a ``threading.Condition`` wrapping the same lock.
    Every ``self.<attr>`` read or write of a guarded attribute inside a
    method must then sit inside ``with self.<lock>:``.  ``__init__`` is
    exempt (construction is single-threaded by convention), and a
    method whose callers hold the lock declares it with a
    ``# requires-lock: _lock`` comment on its ``def`` line.

    Motivated by the unlocked ``ServiceStats`` reads PR 7 had to fix
    with a consistent ``snapshot()``.
    """

    id = "lock-discipline"
    severity = "error"
    description = ("# guarded-by: annotated attributes must only be "
                   "touched inside `with self.<lock>:`")

    def check(self, module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # ------------------------------------------------------------------
    # declaration gathering
    # ------------------------------------------------------------------
    def _guarded_map(self, module, cls) -> dict:
        guarded: dict[str, frozenset] = {}
        # Class-level literal map: GUARDED_BY = {"attr": "lock", ...}
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "GUARDED_BY"
                    and isinstance(stmt.value, ast.Dict)):
                for key, value in zip(stmt.value.keys, stmt.value.values):
                    attr = _const_str(key)
                    if attr is None:
                        continue
                    if isinstance(value, (ast.Tuple, ast.List)):
                        locks = frozenset(
                            name for name in map(_const_str, value.elts)
                            if name)
                    else:
                        name = _const_str(value)
                        locks = frozenset((name,)) if name else frozenset()
                    if locks:
                        guarded[attr] = locks
        # Comment-annotated assignments anywhere in the class body
        # (normally __init__): the comment sits on the assignment line
        # or the line above it.
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                attrs = [a for a in map(_self_attr, targets) if a]
                if not attrs:
                    continue
                for line in (node.lineno, node.lineno - 1):
                    if line != node.lineno and not module.comment_only(line):
                        continue
                    match = _GUARDED_RE.search(module.comment(line))
                    if match:
                        locks = _parse_names(match.group(1))
                        for attr in attrs:
                            guarded[attr] = guarded.get(
                                attr, frozenset()) | locks
                        break
        return guarded

    def _assumed_locks(self, module, method) -> frozenset:
        for line in (method.lineno, method.lineno - 1):
            if line != method.lineno and not module.comment_only(line):
                continue
            match = _REQUIRES_RE.search(module.comment(line))
            if match:
                return _parse_names(match.group(1))
        return frozenset()

    # ------------------------------------------------------------------
    # per-method walk
    # ------------------------------------------------------------------
    def _check_class(self, module, cls):
        guarded = self._guarded_map(module, cls)
        if not guarded:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in ("__init__", "__new__"):
                continue
            held = self._assumed_locks(module, stmt)
            for child in stmt.body:
                yield from self._walk(module, child, guarded, held)

    def _walk(self, module, node, guarded, held):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                # The lock expression itself is an unguarded read.
                yield from self._walk(module, item.context_expr,
                                      guarded, held)
                name = _dotted_self(item.context_expr)
                if name:
                    acquired.add(name)
            inner = held | acquired
            for child in node.body:
                yield from self._walk(module, child, guarded, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # A nested function runs later, possibly without the lock:
            # analyze its body as if nothing were held.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                yield from self._walk(module, child, guarded, frozenset())
            return
        attr = _self_attr(node)
        if attr is not None and attr in guarded:
            locks = guarded[attr]
            if not (locks & held):
                hint = sorted(locks)[0]
                yield self.finding(
                    module, node,
                    f"'{attr}' is guarded by {'/'.join(sorted(locks))} but "
                    f"accessed without holding it; wrap the access in "
                    f"`with self.{hint}:` or mark the method "
                    f"`# requires-lock: {hint}`")
            return  # self.<attr>: nothing guarded deeper down
        for child in ast.iter_child_nodes(node):
            yield from self._walk(module, child, guarded, held)


@register
class AtomicWriteRule(Rule):
    """Durable writes must go through :mod:`repro.persist`.

    Raw ``open(path, "w"/"wb")``, ``np.save*`` and ``Path.write_*``
    publish torn files on a crash; every artifact/snapshot/usage write
    learned this the hard way and now stages through
    ``persist.atomic_replace``.  Append-mode (``"a"``) and in-place
    (``"r+b"``) handles are not flagged — the WAL and the fault
    injectors need them and an atomic rename cannot express either.
    Genuinely non-durable output (debug dumps, fixture scaffolding) is
    suppressible.
    """

    id = "atomic-write"
    severity = "error"
    description = ("file writes must use repro.persist atomic helpers, "
                   "not raw open(..., 'w')/np.save*/Path.write_*")
    exempt = ("repro/persist.py",)

    _NP_WRITERS = ("save", "savez", "savez_compressed", "savetxt")

    def check(self, module):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and ("w" in mode or "x" in mode):
                    yield self.finding(
                        module, node,
                        f"open(..., {mode!r}) bypasses atomic "
                        f"publication — a crash mid-write leaves a torn "
                        f"file; use repro.persist.atomic_replace / "
                        f"atomic_write_bytes / atomic_write_json")
            elif isinstance(func, ast.Attribute):
                if (func.attr in self._NP_WRITERS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in ("np", "numpy")):
                    yield self.finding(
                        module, node,
                        f"np.{func.attr} writes non-atomically; stage "
                        f"through repro.persist.atomic_replace (np.save "
                        f"accepts the handle) or atomic_save_arrays")
                elif func.attr in ("write_text", "write_bytes"):
                    yield self.finding(
                        module, node,
                        f".{func.attr}() writes non-atomically; use "
                        f"repro.persist.atomic_write_bytes/_write_json")

    @staticmethod
    def _open_mode(call) -> str | None:
        """The literal mode of an ``open`` call ("r" when omitted,
        None when dynamic — a dynamic mode is not flaggable)."""
        for keyword in call.keywords:
            if keyword.arg == "mode":
                return _const_str(keyword.value)
        if len(call.args) >= 2:
            return _const_str(call.args[1])
        return "r"


@register
class DtypeHygieneRule(Rule):
    """Float32 discipline inside the compiled hot path.

    ``np.array``/``np.zeros``/``np.empty``/``np.ones``/``np.full``
    default to float64: an implicit-dtype allocation inside
    ``repro/infer`` or ``repro/nn`` silently doubles memory and breaks
    the bitwise module-vs-compiled parity contract.  Explicit float64
    (``dtype=np.float64``, ``astype(np.float64)``, ``astype(float)``)
    is equally an error — the one sanctioned high-precision accumulator,
    the gradient-norm sum in ``clip_grad_norm``, carries an inline
    suppression with its justification.
    """

    id = "dtype-hygiene"
    severity = "error"
    description = ("hot-path numpy allocations need an explicit dtype "
                   "and float64 is forbidden (repro/infer, repro/nn)")
    packages = ("repro/infer", "repro/nn")

    #: constructor → positional index of its dtype argument
    _CONSTRUCTORS = {"array": 1, "zeros": 1, "empty": 1, "ones": 1,
                     "full": 2}

    def check(self, module):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dtype = self._keyword(node, "dtype")
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                    and func.attr in self._CONSTRUCTORS):
                position = self._CONSTRUCTORS[func.attr]
                if dtype is None and len(node.args) > position:
                    dtype = node.args[position]
                if dtype is None:
                    yield self.finding(
                        module, node,
                        f"np.{func.attr} without an explicit dtype "
                        f"allocates float64 on the hot path; pass "
                        f"dtype=np.float32 (or the intended dtype)")
                    continue
            if (isinstance(func, ast.Attribute) and func.attr == "astype"
                    and dtype is None and node.args):
                dtype = node.args[0]
            if dtype is not None and self._is_float64(dtype):
                yield self.finding(
                    module, node,
                    "explicit float64 breaks the hot path's float32 "
                    "discipline; use np.float32, or suppress with a "
                    "justification for deliberate high-precision "
                    "accumulation")

    @staticmethod
    def _keyword(call, name):
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    @staticmethod
    def _is_float64(node) -> bool:
        if isinstance(node, ast.Attribute):
            return (isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                    and node.attr in ("float64", "double"))
        if isinstance(node, ast.Name):
            return node.id == "float"  # builtin float == float64
        text = _const_str(node)
        return text in ("float64", "f8", "d", "double")


@register
class FailClosedRule(Rule):
    """The durability layer must never swallow an error silently.

    A bare ``except:`` or an ``except Exception: pass`` inside
    ``repro/durable`` can turn a corrupt snapshot into a silent partial
    restore — the exact failure mode the staged recoverer exists to
    prevent.  Broad catches are fine when they *do* something (record a
    ``failure_reason``, clear state, re-raise); catches of narrow types
    (``OSError`` around best-effort pruning) are fine too.
    """

    id = "fail-closed"
    severity = "error"
    description = ("no bare except / swallowed broad except inside "
                   "repro/durable — recovery fails closed")
    packages = ("repro/durable",)

    def check(self, module):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare except swallows everything (including "
                    "KeyboardInterrupt) — catch specific exceptions and "
                    "surface a failure_reason")
            elif self._catches_broad(node.type) and self._swallows(node):
                yield self.finding(
                    module, node,
                    "except Exception with a no-op body silently "
                    "discards a durability failure; handle it (record, "
                    "clear, re-raise) or catch a narrow type")

    @staticmethod
    def _catches_broad(node) -> bool:
        names = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(n, ast.Name)
                   and n.id in ("Exception", "BaseException")
                   for n in names)

    @staticmethod
    def _swallows(handler) -> bool:
        return all(isinstance(stmt, ast.Pass)
                   or (isinstance(stmt, ast.Expr)
                       and isinstance(stmt.value, ast.Constant))
                   for stmt in handler.body)


@register
class WallClockRule(Rule):
    """Rate limiting, metering and cadence must use the monotonic clock.

    ``time.time()`` jumps under NTP steps and DST bookkeeping; a
    backwards jump refills token buckets and reorders cadence
    decisions.  Everything inside ``repro/gateway`` and ``repro/stream``
    measures *intervals*, so ``time.monotonic()`` (or
    ``time.perf_counter()`` for benchmarks) is always the right call.
    """

    id = "wall-clock"
    severity = "error"
    description = ("time.time() is forbidden in rate-limit/metering/"
                   "cadence code (repro/gateway, repro/stream); use "
                   "time.monotonic()")
    packages = ("repro/gateway", "repro/stream")

    def check(self, module):
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "time"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "time"):
                yield self.finding(
                    module, node,
                    "time.time() is wall-clock and can jump backwards; "
                    "use time.monotonic() for intervals")
            elif (isinstance(node, ast.ImportFrom)
                    and node.module == "time"
                    and any(alias.name == "time" for alias in node.names)):
                yield self.finding(
                    module, node,
                    "importing time.time invites wall-clock intervals; "
                    "import monotonic instead")


@register
class ThreadLifecycleRule(Rule):
    """Every spawned thread needs an explicit lifecycle decision.

    A ``threading.Thread(...)`` that neither sets ``daemon=`` nor is
    ever ``.join()``-ed blocks interpreter exit forever if its target
    loops — the serve drain and the gateway HTTP thread both decide
    this explicitly.  The join search is module-wide by target name, so
    a thread stored on ``self._worker`` and joined in ``close()``
    passes.  Heuristic (hence a warning, promoted by ``--strict``).
    """

    id = "thread-lifecycle"
    severity = "warning"
    description = ("threading.Thread needs an explicit daemon= or a "
                   "reachable .join()")

    def check(self, module):
        joined = self._joined_names(module.tree)
        assigned: dict[int, set] = {}
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Assign)
                    and self._is_thread_call(node.value)):
                assigned[id(node.value)] = self._target_names(node)
        for node in ast.walk(module.tree):
            if not self._is_thread_call(node):
                continue
            if any(kw.arg == "daemon" for kw in node.keywords):
                continue
            if assigned.get(id(node), set()) & joined:
                continue
            yield self.finding(
                module, node,
                "Thread without an explicit daemon= or a reachable "
                ".join(): an abandoned non-daemon thread blocks "
                "interpreter exit; decide its lifecycle explicitly")

    @staticmethod
    def _is_thread_call(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return (func.attr == "Thread"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "threading")
        return isinstance(func, ast.Name) and func.id == "Thread"

    @staticmethod
    def _target_names(node) -> set:
        """Names an ``Assign`` lands its Thread in (``x`` / ``self.x``)."""
        names = set()
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            else:
                attr = _self_attr(target)
                if attr:
                    names.add(attr)
        return names

    @staticmethod
    def _joined_names(tree) -> set:
        """Every name ``X`` with an ``X.join()`` / ``*.X.join()`` call."""
        joined = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                owner = node.func.value
                if isinstance(owner, ast.Name):
                    joined.add(owner.id)
                elif isinstance(owner, ast.Attribute):
                    joined.add(owner.attr)
        return joined
