"""The built-in reprolint rules: the repo's invariant catalog.

Each rule encodes one contract an earlier PR introduced (see the
"Invariant catalog" table in DESIGN.md).  Rules are AST heuristics, not
proofs: they make contract violations loud at lint time, and every rule
honours the ``# reprolint: disable=RULE-ID`` escape hatch for the rare
deliberate exception.

====================  ==================================================
RNG-001               seed determinism: no global-state RNG calls
STORE-001             store stages are pure functions of their cache key
BACKEND-001           dense-kernel math stays behind the backend boundary
ERR-001               raises derive from ReproError; unknown-name errors
                      list valid choices
REG-001               registered components are documented
NET-001               raw sockets stay behind cluster/transport.py
====================  ==================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import ModuleContext, register_lint_rule

__all__: list = []  # rules register themselves; nothing to re-export


# ----------------------------------------------------------------------
# RNG-001 — seed determinism
# ----------------------------------------------------------------------
@register_lint_rule(
    "RNG-001",
    title="no global-state RNG",
    description=(
        "Calls into numpy.random.* (default_rng, distributions, the legacy "
        "seeded API) and any use of the stdlib random module are banned "
        "outside util/rng.py: all randomness threads through "
        "util.rng.as_generator so a config seed reproduces a run bit-for-bit."
    ),
    contract="PR 2 sweep determinism / PR 4 content-addressed stage keys",
    fix_hint="thread an rng through repro.util.rng.as_generator/spawn",
    exempt=("util/rng.py",),
)
def _rng_001(ctx: ModuleContext) -> Iterator[tuple]:
    """Flag numpy.random calls and stdlib-random imports."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "random" or item.name.startswith("random."):
                    yield node, "import of the stdlib random module (global-state RNG)"
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module and (
                node.module == "random" or node.module.startswith("random.")
            ):
                yield node, "import from the stdlib random module (global-state RNG)"
        elif isinstance(node, ast.Call):
            name = ctx.dotted_name(node.func)
            if name is None:
                continue
            if name.startswith("numpy.random.") or name == "numpy.random":
                yield node, f"direct call to {name} bypasses util.rng.as_generator"
            elif name.startswith("random.") and ctx.aliases.get("random") == "random":
                yield node, f"stdlib global-state RNG call {name}"


# ----------------------------------------------------------------------
# STORE-001 — stage purity
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "uuid.uuid1",
    "uuid.uuid4",
}


def _module_level_mutables(tree: ast.Module) -> Set[str]:
    """Module globals bound to mutable literals, excluding ALL_CAPS
    constants (the repo's convention for registries/codecs tables)."""
    mutable_types = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value: Optional[ast.expr] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if value is None:
            continue
        is_mutable = isinstance(value, mutable_types) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in {"dict", "list", "set", "defaultdict", "OrderedDict"}
        )
        if not is_mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.isupper():
                names.add(target.id)
    return names


@register_lint_rule(
    "STORE-001",
    title="store stages are pure",
    description=(
        "Store-mediated stage code may not read os.environ, wall-clock/time "
        "APIs, or non-constant mutable module globals, and may not declare "
        "globals: a stage's output must be a pure function of its "
        "content-addressed cache key or cached artifacts go stale silently."
    ),
    contract="PR 4 content-addressed stage store",
    fix_hint="pass the value through the config so it lands in the stage key",
    only=("store/stages.py", "store/keys.py"),
)
def _store_001(ctx: ModuleContext) -> Iterator[tuple]:
    """Flag impure reads inside the store's stage/key modules."""
    mutables = _module_level_mutables(ctx.tree)
    for func in ctx.functions():
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield node, "global declaration inside a store stage function"
            elif isinstance(node, ast.Call):
                name = ctx.dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield node, f"wall-clock/entropy call {name} inside store code"
                elif name in {"os.getenv", "os.environ.get"}:
                    yield node, "environment read inside store code"
            elif isinstance(node, ast.Attribute):
                if ctx.dotted_name(node) == "os.environ":
                    yield node, "os.environ access inside store code"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in mutables:
                    yield (
                        node,
                        f"read of mutable module global {node.id!r} inside "
                        "store code (not part of any cache key)",
                    )


# ----------------------------------------------------------------------
# BACKEND-001 — the bit-identity boundary
# ----------------------------------------------------------------------
@register_lint_rule(
    "BACKEND-001",
    title="dense-kernel math stays behind the backend",
    description=(
        "np.outer / np.power are reserved to repro/backend/ and sinr/kernels.py: "
        "every other module must go through the kernel cache and its block "
        "functions so the bit-identity contract (backends share store keys) "
        "stays closed."
    ),
    contract="PR 7 pluggable numeric backends (bit-identical by contract)",
    fix_hint="route the computation through links.kernel() / repro.backend",
    exempt=("repro/backend/", "sinr/kernels.py"),
)
def _backend_001(ctx: ModuleContext) -> Iterator[tuple]:
    """Flag dense-kernel numpy calls."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = ctx.dotted_name(node.func)
            if name in {"numpy.outer", "numpy.power"}:
                yield node, f"dense-kernel call {name} outside the backend boundary"


# ----------------------------------------------------------------------
# ERR-001 — error hierarchy + helpful unknown-name messages
# ----------------------------------------------------------------------
#: Builtins that must not be raised directly inside src/repro.
#: TypeError / NotImplementedError are deliberately absent: the library
#: lets genuine programming errors propagate (see repro.errors).
_BANNED_RAISES = {
    "Exception",
    "BaseException",
    "ValueError",
    "RuntimeError",
    "KeyError",
    "IndexError",
    "LookupError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OSError",
    "IOError",
    "EnvironmentError",
    "AttributeError",
    "StopIteration",
    "SystemError",
    "BufferError",
    "EOFError",
    "UnicodeError",
}

_CHOICE_MARKERS = ("available", "expected", "valid", "choices", "one of")


def _literal_text(node: ast.expr) -> str:
    """Concatenated literal fragments of a string/f-string argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            value.value
            for value in node.values
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_text(node.left) + _literal_text(node.right)
    return ""


@register_lint_rule(
    "ERR-001",
    title="raises derive from ReproError",
    description=(
        "Library failures raise ReproError subclasses (callers catch one "
        "type; the CLI maps it to exit 2), never bare stdlib exceptions — "
        "TypeError/NotImplementedError stay reserved for genuine programming "
        "errors.  Additionally, any 'unknown <name>' message must list the "
        "valid choices, matching the Registry error convention."
    ),
    contract="PR 3 registry API (unknown-name errors list every valid choice)",
    fix_hint="raise a repro.errors.ReproError subclass and enumerate choices",
)
def _err_001(ctx: ModuleContext) -> Iterator[tuple]:
    """Flag bare-builtin raises and unhelpful unknown-name messages."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name) and target.id in _BANNED_RAISES:
            yield (
                node,
                f"raise of bare {target.id} inside src/repro; use a "
                "ReproError subclass",
            )
        if isinstance(exc, ast.Call) and exc.args:
            text = _literal_text(exc.args[0]).lower()
            if "unknown" in text and not any(m in text for m in _CHOICE_MARKERS):
                yield (
                    node,
                    "unknown-name error message does not list the valid "
                    "choices",
                )


# ----------------------------------------------------------------------
# REG-001 — documented components
# ----------------------------------------------------------------------
def _call_has_description(call: ast.Call) -> bool:
    """Whether a call carries a non-empty description (keyword, or the
    wrapper idiom of forwarding a positional variable named
    ``description``)."""
    for kw in call.keywords:
        if kw.arg == "description":
            if isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
            return True
    return any(
        isinstance(arg, ast.Name) and arg.id == "description" for arg in call.args
    )


def _is_register_call(ctx: ModuleContext, call: ast.Call) -> bool:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr == "register"
    if isinstance(call.func, ast.Name):
        return call.func.id.startswith("register_")
    return False


def _local_defs(tree: ast.Module) -> Dict[str, ast.AST]:
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


@register_lint_rule(
    "REG-001",
    title="registered components are documented",
    description=(
        "Every registry registration must carry human documentation: a "
        "description= on the decorator or spec constructor, or a docstring "
        "on the registered function/class.  Undocumented names surface in "
        "CLI choices= lists and error messages with no way to learn what "
        "they do."
    ),
    contract="PR 3 registry API (registries are the documented extension surface)",
    fix_hint="add description=... to the registration or a docstring to the component",
)
def _reg_001(ctx: ModuleContext) -> Iterator[tuple]:
    """Flag undocumented registrations (decorator and direct forms)."""
    local = _local_defs(ctx.tree)
    decorated: Set[int] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            if not (isinstance(dec, ast.Call) and _is_register_call(ctx, dec)):
                continue
            decorated.add(id(dec))
            if not _call_has_description(dec) and not ast.get_docstring(node):
                yield (
                    dec,
                    f"registration of {node.name!r} has neither a "
                    "description= nor a docstring",
                )
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and _is_register_call(ctx, node)
            and id(node) not in decorated
        ):
            continue
        if len(node.args) < 2:
            continue  # decorator-factory form; handled above at its use site
        component = node.args[1]
        if isinstance(component, ast.Lambda):
            yield node, "lambda registered as a component (cannot carry a docstring)"
            continue
        if _call_has_description(node):
            continue
        if isinstance(component, ast.Call) and _call_has_description(component):
            continue
        # Same-module defs must be documented; imported objects are
        # trusted (an AST linter does not resolve cross-module).
        names = []
        if isinstance(component, ast.Name):
            names.append(component.id)
        elif isinstance(component, ast.Call) and isinstance(component.func, ast.Name):
            names.append(component.func.id)
        for name in names:
            definition = local.get(name)
            if definition is not None and not ast.get_docstring(definition):
                yield (
                    node,
                    f"registered component {name!r} is defined here without "
                    "a docstring or description",
                )


# ----------------------------------------------------------------------
# NET-001 — sockets stay behind the cluster transport
# ----------------------------------------------------------------------
#: Socket-module entry points that open raw connections or listeners.
_RAW_SOCKET_CALLS = {
    "socket.socket",
    "socket.create_connection",
    "socket.create_server",
    "socket.socketpair",
    "socket.fromfd",
}


@register_lint_rule(
    "NET-001",
    title="raw sockets stay behind cluster/transport.py",
    description=(
        "Imports of the socket module, raw socket constructors "
        "(socket.socket, create_connection, create_server, socketpair, "
        "fromfd) and asyncio.open_connection are reserved to "
        "cluster/transport.py: every other module speaks the framed, "
        "schema-versioned message protocol through FrameConnection / "
        "FrameServer, so timeouts, reconnect backoff and the frame-size "
        "guard cannot be bypassed."
    ),
    contract="PR 9 distributed sweep service (one wire, one framing)",
    fix_hint="use repro.cluster.transport (FrameConnection/FrameServer) "
    "instead of raw sockets",
    exempt=("cluster/transport.py",),
)
def _net_001(ctx: ModuleContext) -> Iterator[tuple]:
    """Flag socket imports and raw connection/listener constructors."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "socket" or item.name.startswith("socket."):
                    yield node, "import of the raw socket module"
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module and (
                node.module == "socket" or node.module.startswith("socket.")
            ):
                yield node, "import from the raw socket module"
        elif isinstance(node, ast.Call):
            name = ctx.dotted_name(node.func)
            if name is None:
                continue
            if name in _RAW_SOCKET_CALLS:
                yield node, (
                    f"raw socket constructor {name} outside the cluster "
                    "transport"
                )
            elif name == "asyncio.open_connection":
                yield node, (
                    "asyncio.open_connection outside the cluster transport"
                )
