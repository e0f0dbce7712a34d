"""Deep semantic rules (REP101–REP104): project-wide contracts.

The shallow REP0xx rules look at one file at a time.  The rules here
run behind ``repro lint --deep`` and check the *cross-file* contracts
every kernel speedup since PR 3 has leaned on:

REP101
    Dimensional consistency.  Unit suffixes (REP003) induce an actual
    unit algebra (:mod:`repro.analysis.dimensions`); mixing joules
    with watts, or kelvin with seconds, in ``power/`` / ``thermal/`` /
    ``pipeline/`` is flagged — including across module boundaries via
    inferred function return/parameter dimensions.

REP102
    Macro-step contract.  Gating/throttle state (``busy``, ``mode``,
    ``stalled_until``, ``throttled_until``, the regfile ``_off`` set)
    may only be written by code reachable from an ``on_sample``
    boundary (plus construction/checkpoint restore).  This is the
    legality condition of the macro-stepped kernel: between samples
    the per-cycle loop must observe *frozen* gating state.

REP103
    SoA view discipline.  The SoA backing arrays (``UnitBank.ops`` /
    ``busy_cycles`` / ``turnoff_events``, the issue-queue ``_c``
    counter block, regfile ``_port_reads``/``_writes``) are mutated
    only inside ``repro/pipeline/``, where the write-through views and
    the kernel flush live.  Everything else reads through views.

REP104
    Kernel/reference counter parity.  Every SoA counter the
    ``REPRO_KERNEL=0`` reference loop (``Processor.step`` closure)
    bumps must also be landed by the kernel (``pipeline/kernel.py``
    closure) — a counter the kernel forgets silently skews energy
    accounting only when the kernel is on, the worst kind of drift.
    The batched arm additionally checks fork/finalize adoption:
    any batched-path function that restores a pickled leader snapshot
    must write the run's own counter row back into the run-axis store,
    or adoption clobbers the follower's counters with the leader's.

All four are built on the shared one-parse infrastructure
(:class:`~repro.analysis.callgraph.ProjectIndex` and
:class:`~repro.analysis.callgraph.CallGraph`); the reachability model
is deliberately permissive (see :mod:`repro.analysis.callgraph`), so
these rules under-report rather than cry wolf.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .callgraph import (CallGraph, FunctionInfo, ProjectIndex,
                        build_project_index)
from .dimensions import DimInferencer, FunctionDims
from .rules import FileContext, Finding, Rule

__all__ = ["ProjectContext", "DeepRule", "DEEP_RULES",
           "check_project"]


@dataclass
class ProjectContext:
    """Shared facts for one deep-lint run: parsed files, symbol table,
    call graph.  Built once; every deep rule reads from it."""

    index: ProjectIndex
    graph: CallGraph

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectContext":
        index = build_project_index(contexts)
        return cls(index=index, graph=CallGraph(index))


class DeepRule(Rule):
    """A rule that inspects the whole project at once."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())  # deep rules have no per-file pass

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, node: ast.AST,
                   message: str) -> Finding:
        return Finding(path=path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule_id=self.rule_id, message=message,
                       hint=self.autofix_hint)


def _in_scope(path: str, segments: Tuple[str, ...]) -> bool:
    return any(segment in path for segment in segments)


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# REP101 — dimensional consistency
# ---------------------------------------------------------------------------

class DimensionalConsistencyRule(DeepRule):
    """REP101: unit-suffixed quantities must combine consistently.

    Dimensions are inferred from REP003 suffixes on names, parameters
    and dataclass fields, then propagated through assignments,
    arithmetic and (name-resolved) cross-module calls.  Additive or
    comparative mixing of distinct dimensions, assigning a value of
    one dimension to a name declaring another, and passing the wrong
    dimension to a suffixed parameter are all flagged.  Watts are
    joules per second, so a missing ``/ interval_s`` shows up as a
    J-vs-W mismatch; nanojoules are distinct from joules and convert
    only through the ``NANOJOULE`` constant.
    """

    rule_id = "REP101"
    title = "dimensional mismatch between unit-suffixed quantities"
    autofix_hint = ("convert explicitly (* NANOJOULE, / interval_s, "
                    "...), fix the unit suffix, or suppress with "
                    "# repro: noqa[REP101]")

    #: Findings are only *reported* for these subtrees; inference runs
    #: project-wide so return/param tables cover cross-module calls.
    SCOPE = ("power/", "thermal/", "pipeline/")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        index = project.index
        summaries: Dict[str, FunctionDims] = {}
        for qual, info in index.functions.items():
            if info.is_lambda:
                continue
            inf = DimInferencer()
            summaries[qual] = inf.infer(info.node)

        returns, params = self._tables(index, summaries)
        for qual, info in index.functions.items():
            if info.is_lambda or not _in_scope(info.path, self.SCOPE):
                continue
            inf = DimInferencer(known_returns=returns,
                                param_table=params)
            inf.infer(info.node)
            for event in inf.events:
                yield self.finding_at(info.path, event.node,
                                      event.message)

    @staticmethod
    def _tables(index: ProjectIndex,
                summaries: Dict[str, FunctionDims]):
        returns: Dict[str, tuple] = {}
        params: Dict[str, List[Tuple[str, Optional[tuple]]]] = {}
        for name, infos in index.by_name.items():
            funcs = [i for i in infos if not i.is_lambda]
            dims = {summaries[i.qualname].return_dim for i in funcs
                    if i.qualname in summaries
                    and summaries[i.qualname].return_dim is not None}
            if len(dims) == 1:
                returns[name] = next(iter(dims))
            # Parameter dims are only trusted when the name is
            # unambiguous project-wide (one definition).
            if len(funcs) == 1 and funcs[0].qualname in summaries:
                plist = summaries[funcs[0].qualname].param_dims
                if any(dim is not None for _, dim in plist):
                    params[name] = plist
        return returns, params


# ---------------------------------------------------------------------------
# REP102 — macro-step contract
# ---------------------------------------------------------------------------

class MacroStepContractRule(DeepRule):
    """REP102: gating state is written only at on_sample boundaries.

    The kernel hoists gating/throttle state (unit ``busy`` flags,
    queue ``mode``, ``stalled_until``/``throttled_until``, the regfile
    ``_off`` set) once per macro-step chunk; any write between samples
    would be invisible to it.  A write to one of those attributes is
    legal only inside code reachable (on the call graph, callbacks
    included) from an ``on_sample``/``_on_sample`` root, or inside the
    construction/checkpoint boundary functions.
    """

    rule_id = "REP102"
    title = "gating state written outside the on_sample boundary"
    autofix_hint = ("route the write through a DTM mechanism invoked "
                    "from on_sample, or suppress with "
                    "# repro: noqa[REP102] if it is a new sanctioned "
                    "boundary")

    SCOPE = ("pipeline/", "core/")
    #: Attributes that make up hoistable gating/throttle state.
    GATING_ATTRS = frozenset({"busy", "mode", "stalled_until",
                              "throttled_until", "_off"})
    #: Set-mutator methods counted as writes (for the ``_off`` set).
    SET_MUTATORS = frozenset({"add", "discard", "remove", "clear",
                              "update"})
    #: Functions allowed to write gating state regardless of
    #: reachability: construction, checkpoint restore, and the batched
    #: fork overlay (``Processor.apply_gating``, called only from
    #: ``_adopt_leader_state`` at a ``run_batch`` sampling boundary
    #: to re-apply a run's own DTM decisions; DESIGN.md §11).
    BOUNDARY_FUNCS = frozenset({"__init__", "__post_init__",
                                "restore_state", "reset",
                                "snapshot_state", "force_all_on",
                                "apply_gating"})
    ROOT_NAMES = ("on_sample", "_on_sample")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        roots = [info.qualname
                 for name in self.ROOT_NAMES
                 for info in project.index.by_name.get(name, [])]
        reachable = graph.reachable(roots)
        for ctx in project.index.contexts:
            path = ctx.posix_path
            if not _in_scope(path, self.SCOPE):
                continue
            for node, attr in self._gating_writes(ctx.tree):
                func = graph.enclosing_function(path, node)
                if func is not None:
                    if func.qualname in reachable:
                        continue
                    if func.name in self.BOUNDARY_FUNCS:
                        continue
                    where = f"in {func.method_key}()"
                else:
                    where = "at module level"
                yield self.finding_at(
                    ctx.path, node,
                    f"gating state '.{attr}' written {where}, which "
                    f"is not reachable from an on_sample boundary")

    def _gating_writes(
            self, tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign,
                                 ast.AnnAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and target.attr in self.GATING_ATTRS:
                        yield node, target.attr
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self.SET_MUTATORS
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr in self.GATING_ATTRS):
                    yield node, func.value.attr


# ---------------------------------------------------------------------------
# shared counter-write extraction (REP103 / REP104)
# ---------------------------------------------------------------------------

#: Attribute names of SoA counter backing arrays.
_COUNTER_ATTRS = frozenset({"ops", "busy_cycles", "turnoff_events",
                            "_c", "_port_reads", "_writes"})


def _alias_maps(index: ProjectIndex) -> Dict[Tuple[str, str], str]:
    """``(path, attr_name) -> counter attr`` for instance attributes
    bound to a backing array (``self._ops_arr = bank.ops`` makes
    ``_ops_arr`` an alias of ``ops`` within that file)."""
    aliases: Dict[Tuple[str, str], str] = {}
    for ctx in index.contexts:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Attribute):
                continue
            if node.value.attr not in _COUNTER_ATTRS:
                continue
            for target in node.targets:
                name = _terminal(target)
                if name is not None:
                    aliases[(ctx.posix_path, name)] = node.value.attr
    return aliases


def _index_key(node: ast.AST) -> str:
    """Stable label for a counter-array index expression: the IQC_*
    constant name when there is one."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Name)
            and isinstance(node.right, ast.Constant)):
        return f"{node.left.id}+{node.right.value}"
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.Slice):
        lower = _index_key(node.lower) if node.lower else ""
        return f"{lower}:"
    return "*"


class _CounterWrites:
    """Extract (counter key, write node) pairs from one function.

    A *write* is an augmented assignment or a subscript store — plain
    attribute rebinding (``self.ops = np.zeros(...)``) is array
    (re)construction, not counter mutation.  Local names assigned from
    a backing array (``c = self._c``) are followed, as are per-file
    instance-attribute aliases (``self._ops_arr = bank.ops``).
    """

    def __init__(self, path: str,
                 attr_aliases: Dict[Tuple[str, str], str]) -> None:
        self.path = path
        self.attr_aliases = attr_aliases

    def _counter_of(self, node: ast.AST,
                    local_aliases: Dict[str, str]) -> Optional[str]:
        """Counter attr an expression denotes, or None."""
        if isinstance(node, ast.Attribute):
            if node.attr in _COUNTER_ATTRS:
                return node.attr
            return self.attr_aliases.get((self.path, node.attr))
        if isinstance(node, ast.Name):
            if node.id in local_aliases:
                return local_aliases[node.id]
            return self.attr_aliases.get((self.path, node.id))
        return None

    def writes(self, func: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        local_aliases: Dict[str, str] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, (ast.Attribute,
                                                ast.Name)):
                counter = self._counter_of(node.value, local_aliases)
                if counter is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_aliases[target.id] = counter
        for node in ast.walk(func):
            targets: List[ast.AST] = []
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = [t for t in node.targets
                           if isinstance(t, ast.Subscript)]
            for target in targets:
                key = self._key_of(target, local_aliases)
                if key is not None:
                    yield key, node

    def _key_of(self, target: ast.AST,
                local_aliases: Dict[str, str]) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            counter = self._counter_of(target.value, local_aliases)
            if counter is None:
                return None
            if counter == "_c":
                return f"_c[{_index_key(target.slice)}]"
            return counter
        counter = self._counter_of(target, local_aliases)
        return counter


# ---------------------------------------------------------------------------
# REP103 — SoA view discipline
# ---------------------------------------------------------------------------

class SoaViewDisciplineRule(DeepRule):
    """REP103: SoA backing arrays are mutated only in repro/pipeline/.

    ``UnitBank.ops``/``busy_cycles``/``turnoff_events``, the
    issue-queue ``_c`` counter block and the regfile
    ``_port_reads``/``_writes`` arrays are implementation storage;
    outside the pipeline package (where the write-through views and
    the kernel flush live) they are read-only.  Mutation from
    observability, power accounting or experiment code must go through
    the public counter views.
    """

    rule_id = "REP103"
    title = "direct write to SoA backing array outside repro/pipeline"
    autofix_hint = ("mutate through the write-through counter views "
                    "(ALUCounters / IssueQueueCounterView / "
                    "RegFileCounters) or move the code into "
                    "repro/pipeline")

    ALLOWED = ("pipeline/",)

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        attr_aliases = _alias_maps(project.index)
        seen: Set[int] = set()
        for info in project.index.functions.values():
            if _in_scope(info.path, self.ALLOWED):
                continue
            extractor = _CounterWrites(info.path, attr_aliases)
            for key, node in extractor.writes(info.node):
                if id(node) in seen:
                    continue  # nested defs share walk()ed nodes
                seen.add(id(node))
                yield self.finding_at(
                    info.path, node,
                    f"SoA counter storage '{key}' written outside "
                    f"repro/pipeline (in {info.method_key}())")


# ---------------------------------------------------------------------------
# REP104 — kernel/reference counter parity
# ---------------------------------------------------------------------------

class KernelParityRule(DeepRule):
    """REP104: counters bumped by the reference loop are landed by the
    kernel — on the per-run path *and* on the batched path.

    The reference per-cycle loop is everything reachable from
    ``Processor.step`` (``pipeline/processor.py``); the kernel side is
    everything reachable from the functions in
    ``pipeline/kernel.py`` (its flush phase lands hoisted
    accumulators with vectorized adds).  Any SoA counter written on
    the reference side but never on the kernel side diverges the
    moment ``REPRO_KERNEL=1`` — flagged at the reference write site.

    When a ``run_batch`` entry point exists, the same parity is
    additionally required of everything reachable from it: a batched
    run's counters (attr and IQC_* index keys, held per run on the
    run-axis store) must be landed by code the batched kernel actually
    reaches — a counter only the per-run driver lands would silently
    diverge under ``REPRO_BATCH=1``.

    The fork/finalize adoption arm gets its own check: a batched-path
    function in ``pipeline/kernel.py`` that calls ``restore_state``
    (leader-snapshot adoption when a follower forks or its class
    finishes) must also store the run's own counter row back through
    the run-axis store's backing matrix (``store.data[...] = ...``).
    ``restore_state`` writes the *leader's* counter values through the
    adopting run's row views, so an adoption path without the row
    write-back silently replaces the follower's activity history.
    """

    rule_id = "REP104"
    title = "reference-loop counter never landed by the kernel"
    autofix_hint = ("accumulate the counter in the kernel's hot loop "
                    "and land it in the flush phase "
                    "(pipeline/kernel.py)")

    REFERENCE_FILE = "pipeline/processor.py"
    REFERENCE_ROOT = "step"
    KERNEL_FILE = "pipeline/kernel.py"
    BATCH_ROOT = "run_batch"
    COUNTER_SCOPE = ("pipeline/",)
    #: method whose call marks a leader-snapshot adoption site
    RESTORE_CALL = "restore_state"
    #: run-axis backing-matrix attribute the write-back must store to
    WRITEBACK_ATTR = "data"

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        index, graph = project.index, project.graph
        ref_roots = [i.qualname for i in index.functions_matching(
            self.REFERENCE_ROOT, path_suffix=self.REFERENCE_FILE)]
        kernel_roots = [i.qualname for i in index.functions.values()
                        if i.path.endswith(self.KERNEL_FILE)]
        if not ref_roots or not kernel_roots:
            return  # nothing to compare (e.g. partial lint scope)
        ref_funcs = graph.reachable(ref_roots)
        kernel_funcs = graph.reachable(kernel_roots)
        batch_roots = [i.qualname for i in index.functions_matching(
            self.BATCH_ROOT, path_suffix=self.KERNEL_FILE)]
        batch_funcs = (graph.reachable(batch_roots)
                       if batch_roots else None)

        attr_aliases = _alias_maps(index)
        ref_writes: Dict[str, Tuple[str, ast.AST]] = {}
        kernel_keys: Set[str] = set()
        batch_keys: Set[str] = set()
        for qual, info in index.functions.items():
            if not _in_scope(info.path, self.COUNTER_SCOPE):
                continue
            extractor = _CounterWrites(info.path, attr_aliases)
            in_ref = qual in ref_funcs
            in_kernel = qual in kernel_funcs
            in_batch = batch_funcs is not None and qual in batch_funcs
            if not (in_ref or in_kernel or in_batch):
                continue
            for key, node in extractor.writes(info.node):
                if in_kernel:
                    kernel_keys.add(key)
                if in_batch:
                    batch_keys.add(key)
                if in_ref:
                    ref_writes.setdefault(key, (info.path, node))
        for key in sorted(ref_writes):
            path, node = ref_writes[key]
            if key not in kernel_keys:
                yield self.finding_at(
                    path, node,
                    f"counter '{key}' is updated by the reference "
                    f"per-cycle loop but never landed by the kernel "
                    f"(pipeline/kernel.py)")
            elif batch_funcs is not None and key not in batch_keys:
                yield self.finding_at(
                    path, node,
                    f"counter '{key}' is updated by the reference "
                    f"per-cycle loop but never landed on the batched "
                    f"kernel path (run_batch in pipeline/kernel.py)")
        if batch_funcs is not None:
            yield from self._check_writeback_arm(index, batch_funcs)

    def _check_writeback_arm(self, index: "ProjectIndex",
                             batch_funcs: Set[str]) -> Iterator[Finding]:
        """Flag adoption sites (``restore_state`` on the batched path)
        inside functions that never write the run's own counter row
        back (``store.data[...] = ...``)."""
        for qual, info in index.functions.items():
            if (qual not in batch_funcs
                    or not info.path.endswith(self.KERNEL_FILE)):
                continue
            restore_site: Optional[ast.AST] = None
            writes_back = False
            for node in ast.walk(info.node):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == self.RESTORE_CALL
                        and restore_site is None):
                    restore_site = node
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (isinstance(target, ast.Subscript)
                                and isinstance(target.value,
                                               ast.Attribute)
                                and target.value.attr
                                == self.WRITEBACK_ATTR):
                            writes_back = True
            if restore_site is not None and not writes_back:
                yield self.finding_at(
                    info.path, restore_site,
                    f"batched adoption path {info.method_key}() "
                    f"restores a leader snapshot without writing the "
                    f"run's own counter row back to the run-axis "
                    f"store (store.data[...] = ...); the restore "
                    f"clobbers the follower's counters with the "
                    f"leader's")


DEEP_RULES: Tuple[DeepRule, ...] = (
    DimensionalConsistencyRule(),
    MacroStepContractRule(),
    SoaViewDisciplineRule(),
    KernelParityRule(),
)


def check_project(contexts: Sequence[FileContext],
                  rules: Sequence[DeepRule] = DEEP_RULES
                  ) -> List[Finding]:
    """Run the deep rules over already-parsed file contexts."""
    project = ProjectContext.build(contexts)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check_project(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
