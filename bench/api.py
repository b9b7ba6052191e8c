"""The slice of the dicots public API the benchmark calls, loaded from source.

Every call the benchmark makes into the package goes through the namespace
``load`` returns, so the traced run can swap in span-recording wrappers (see
``tracing.py``) without the workloads knowing.

Memo-table sizes are read here and nowhere else, through ``len(store)`` and
``Store.cache(name)`` only.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

# Modules whose public functions the benchmark calls. A span's name is
# "<module>.<function>", so these are also the layer names.
MODULES = ("forms", "outcomes", "order", "canonical", "invert", "cli", "selftest")


class SourceMissing(RuntimeError):
    """Raised when the checkout holds no dicots sources to benchmark."""


def load(root: Path) -> SimpleNamespace:
    """Import dicots from ``root/src`` and bind the API the benchmark calls."""
    src = (root / "src").resolve()
    if not (src / "dicots" / "__init__.py").is_file():
        raise SourceMissing(f"no dicots package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    dicots = importlib.import_module("dicots")
    if Path(dicots.__file__).resolve().parent != src / "dicots":
        raise SourceMissing(f"imported dicots from {dicots.__file__}, not from {src}")
    mod = {m: importlib.import_module(f"dicots.{m}") for m in MODULES}
    store_cls = mod["forms"].Store

    def enumerate_dicots(store, max_birthday, limit=None, **kw):
        return list(mod["forms"].enumerate_dicots(store, max_birthday, limit, **kw))

    return SimpleNamespace(
        Store=store_cls,
        StepKind=mod["canonical"].StepKind,
        parse=mod["forms"].parse,
        notation=mod["forms"].notation,
        enumerate_dicots=enumerate_dicots,
        sum=store_cls.sum,
        conjugate=store_cls.conjugate,
        outcome=mod["outcomes"].outcome,
        geq=mod["order"].geq,
        eq_zero=mod["order"].eq_zero,
        compare=mod["order"].compare,
        canonical=mod["canonical"].canonical,
        is_invertible=mod["invert"].is_invertible,
        oracle_invertible=mod["invert"].oracle_invertible,
        cli_main=mod["cli"].main,
        iter_checks=mod["selftest"].iter_checks,
        day2_population=mod["selftest"].day2_population,
        day3_sample=mod["selftest"].day3_sample,
        selftest_levels=mod["selftest"].LEVELS,
        enumeration_seed=mod["forms"].ENUMERATION_SEED,
    )


# Counter name -> memo table it reads. A table is "absent" when the store no
# longer exposes it under that name; it is then left out of the report
# rather than read as 0.
MEMO_TABLES = {
    "forms.sum_memo": "sum",
    "forms.conjugate_memo": "conjugate",
    "forms.followers_memo": "followers",
    "outcomes.first_wins_memo": "first_wins",
    "order.geq_memo": "geq",
    "canonical.memo": "canonical",
}


def _table(store, name: str):
    cache = getattr(store, "cache", None)
    if callable(cache):
        return cache(name)
    # Stores that keep memo tables as attributes instead of named caches.
    return getattr(store, name, None)


def store_counters(store, step_kinds) -> dict:
    """Deterministic work counts read off one store.

    Returns counter name -> int, or None for a table the store does not
    expose. ``canonical.steps`` totals the recorded reduction steps, split by
    kind under ``canonical.steps.<kind>``; ``canonical.steps_per_follower``
    divides it by the number of followers canonicalised.
    """
    out: dict = {"forms.interned": len(store)}
    for counter, name in MEMO_TABLES.items():
        table = _table(store, name)
        out[counter] = None if table is None else len(table)
    steps = _table(store, "canonical_steps")
    kinds = [k.value for k in step_kinds]
    if steps is None:
        out["canonical.steps"] = None
        out["canonical.steps_per_follower"] = None
        out.update({f"canonical.steps.{k}": None for k in kinds})
        return out
    by_kind = dict.fromkeys(kinds, 0)
    for trace in list(steps.values()):
        for step in trace:
            by_kind[step.kind.value] = by_kind.get(step.kind.value, 0) + 1
    total = sum(by_kind.values())
    memo = out["canonical.memo"]
    out["canonical.steps"] = total
    out["canonical.steps_per_follower"] = total / memo if memo else 0.0
    out.update({f"canonical.steps.{k}": n for k, n in by_kind.items()})
    return out
