"""Named special cases of the family, their mean-table rows, and the tree
of specializations.

Every entry maps its own free parameters onto the five family parameters
(p, b, c, q, x0).  That map and the Table-1 mean are each stated once, as
the text `catalog show` prints, and evaluated from it.  The skew-inverting
families (negative b: Weibull, Rayleigh, Exponential, Dagum, Lindsay-Burr
III) are the mirror twins of the positive-b entries and therefore carry no
tree edge; the drawn tree covers b > 0 only.

Naming note: Lindsay-Burr III is often called just Burr III (or Dagum with
location) elsewhere, and Tadikamalla-Burr XII appears as Burr XII with scale;
the names here follow the family-tree convention used throughout this
package.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

from .core import _PARAM_NAMES, IFParams
from .errors import DomainError, NumericFailure
from .kernels import beta, ln_gamma
from .moments import CLOSED_FORM, MomentResult, mean, moment_exists

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "TREE_EDGES",
    "catalog_names",
    "entry",
    "named",
    "resolve",
    "table1_mean",
    "records",
]

INF = math.inf


# The six forms a constraint text of free_parameters takes ("{}" stands
# for the parameter), each with the test it states and the message a
# violation prints.
_CONSTRAINT_FORMS: dict[str, tuple[Callable[[float], bool], str]] = {
    "{} > 0": (lambda v: v > 0, "must be positive"),
    "{} >= 0": (lambda v: v >= 0, "must be nonnegative"),
    "{} != 0": (lambda v: v != 0, "must be nonzero"),
    "{} < 0": (lambda v: v < 0, "must be negative"),
    "{} > 1": (lambda v: v > 1, "must exceed 1"),
    "0 < {} < inf": (lambda v: 0 < v < INF, "must be in (0, inf)"),
}

# What a formula text (map_text, mean_text, mean_constraint) may name
# besides its entry's own parameters.  B and Gamma call through this
# module's names, so that rebinding them here reaches every formula.
_FORMULA_NAMES = {"__builtins__": {}, "B": lambda x, y: beta(x, y),
                  "Gamma": lambda x: math.exp(ln_gamma(x)),
                  "sqrt": math.sqrt, "pi": math.pi, "inf": INF}

# The arguments read back off a family point other than by name, each with
# the family parameter it comes from: m = p + 1 and gamma = 1/b.
_READ_BACK = {"m": ("p", lambda p: p + 1.0), "gamma": ("b", lambda b: 1.0 / b)}


def _read_back(names, pa: IFParams) -> dict[str, float]:
    """The arguments `names` off the family point pa."""
    rules = [_READ_BACK.get(pname, (pname, float)) for pname in names]
    return {pname: inverse(getattr(pa, source))
            for pname, (source, inverse) in zip(names, rules)}


@functools.cache
def _compiled(text: str):
    """A formula text as Python: terms side by side (space between) are a
    product, a name right before "(" is a call, and ^ is a power."""
    src = re.sub(r"(?<=[\w)])\s+(?=[\w(])", "*", text).replace("^", "**")
    return compile(src, text, "eval")


def _evaluate(text: str, args: dict[str, float]):
    return eval(_compiled(text), _FORMULA_NAMES, args)


@dataclass(frozen=True)
class CatalogEntry:
    """A named special case: free parameters with constraint texts, and a map
    onto (p, b, c, q, x0) as map_text.  check() reads the texts, to_if() and
    matches() the map."""

    name: str
    free_parameters: tuple[tuple[str, str], ...]
    map_text: str              # the (p, b, c, q, x0) image, as printed
    tree_parent: str | None = None
    mean_text: str | None = None           # the mean formula, as printed
    mean_constraint: str | None = None
    in_mean_table: bool = True             # a row of the mean table

    @property
    def arity(self) -> int:
        return len(self.free_parameters)

    def check(self, **args) -> list[str]:
        """The constraints args break, as messages, in parameter order."""
        out = []
        for pname, text in self.free_parameters:
            test, message = _CONSTRAINT_FORMS[text.replace(pname, "{}", 1)]
            if not test(args[pname]):
                out.append(f"{pname} {message}")
        return out

    def to_if(self, **args) -> IFParams:
        """The family point of args, read from map_text."""
        return IFParams(*_evaluate(self.map_text, args))

    def matches(self, pa: IFParams) -> bool:
        """Whether the arguments read back off pa are finite, pass check()
        and map onto pa exactly, except in p and b, which m and gamma are
        read from: m - 1 and 1/gamma do not round-trip in floating point,
        and a subnormal gamma maps back to b = inf, outside the family."""
        args = _read_back([pname for pname, _ in self.free_parameters], pa)
        if self.check(**args) or not all(map(math.isfinite, args.values())):
            return False
        read = {_READ_BACK[pname][0] for pname in args if pname in _READ_BACK}
        try:
            image = self.to_if(**args)
        except DomainError:
            return False
        return all(getattr(image, f) == getattr(pa, f)
                   for f in _PARAM_NAMES if f not in read)

    def record(self) -> dict:
        """The machine-readable listing of this entry."""
        return {
            "name": self.name,
            "arity": self.arity,
            "parameters": ",".join(pname for pname, _ in self.free_parameters),
            "constraints": "; ".join(text for _, text in self.free_parameters),
            "if_map": self.map_text,
            "tree_parent": self.tree_parent or "",
            "mean": self.mean_text or "",
            "mean_constraint": self.mean_constraint or "",
        }


_ENTRIES = [
    # ---- four-parameter subfamilies -------------------------------------
    CatalogEntry(
        name="if1",
        free_parameters=(("b", "b != 0"), ("c", "c > 0"), ("q", "q > 0"),
                         ("x0", "x0 >= 0")),
        map_text="(0, b, c, q, x0)",
        tree_parent="if",
        in_mean_table=False,
    ),
    CatalogEntry(
        name="if2",
        free_parameters=(("b", "b != 0"), ("c", "c > 0"), ("q", "q > 0"),
                         ("x0", "x0 >= 0")),
        map_text="(inf, b, c, q, x0)",
        tree_parent="if",
        in_mean_table=False,
    ),
    CatalogEntry(
        name="if3",
        free_parameters=(("p", "0 < p < inf"), ("c", "c > 0"), ("q", "q > 0"),
                         ("x0", "x0 >= 0")),
        map_text="(p, 1, c, q, x0)",
        tree_parent="if",
        in_mean_table=False,
    ),

    # ---- power-law members (p = 0) ---------------------------------------
    CatalogEntry(
        name="pareto_iv",
        free_parameters=(("gamma", "gamma > 0"), ("c", "c > 0"), ("q", "q > 0"),
                         ("x0", "x0 >= 0")),
        map_text="(0, 1/gamma, c, q, x0)",
        tree_parent="if1",
        mean_text="x0 + c q B(q - gamma, 1 + gamma)",
        mean_constraint="gamma < q",
    ),
    CatalogEntry(
        name="lindsay_burr_iii",
        free_parameters=(("b", "b < 0"), ("c", "c > 0"), ("q", "q > 0"),
                         ("x0", "x0 >= 0")),
        map_text="(0, b, c, q, x0)",
        mean_text="x0 + c q B(q - 1/b, 1 + 1/b)",
        mean_constraint="b < -1",
    ),
    CatalogEntry(
        name="dagum",
        free_parameters=(("b", "b < 0"), ("c", "c > 0"), ("q", "q > 0")),
        map_text="(0, b, c, q, 0)",
        mean_text="c q B(q - 1/b, 1 + 1/b)",
        mean_constraint="b < -1",
    ),
    CatalogEntry(
        name="pareto_ii",
        free_parameters=(("c", "c > 0"), ("q", "q > 0"), ("x0", "x0 >= 0")),
        map_text="(0, 1, c, q, x0)",
        tree_parent="if1",
        mean_text="x0 + c / (q - 1)",
        mean_constraint="q > 1",
    ),
    CatalogEntry(
        name="pareto_iii",
        free_parameters=(("gamma", "gamma > 0"), ("c", "c > 0"), ("x0", "x0 >= 0")),
        map_text="(0, 1/gamma, c, 1, x0)",
        tree_parent="if1",
        mean_text="x0 + c Gamma(1 - gamma) Gamma(1 + gamma)",
        mean_constraint="gamma < 1",
    ),
    CatalogEntry(
        name="tadikamalla_burr_xii",
        free_parameters=(("b", "b > 0"), ("c", "c > 0"), ("q", "q > 0")),
        map_text="(0, b, c, q, 0)",
        tree_parent="if1",
        mean_text="c q B(q - 1/b, 1 + 1/b)",
        mean_constraint="b q > 1",
    ),
    CatalogEntry(
        name="pareto_i",
        free_parameters=(("x0", "x0 > 0"), ("q", "q > 0")),
        map_text="(0, 1, x0, q, x0)",
        tree_parent="pareto_ii",
        mean_text="q x0 / (q - 1)",
        mean_constraint="q > 1",
    ),
    CatalogEntry(
        name="lomax",
        free_parameters=(("c", "c > 0"), ("q", "q > 0")),
        map_text="(0, 1, c, q, 0)",
        tree_parent="pareto_ii",
        mean_text="c / (q - 1)",
        mean_constraint="q > 1",
    ),
    CatalogEntry(
        name="burr_xii",
        free_parameters=(("b", "b > 0"), ("q", "q > 0")),
        map_text="(0, b, 1, q, 0)",
        tree_parent="tadikamalla_burr_xii",
        mean_text="q B(q - 1/b, 1 + 1/b)",
        mean_constraint="b q > 1",
    ),
    CatalogEntry(
        name="fisk",
        free_parameters=(("b", "b > 0"), ("c", "c > 0")),
        map_text="(0, b, c, 1, 0)",
        tree_parent="pareto_iii",
        mean_text="c Gamma(1 - 1/b) Gamma(1 + 1/b)",
        mean_constraint="b > 1",
    ),

    # ---- cut-off members (p = inf) ----------------------------------------
    CatalogEntry(
        name="weibull",
        free_parameters=(("c", "c > 0"), ("q", "q > 0"), ("x0", "x0 >= 0")),
        map_text="(inf, -1, c, q, x0)",
        mean_text="x0 + c Gamma(1 + 1/q)",
    ),
    CatalogEntry(
        name="weibull_2p",
        free_parameters=(("c", "c > 0"), ("q", "q > 0")),
        map_text="(inf, -1, c, q, 0)",
        mean_text="c Gamma(1 + 1/q)",
        in_mean_table=False,
    ),
    CatalogEntry(
        name="frechet",
        free_parameters=(("c", "c > 0"), ("q", "q > 0"), ("x0", "x0 >= 0")),
        map_text="(inf, 1, c, q, x0)",
        tree_parent="if2",
        mean_text="x0 + c Gamma(1 - 1/q)",
        mean_constraint="q > 1",
    ),
    CatalogEntry(
        name="frechet_2p",
        free_parameters=(("c", "c > 0"), ("q", "q > 0")),
        map_text="(inf, 1, c, q, 0)",
        mean_text="c Gamma(1 - 1/q)",
        mean_constraint="q > 1",
        in_mean_table=False,
    ),
    CatalogEntry(
        name="gumbel_ii",
        free_parameters=(("c", "c > 0"), ("q", "q > 0")),
        map_text="(inf, 1, c, q, 0)",
        tree_parent="frechet",
        mean_text="c Gamma(1 - 1/q)",
        mean_constraint="q > 1",
    ),
    CatalogEntry(
        name="rayleigh",
        free_parameters=(("c", "c > 0"),),
        map_text="(inf, -1, c, 2, 0)",
        mean_text="c sqrt(pi) / 2",
    ),
    CatalogEntry(
        name="inverse_rayleigh",
        free_parameters=(("c", "c > 0"),),
        map_text="(inf, 1, c, 2, 0)",
        tree_parent="gumbel_ii",
        mean_text="c sqrt(pi)",
    ),
    CatalogEntry(
        name="exponential",
        free_parameters=(("c", "c > 0"),),
        map_text="(inf, -1, c, 1, 0)",
        mean_text="c",
    ),
    CatalogEntry(
        name="inverse_exponential",
        free_parameters=(("c", "c > 0"),),
        map_text="(inf, 1, c, 1, 0)",
        tree_parent="gumbel_ii",
        mean_text="not defined",
        mean_constraint="violated",
    ),

    # ---- b = 1 members with finite p > 0 (parameterized by m = p+1) -------
    CatalogEntry(
        name="generalized_lomax",
        free_parameters=(("m", "m > 1"), ("c", "c > 0"), ("q", "q > 0")),
        map_text="(m-1, 1, c, q, 0)",
        tree_parent="if3",
        mean_text="c m^(1-1/q) (B(1 - 1/q, m) - 1/m)",
        mean_constraint="q > 1",
    ),
    CatalogEntry(
        name="stoppa",
        free_parameters=(("m", "m > 1"), ("c", "c > 0"), ("q", "q > 0")),
        map_text="(m-1, 1, c, q, c m^(-1/q))",
        tree_parent="if3",
        mean_text="c m^(1-1/q) B(1 - 1/q, m)",
        mean_constraint="q > 1",
    ),
]

CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}


# Specialization edges of the drawn (b > 0) tree: child = parent with the
# stated condition pinned, as (parent, child, condition, direction, binder).
# "if" stands for the full five-parameter family, whose arguments are
# (p, b, c, q, x0).
def _binder(parent: str, child: str, condition: str, direction: str):
    """One side's arguments to the other's, read back off the family point:
    "up" maps child args to parent args, "down" parent args to child args
    (where the reverse would force a double reciprocal)."""
    source, target = (child, parent) if direction == "up" else (parent, child)
    names = _PARAM_NAMES if target == "if" else [
        pname for pname, _ in CATALOG[target].free_parameters]
    return lambda a: _read_back(names, CATALOG[source].to_if(**a))


TREE_EDGES: list[tuple[str, str, str, str, Callable[[dict], dict]]] = [
    (*edge, _binder(*edge)) for edge in [
        ("if", "if1", "p = 0", "up"),
        ("if", "if3", "b = 1", "up"),
        ("if", "if2", "p -> inf", "up"),
        ("if1", "pareto_iii", "q = 1", "up"),
        ("if1", "tadikamalla_burr_xii", "x0 = 0", "up"),
        ("if1", "pareto_ii", "b = 1", "up"),
        ("if3", "pareto_ii", "p = 0", "up"),
        ("if3", "generalized_lomax", "x0 = 0", "up"),
        ("if3", "stoppa", "x0 = c (p+1)^(-1/q)", "up"),
        ("if3", "frechet", "p -> inf", "up"),
        ("if2", "frechet", "b = 1", "up"),
        ("pareto_iii", "fisk", "x0 = 0", "down"),
        ("tadikamalla_burr_xii", "fisk", "q = 1", "up"),
        ("tadikamalla_burr_xii", "burr_xii", "c = 1", "up"),
        ("tadikamalla_burr_xii", "lomax", "b = 1", "up"),
        ("pareto_ii", "lomax", "x0 = 0", "up"),
        ("pareto_ii", "pareto_i", "x0 = c", "up"),
        ("generalized_lomax", "lomax", "p = 0", "up"),
        ("stoppa", "pareto_i", "p = 0", "up"),
        ("generalized_lomax", "gumbel_ii", "p -> inf", "up"),
        ("stoppa", "gumbel_ii", "p -> inf", "up"),
        ("frechet", "gumbel_ii", "x0 = 0", "up"),
        ("gumbel_ii", "inverse_exponential", "q = 1", "up"),
        ("gumbel_ii", "inverse_rayleigh", "q = 2", "up"),
    ]
]


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise DomainError(f"unknown distribution name {name!r}") from None


def _checked(e: CatalogEntry, args: dict) -> tuple[dict[str, float], IFParams]:
    """The arguments of entry e as floats and their family point, after
    checking names, constraints and the point itself (an infinite argument
    passes the constraint texts but can leave the family)."""
    expected = [pname for pname, _ in e.free_parameters]
    missing = [pn for pn in expected if pn not in args]
    extra = [k for k in args if k not in expected]
    bits = [f"{what} {', '.join(names)}" for what, names
            in (("missing", missing), ("unexpected", extra)) if names]
    if bits:
        raise DomainError(f"{e.name} takes ({', '.join(expected)}): "
                          + "; ".join(bits))
    clean = {k: float(v) for k, v in args.items()}
    problems = e.check(**clean)
    if problems:
        raise DomainError(f"{e.name}: " + "; ".join(problems))
    try:
        return clean, e.to_if(**clean)
    except DomainError as exc:
        raise DomainError(f"{e.name} maps {clean} outside the family: {exc}") from None


def named(name: str, **args) -> IFParams:
    """Family parameters of a named special case, validating its constraints."""
    return _checked(entry(name), args)[1]


def resolve(params: IFParams) -> list[str]:
    """Every catalog name whose constraint region contains the valid point
    params exactly, most specific (fewest free parameters) first; concrete
    names ahead of the if1/if2/if3 subfamily heads on ties."""
    hits = [e for e in CATALOG.values() if e.matches(params)]
    hits.sort(key=lambda e: (e.arity, e.name.startswith("if"), e.name))
    return [e.name for e in hits]


def table1_mean(name: str, **args) -> MomentResult:
    """The printed mean formula of a named case where the first moment exists
    at its family point (`moment_exists`, the rule `mean` uses), else the
    violated existence condition; at an infinite argument (no limit in
    floating point) the family point's mean."""
    e = entry(name)
    if e.mean_text is None:
        raise DomainError(f"{name} has no tabled mean expression")
    args, pa = _checked(e, args)
    if any(map(math.isinf, args.values())):
        return mean(pa)
    exists, condition = moment_exists(pa, 1)
    if not exists:
        return MomentResult(constraint=condition)
    try:
        return MomentResult(value=_evaluate(e.mean_text, args),
                            provenance=CLOSED_FORM)
    except OverflowError as exc:  # a Gamma or a power beyond the doubles
        raise NumericFailure(f"the {name} mean at {args} overflowed: {exc}") from exc


def records() -> list[dict]:
    """Machine-readable listing, one record per entry."""
    return [CATALOG[name].record() for name in catalog_names()]
