"""Command-line interface.

``maximize`` has no route option: the maximizer takes the fast path for a
positive semidefinite matrix whose full set has a nonnegative weighting and
sweeps subsets otherwise, and the output names the route it took.

Exit codes: 0 success, 2 input error (including an unreadable or unwritable
file), 3 precondition violation (asymmetry, size caps), 4 numerical failure
(including a result beyond the float64 range).  Every ``MaxdivError`` a
command raises reaches the command group, which prints it as one ``error:``
line and exits with its code; a file that cannot be read or written is one
too, from :func:`_read` or ``profile``'s writer.
"""

from __future__ import annotations

import json
import math

import click

from .diversity import DEFAULT_ORDERS, check_order, diversity, diversity_profile
from .errors import InputError, NumericalError, PreconditionError
from .graphs import (
    FiniteMetric,
    IrreflexiveGraph,
    ReflexiveGraph,
    check_covering_size,
    clique_capacity,
    epsilon_entropy_bounds,
    independence_number,
)
from .io import parse_community, parse_distances, parse_graph, parse_matrix
from .linalg import is_strictly_diagonally_dominant, is_ultrametric, solve_weighting_space
from .maximize import full_support_diagnostics, maximize

EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_order(text: str) -> float:
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return check_order(float(s))
    except ValueError:
        raise InputError(f"bad order {text!r}: expected a nonnegative number or 'inf'") from None


def _order_str(q: float) -> str:
    return "inf" if math.isinf(q) else repr(q) if q != int(q) else str(int(q))


def _fmt(v: float) -> str:
    digits = max(1, click.get_current_context().find_root().params["precision"])
    return f"{v:.{digits}g}"


def _support_str(indices) -> str:
    return "{" + ",".join(str(i + 1) for i in indices) + "}"


class _Group(click.Group):
    """The command group: the one place where a ``MaxdivError`` from any
    command, nested groups' included, becomes its ``error:`` line on stderr
    and its exit code."""

    def invoke(self, ctx):
        codes = {InputError: EXIT_INPUT, PreconditionError: EXIT_PRECONDITION, NumericalError: EXIT_NUMERICAL}
        try:
            return super().invoke(ctx)
        except tuple(codes) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(next(code for cls, code in codes.items() if isinstance(exc, cls)))


@click.group(cls=_Group)
@click.option("--precision", type=int, default=6, show_default=True, help="Significant digits for display.")
def main(precision):
    """Similarity-sensitive diversity: evaluate it, profile it, maximize it."""


@main.command("diversity")
@click.option("--matrix", "matrix_path", required=True, metavar="FILE")
@click.option("--abundances", "abundance_path", required=True, metavar="FILE")
@click.option("-q", "orders", multiple=True, required=True, help="Order q (repeatable); 'inf' allowed.")
@click.option("--normalize", is_flag=True, help="Rescale abundances to sum to one before validating.")
def diversity_cmd(matrix_path, abundance_path, orders, normalize):
    """Print the diversity of order q of a community."""
    z, p = parse_community(_read(matrix_path), _read(abundance_path), normalize=normalize)
    for text in orders:
        q = _parse_order(text)
        click.echo(f"D_{_order_str(q)} = {_fmt(diversity(z, p, q))}")


@main.command("profile")
@click.option("--matrix", "matrix_path", required=True, metavar="FILE")
@click.option("--abundances", "abundance_path", required=True, metavar="FILE")
@click.option("--orders", "orders_text", default=None, help="Comma-separated ascending orders (default grid otherwise).")
@click.option("-o", "--output", metavar="FILE", default=None, help="Write CSV here instead of stdout.")
@click.option("--normalize", is_flag=True)
def profile_cmd(matrix_path, abundance_path, orders_text, output, normalize):
    """Write the diversity profile as CSV rows q,value."""
    z, p = parse_community(_read(matrix_path), _read(abundance_path), normalize=normalize)
    orders = DEFAULT_ORDERS if orders_text is None else tuple(_parse_order(t) for t in orders_text.split(","))
    prof = diversity_profile(z, p, orders)
    lines = ["q,value"] + [f"{_order_str(q)},{v!r}" for q, v in prof.items()]
    text = "\n".join(lines) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from None


def _maximization_json(result):
    return {
        "dmax": result.dmax,
        "method": result.method,
        "unique": result.unique,
        "sample_maximizer": list(result.sample_maximizer.probs),
        "full_support_exists": result.full_support_exists,
        "all_maximizers_full_support": result.all_maximizers_full_support,
        "winners": [
            {
                "support": [i + 1 for i in fs.indices],
                "magnitude": fs.magnitude,
                "nonnegative_weighting": list(fs.weighting_space.nonnegative),
                "particular": list(fs.weighting_space.particular),
                "kernel_basis": [list(v) for v in fs.weighting_space.nullspace],
            }
            for fs in result.winners
        ],
    }


@main.command("maximize")
@click.option("--matrix", "matrix_path", required=True, metavar="FILE")
@click.option("--families", is_flag=True, help="Describe the full weighting space of every winner.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output at full precision.")
def maximize_cmd(matrix_path, families, as_json):
    """Maximum diversity, winning subsets, and a maximizing distribution."""
    result = maximize(parse_matrix(_read(matrix_path)))
    if as_json:
        click.echo(json.dumps(_maximization_json(result), indent=2))
        return
    click.echo(f"dmax: {_fmt(result.dmax)}")
    click.echo(f"method: {result.method}")
    uniq = {True: "yes", False: "no", None: "not certified"}[result.unique]
    click.echo(f"unique maximizer: {uniq}")
    click.echo(f"winners: {len(result.winners)}")
    for fs in result.winners:
        click.echo(f"  support {_support_str(fs.indices)}  magnitude {_fmt(fs.magnitude)}")
        if families:
            ws = fs.weighting_space
            click.echo("    representative weighting: " + ", ".join(_fmt(v) for v in ws.nonnegative))
            if ws.nullspace.shape[0] == 0:
                click.echo("    kernel: trivial (unique weighting)")
            for vec in ws.nullspace:
                click.echo("    kernel direction: " + ", ".join(_fmt(v) for v in vec))
    click.echo("sample maximizer: " + ", ".join(_fmt(v) for v in result.sample_maximizer.probs))
    click.echo(f"full-support maximizer exists: {'yes' if result.full_support_exists else 'no'}")
    click.echo(f"all maximizers full support: {'yes' if result.all_maximizers_full_support else 'no'}")


@main.command("diagnose")
@click.option("--matrix", "matrix_path", required=True, metavar="FILE")
@click.option("--json", "as_json", is_flag=True)
def diagnose_cmd(matrix_path, as_json):
    """Matrix-class predicates and species-preservation findings."""
    z = parse_matrix(_read(matrix_path))
    diag = full_support_diagnostics(z)  # refuses asymmetry before any reduction
    ws = diag.weighting_space or solve_weighting_space(z)
    info = {
        "symmetric": z.symmetric,
        "positive_semidefinite": diag.positive_semidefinite,
        "positive_definite": diag.positive_definite,
        "ultrametric": is_ultrametric(z),
        "strictly_diagonally_dominant": is_strictly_diagonally_dominant(z),
        "min_eigenvalue": diag.min_eigenvalue,
        "eigenvalue_floor": diag.eigenvalue_floor,
        "magnitude": ws.magnitude,
        "positive_weighting": None if diag.positive_weighting is None else list(diag.positive_weighting),
        "full_support_maximizer_exists": diag.exists_full_support_maximizer,
        "all_maximizers_full_support": diag.all_maximizers_full_support,
    }
    if as_json:
        click.echo(json.dumps(info, indent=2))
        return
    yn = lambda b: "yes" if b else "no"
    click.echo(f"symmetric: {yn(info['symmetric'])}")
    click.echo(f"positive semidefinite: {yn(info['positive_semidefinite'])}"
               f" (min eigenvalue {_fmt(info['min_eigenvalue'])}, floor {_fmt(info['eigenvalue_floor'])})")
    click.echo(f"positive definite: {yn(info['positive_definite'])}")
    click.echo(f"ultrametric: {yn(info['ultrametric'])}")
    click.echo(f"strictly diagonally dominant: {yn(info['strictly_diagonally_dominant'])}")
    if info["magnitude"] is None:
        click.echo("magnitude: undefined (no weighting)")
    else:
        click.echo(f"magnitude: {_fmt(info['magnitude'])}")
    if info["positive_weighting"] is None:
        click.echo("positive weighting: none")
    else:
        click.echo("positive weighting: " + ", ".join(_fmt(v) for v in info["positive_weighting"]))
    click.echo(f"full-support maximizer exists: {yn(info['full_support_maximizer_exists'])}")
    click.echo(f"all maximizers full support: {yn(info['all_maximizers_full_support'])}")


@main.group("graph")
def graph_group():
    """Graph and finite-metric applications."""


@graph_group.command("alpha")
@click.option("--graph", "graph_path", required=True, metavar="FILE")
def alpha_cmd(graph_path):
    """Independence number of a reflexive graph (= its maximum diversity)."""
    n, edges = parse_graph(_read(graph_path))
    click.echo(str(independence_number(ReflexiveGraph(n, edges))))


@graph_group.command("capacity")
@click.option("--graph", "graph_path", required=True, metavar="FILE")
@click.option("--json", "as_json", is_flag=True)
def capacity_cmd(graph_path, as_json):
    """Clique capacity of a loop-free graph, with a witness distribution."""
    n, edges = parse_graph(_read(graph_path))
    res = clique_capacity(IrreflexiveGraph(n, edges))
    if as_json:
        click.echo(json.dumps({
            "capacity": res.value,
            "clique": [i + 1 for i in res.clique],
            "witness": list(res.witness.probs),
        }, indent=2))
        return
    click.echo(f"capacity: {_fmt(res.value)}")
    click.echo(f"maximum clique: {_support_str(res.clique)}")
    click.echo("witness: " + ", ".join(_fmt(v) for v in res.witness.probs))


@graph_group.command("entropy")
@click.option("--metric", "metric_path", required=True, metavar="FILE")
@click.option("--epsilon", type=float, required=True)
@click.option("--json", "as_json", is_flag=True)
def entropy_cmd(metric_path, epsilon, as_json):
    """Covering numbers sandwiching the thresholded maximum diversity."""
    dist = parse_distances(_read(metric_path))
    check_covering_size(dist.shape[0])  # before the metric's O(n³) triangle check
    res = epsilon_entropy_bounds(FiniteMetric(dist), epsilon)
    if as_json:
        click.echo(json.dumps({
            "epsilon": epsilon,
            "covering_number": res.covering_number,
            "covering_number_half": res.covering_number_half,
            "dmax_of_threshold": res.dmax_of_threshold,
        }, indent=2))
        return
    click.echo(f"N(d, eps)   = {res.covering_number}")
    click.echo(f"Dmax(Z^eps) = {_fmt(res.dmax_of_threshold)}")
    click.echo(f"N(d, eps/2) = {res.covering_number_half}")


if __name__ == "__main__":
    main()
