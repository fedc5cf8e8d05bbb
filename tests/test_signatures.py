"""Size limits and tolerances are module constants, not call parameters.

Every public callable is scanned: a parameter with a default is an option a
caller could set, and the only ones kept are the data defaults below.
"""

import inspect

from click.testing import CliRunner

import maxdiv
from maxdiv.cli import main
from maxdiv.io import parse_matrix
from maxdiv.kernels import scan_subsets

# name -> parameters allowed a default: the order grid and the subset (the
# full set when omitted) are data; so is a graph's edge list
ALLOWED_DEFAULTS = {
    "diversity_profile": {"orders"},
    "solve_weighting_space": {"subset"},
    "magnitude": {"subset"},
    "find_positive_weighting": {"subset"},
    "ReflexiveGraph": {"edges"},
    "IrreflexiveGraph": {"edges"},
}


def _public_callables():
    out = {"scan_subsets": scan_subsets, "parse_matrix": parse_matrix}
    for name in maxdiv.__all__:
        obj = getattr(maxdiv, name)
        # exception types take a message (and ParseError its location), not settings
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception)):
            out[name] = obj
    return out


def test_only_data_parameters_have_defaults():
    found = {}
    for name, obj in _public_callables().items():
        params = inspect.signature(obj).parameters.values()
        variadic = [p.name for p in params if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        defaults = {p.name for p in params if p.default is not p.empty}
        if variadic or defaults:
            found[name] = defaults | set(variadic)
    assert found == ALLOWED_DEFAULTS


def test_maximize_command_has_no_cap_option():
    result = CliRunner().invoke(main, ["maximize", "--help"])
    assert result.exit_code == 0
    assert "--matrix" in result.output
    assert "--cap" not in result.output
    assert "--method" not in result.output


# command path -> every option it takes (``--help`` aside); the maximizer
# picks its own route, so ``maximize`` has no route or size option
ALLOWED_OPTIONS = {
    (): {"--precision"},
    ("diversity",): {"--matrix", "--abundances", "-q", "--normalize"},
    ("profile",): {"--matrix", "--abundances", "--orders", "-o", "--output", "--normalize"},
    ("maximize",): {"--matrix", "--families", "--json"},
    ("diagnose",): {"--matrix", "--json"},
    ("graph",): set(),
    ("graph", "alpha"): {"--graph"},
    ("graph", "capacity"): {"--graph", "--json"},
    ("graph", "entropy"): {"--metric", "--epsilon", "--json"},
}


def _command_options(cmd, path=()):
    out = {path: {opt for param in cmd.params for opt in param.opts + param.secondary_opts}}
    for name, sub in getattr(cmd, "commands", {}).items():
        out.update(_command_options(sub, path + (name,)))
    return out


def test_every_command_option_is_allow_listed():
    assert _command_options(main) == ALLOWED_OPTIONS
