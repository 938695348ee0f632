"""Command line front end.

Four subcommands: mf numbers (closed form or construction recipe),
the named-check verification suites, Ext-quiver export, and parameter
recovery from the commutation pairing.  Output is JSON throughout;
verify streams one object per check so long suites stay tail-able.
"""

import json
import sys
from typing import Optional

import click

from .characters import is_faithful, make_char
from .groups import params_make
from .morita import (
    commutation_pairing, ext_dim, mf_number, pairing_to_json,
    params_for_target, recover_theta, simple_str, simples,
)
from .verify import run_checks


def _load_config(path: Optional[str]) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    if path is None:
        return {}
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.ClickException(
                    f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _resolve(cfg: dict, name: str, flag, cast=int, default=None):
    """Explicit flag wins, then the config file, then the default."""
    if flag is not None:
        return flag
    if name in cfg:
        try:
            return cast(cfg[name])
        except ValueError as err:
            raise click.ClickException(f"config {name}: {err}")
    return default


def _require(value, name: str):
    if value is None:
        raise click.UsageError(f"missing required parameter --{name}")
    return value


def _block(cfg: dict, ell, p_, r_, theta_e):
    """The parameters and the faithful theta (default exponent 1) that
    the flags and the config name."""
    sizes = [_require(_resolve(cfg, name, flag), name)
             for name, flag in (("ell", ell), ("p", p_), ("r", r_))]
    try:
        P = params_make(*sizes)
        j = _resolve(cfg, "theta", theta_e, default=1)
        theta = make_char(P, "Z", j)
    except ValueError as err:
        raise click.ClickException(str(err))
    if not is_faithful(theta):
        raise click.ClickException(
            f"theta exponent {j} is not faithful mod r={P.r}")
    return P, theta


def _block_options(command):
    """The --ell, --p, --r and --theta flags of a command on one block."""
    command = click.option("--theta", "theta_e", type=int, default=None,
                           help="exponent j of the block character"
                           " (default 1)")(command)
    for flag, name in (("--r", "r_"), ("--p", "p_"), ("--ell", "ell")):
        command = click.option(flag, name, type=int, default=None)(command)
    return command


_CONFIG = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    default=None, help="key=value file supplying any omitted flags")


@click.group()
def main() -> None:
    """Exact block invariants for the two-parameter family."""


@main.command()
@click.option("--ell", type=int, default=None, help="the characteristic")
@click.option("--n", "n_", type=int, default=None,
              help="target mf number (construction recipe mode)")
@click.option("--r", "r_", type=int, default=None,
              help="inertial order (direct mode)")
@_CONFIG
def mf(ell: Optional[int], n_: Optional[int], r_: Optional[int],
       config_path: Optional[str]) -> None:
    """Morita-Frobenius number: closed form, or the recipe for a target."""
    cfg = _load_config(config_path)
    ell = _require(_resolve(cfg, "ell", ell), "ell")
    # The config is only consulted when neither mode flag is explicit,
    # so a file shared with the other subcommands (which all take r)
    # does not poison recipe mode.
    if n_ is None and r_ is None:
        n_ = _resolve(cfg, "n", None)
        r_ = _resolve(cfg, "r", None) if n_ is None else None
    if (n_ is None) == (r_ is None):
        raise click.UsageError("exactly one of --n and --r is required")
    try:
        if n_ is not None:
            r, p = params_for_target(ell, n_)
            out = {"ell": ell, "n": n_, "r": r, "p": p,
                   "mf": mf_number(ell, r)}
        else:
            out = {"ell": ell, "r": r_, "mf": mf_number(ell, r_)}
    except (ValueError, RuntimeError) as err:
        raise click.ClickException(str(err))
    click.echo(json.dumps(out))


@main.command()
@_block_options
@click.option("--suite", type=click.Choice(("quick", "full")), default=None)
@click.option("--seed", type=int, default=None,
              help="sampling seed (default 0)")
@_CONFIG
def verify(ell, p_, r_, theta_e, suite, seed, config_path) -> None:
    """Run the named checks; one JSON line each, exit 0 iff all pass."""
    cfg = _load_config(config_path)
    P, theta = _block(cfg, ell, p_, r_, theta_e)
    suite = _resolve(cfg, "suite", suite, cast=str, default="quick")
    if suite not in ("quick", "full"):
        raise click.UsageError(f"suite must be quick or full, got {suite}")
    seed = _resolve(cfg, "seed", seed, default=0)
    report = run_checks(P, theta, suite=suite, seed=seed,
                        emit=lambda row: click.echo(json.dumps(row)))
    sys.exit(0 if report.passed else 1)


@main.command()
@_block_options
@click.option("--out", "fmt", type=click.Choice(("dot", "json")),
              default=None, help="output format (default dot)")
@click.option("--output", "dest", type=click.Path(dir_okay=False),
              default=None, help="write here instead of stdout")
@_CONFIG
def quiver(ell, p_, r_, theta_e, fmt, dest, config_path) -> None:
    """Ext quiver with multiplicities, as DOT or JSON."""
    cfg = _load_config(config_path)
    P, theta = _block(cfg, ell, p_, r_, theta_e)
    fmt = _resolve(cfg, "out", fmt, cast=str, default="dot")
    if fmt not in ("dot", "json"):
        raise click.UsageError(f"out must be dot or json, got {fmt}")
    labs = [s for s, _ in simples(P, theta)]
    names = [simple_str(s) for s in labs]
    ranks = ext_dim(P, theta, [(a, b) for a in labs for b in labs])
    matrix = [ranks[i:i + len(labs)] for i in range(0, len(ranks), len(labs))]
    if fmt == "json":
        text = json.dumps({
            "params": {"ell": P.ell, "p": P.p, "r": P.r, "theta": theta.e},
            "vertices": names, "matrix": matrix}) + "\n"
    else:
        lines = [f'  v{i} [label="{name}"];' for i, name in enumerate(names)]
        lines += [f'  v{i} -> v{j} [label="{k}"];'
                  for i, row in enumerate(matrix) for j, k in enumerate(row)
                  if k]
        text = "\n".join(["digraph ext_quiver {", *lines, "}"]) + "\n"
    if dest is None:
        click.echo(text, nl=False)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


@main.command()
@_block_options
@_CONFIG
def recover(ell, p_, r_, theta_e, config_path) -> None:
    """Commutation pairing table and the recovered exponent set."""
    cfg = _load_config(config_path)
    P, theta = _block(cfg, ell, p_, r_, theta_e)
    table = commutation_pairing(P, theta)
    out = {"params": {"ell": P.ell, "p": P.p, "r": P.r, "theta": theta.e},
           "pairing": pairing_to_json(P, table),
           "recovered": sorted(recover_theta(table, P))}
    click.echo(json.dumps(out))


if __name__ == "__main__":
    main()
