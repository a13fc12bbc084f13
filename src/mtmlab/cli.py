"""Command-line interface.

Subcommands: soliton, evolve, conserved, spectrum, sigma, sweep, stability,
h1bound, scatter.  Each accepts only the settings it reads (``_COMMANDS``),
as flags or as keys of an optional JSON config file, the flags winning;
outputs land in the --out directory as record.json plus the CSV tables.
Exit code is 0 iff every verdict of the run passes, 1 if one fails, and 2
(with a one-line message) for input the library refuses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import conserved, scattering, spectral
from .evolve import EvolverConfig
from .experiments import (
    SLOPE_TOL,
    RunRecord,
    evolution_run,
    h1_bound_experiment,
    omega_sweep,
    perturbed_soliton,
    stability_experiment,
)
from .grid import Grid, dump_state, write_table
from .soliton import SolitonParams, eval_soliton

# setting -> (type, default); a command's flag and its config-file key set
# the same value, the flag winning
_SETTINGS = {
    "omega": (float, 0.5),
    "grid_L": (float, 40.0),
    "grid_N": (int, None),  # evolution grids fall back to 1024, spectral ones to spectral_grid
    "dt": (float, 1e-3),
    "t_end": (float, 10.0),
    "seed": (int, 0),
    "out": (str, "."),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors, the library's refusals included, are one stderr line."""

    def error(self, message):
        self.exit(2, f"mtmlab: error: {message}\n")


# comma lists of numbers; argparse reads a value such as "-0.7,0.3" as a flag
# (it passes a lone negative number only), so such a value is glued to its flag
_NUMBER_LISTS = ("--omegas", "--lambdas")


def _glue_number_lists(argv: list[str]) -> list[str]:
    """``argv`` with each value that starts with "-" and a digit or "." and
    follows --omegas or --lambdas glued to it, as in "--omegas=-0.7,0.3"."""
    glued = []
    for token in argv:
        if glued and glued[-1] in _NUMBER_LISTS and re.match(r"-\.?\d", token):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    return glued


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config_file(path: str, keys: tuple[str, ...], command: str) -> dict:
    """Settings from a JSON config file, refused with a ``ValueError`` that
    names the path or the key when the file is unreadable or not a JSON
    object, a key is not one of the command's settings ``keys``, or a value
    does not have its flag's type (an integer passes for a float)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            file_cfg = json.load(f)
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config file {path} is not JSON: {err}") from err
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unread = set(file_cfg) - set(keys)
    if unread:
        raise ValueError(
            f"config keys {sorted(unread)} are not read by {command!r}, which reads {list(keys)}")
    for key, val in file_cfg.items():
        kind = _SETTINGS[key][0]
        ok = isinstance(val, kind) or (kind is float and isinstance(val, int))
        if isinstance(val, bool) or not ok:
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {val!r}")
        file_cfg[key] = kind(val)
    return file_cfg


def _settings(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """The command's settings ``keys``, and only those: defaults, then the
    config file, then flags."""
    cfg = {key: default for key, (_, default) in _SETTINGS.items() if key in keys}
    if args.config:
        cfg.update(_config_file(args.config, keys, args.command))
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _grid(cfg: dict) -> Grid:
    return Grid(cfg["grid_L"], 1024 if cfg["grid_N"] is None else cfg["grid_N"])


def _outdir(cfg: dict) -> Path:
    """The --out directory; handlers call it once their results are in."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(record: RunRecord, out: Path) -> int:
    record.to_json(out / "record.json")
    for name, verdict in record.verdicts.items():
        print(f"{record.kind}:{name}: {'PASS' if verdict else 'FAIL'}")
    return 0 if record.passed else 1


def _cmd_soliton(cfg: dict, args) -> int:
    params = SolitonParams(cfg["omega"], speed=args.speed, shift=args.shift, phase=args.phase)
    state = eval_soliton(params, _grid(cfg), t=args.time)
    out = _outdir(cfg)
    dump_state(state, out / "soliton.csv")
    print(f"wrote {out / 'soliton.csv'}")
    return 0


def _cmd_evolve(cfg: dict, args) -> int:
    state = perturbed_soliton(cfg["omega"], _grid(cfg), cfg["seed"], args.delta)
    econf = EvolverConfig(dt=cfg["dt"], t_end=cfg["t_end"], snapshot_stride=args.stride)
    # the record describes the run, not where it is written
    settings = {key: val for key, val in cfg.items() if key != "out"} | {"delta": args.delta}
    record, traj = evolution_run("evolve", state, econf, cfg["seed"], settings)
    out = _outdir(cfg)
    if traj is not None:
        s = record.series
        sets = map(conserved.ConservedSet, s["Q"], s["P"], s["H"], s["R"], s["t"])
        conserved.write_series_csv(out / "conserved.csv", sets, cfg["omega"])
        dump_state(traj.final, out / "final_state.csv")
    return _finish(record, out)


def _cmd_conserved(cfg: dict, args) -> int:
    g = _grid(cfg)
    state = eval_soliton(SolitonParams(cfg["omega"]), g)
    values = conserved.evaluate_all(state)
    lam = conserved.lyapunov(state, cfg["omega"])
    print(f"Q = {values.Q:.12g}")
    print(f"P = {values.P:.12g}")
    print(f"H = {values.H:.12g}")
    print(f"R = {values.R:.12g}")
    print(f"Lambda = {lam:.12g}")
    return 0


def _cmd_spectrum(cfg: dict, args) -> int:
    omega = cfg["omega"]
    g = spectral.spectral_grid(omega, cfg["grid_N"])
    rows = []
    for sign, tag in ((1, "plus"), (-1, "minus")):
        analysis = spectral.sector_analysis(omega, g, sign)
        rows += [(omega, tag, idx, val) for idx, val in enumerate(analysis.isolated)]
    out = _outdir(cfg)
    write_table(out / "spectrum.csv", "omega,operator,index,eigenvalue", rows)
    print(f"wrote {out / 'spectrum.csv'}")
    return 0


def _cmd_sigma(cfg: dict, args) -> int:
    omega = cfg["omega"]
    g = spectral.spectral_grid(omega, cfg["grid_N"])
    rows = []
    ok = True
    for sign, tag in ((1, "+"), (-1, "-")):
        num = spectral.sigma_index(omega, g, sign)
        closed = spectral.sigma_closed_form(omega, sign)
        ok = ok and abs(num - closed) < SLOPE_TOL
        rows.append((omega, tag, num, closed))
    out = _outdir(cfg)
    write_table(out / "sigma.csv", "omega,sign,sigma_numeric,sigma_closed_form", rows)
    print(f"wrote {out / 'sigma.csv'}")
    return 0 if ok else 1


def _cmd_sweep(cfg: dict, args) -> int:
    omegas = (
        [float(s) for s in args.omegas.split(",")]
        if args.omegas
        else [s * o for o in (0.1, 0.3, 0.5, 0.7, 0.9) for s in (1, -1)] + [0.0]
    )
    record = omega_sweep(sorted(omegas), grid_n=cfg["grid_N"], checks=tuple(args.checks.split(",")))
    return _finish(record, _outdir(cfg))


def _cmd_stability(cfg: dict, args) -> int:
    record = stability_experiment(
        cfg["omega"], args.delta, cfg["t_end"], cfg["seed"],
        grid=_grid(cfg), dt=cfg["dt"],
    )
    return _finish(record, _outdir(cfg))


def _cmd_h1bound(cfg: dict, args) -> int:
    record = h1_bound_experiment(
        args.charge, cfg["t_end"], cfg["seed"],
        grid=_grid(cfg), dt=cfg["dt"],
    )
    return _finish(record, _outdir(cfg))


def _cmd_scatter(cfg: dict, args) -> int:
    g = _grid(cfg)
    state = eval_soliton(SolitonParams(cfg["omega"]), g)
    lambdas = [float(s) for s in args.lambdas.split(",")]
    samples = [(scattering.riccati_solve(state, lam), state.t) for lam in lambdas]
    out = _outdir(cfg)
    scattering.write_scan_csv(out / "scatter.csv", samples)
    print(f"wrote {out / 'scatter.csv'}")
    return 0


# command -> (handler, help, the settings it reads, its own flags as
# name -> (type, default)); a command accepts no other flag or config key
_COMMANDS = {
    "soliton": (_cmd_soliton, "dump a soliton profile state", ("omega", "grid_L", "grid_N", "out"),
                {"speed": (float, 0.0), "shift": (float, 0.0), "phase": (float, 0.0),
                 "time": (float, 0.0)}),
    "evolve": (_cmd_evolve, "evolve a (perturbed) soliton", tuple(_SETTINGS),
               {"delta": (float, 0.0), "stride": (int, 200)}),
    "conserved": (_cmd_conserved, "conserved values of the soliton state",
                  ("omega", "grid_L", "grid_N"), {}),
    "spectrum": (_cmd_spectrum, "isolated spectrum of the sector operators",
                 ("omega", "grid_N", "out"), {}),
    "sigma": (_cmd_sigma, "constraint slopes vs closed forms", ("omega", "grid_N", "out"), {}),
    "sweep": (_cmd_sweep, "consolidated spectral sweep over omega", ("grid_N", "out"),
              {"omegas": (str, ""),
               "checks": (str, "minus_sector,plus_sector,slope,constrained")}),
    "stability": (_cmd_stability, "orbital stability experiment", tuple(_SETTINGS),
                  {"delta": (float, 1e-3)}),
    "h1bound": (_cmd_h1bound, "H1 boundedness experiment for small data",
                ("grid_L", "grid_N", "dt", "t_end", "seed", "out"), {"charge": (float, 0.1)}),
    "scatter": (_cmd_scatter, "transmission-coefficient scan", ("omega", "grid_L", "grid_N", "out"),
                {"lambdas": (str, "0.5,0.8,1.25")}),
}


def _grid_n_help(command: str) -> str:
    """--grid-N sizes the xi-lattice of ``spectral_grid``'s sinh map for the
    spectral commands, a uniform grid for the others."""
    if command in ("spectrum", "sigma", "sweep"):
        return (f"points of the xi-lattice of the sinh-mapped spectral grid "
                f"(default {spectral.SPECTRAL_N}); omega sets its x-extent")
    return "points of the uniform grid (default 1024)"


def main(argv=None) -> int:
    parser = _Parser(
        prog="mtmlab",
        description="Numerical laboratory for the massive Thirring model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys, flags) in _COMMANDS.items():
        # no abbreviations: sweep's --omegas would otherwise take --omega
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in keys:
            p.add_argument(_flag(key), dest=key, type=_SETTINGS[key][0], default=None,
                           help=_grid_n_help(name) if key == "grid_N" else None)
        p.add_argument("--config", type=str, default=None)
        for key, (kind, default) in flags.items():
            p.add_argument(_flag(key), dest=key, type=kind, default=default)

    args = parser.parse_args(_glue_number_lists(sys.argv[1:] if argv is None else argv))
    handler, _, keys, _ = _COMMANDS[args.command]
    try:
        return handler(_settings(args, keys), args)
    # input the library refuses, or a lambda at which the Riccati ratio
    # blows up: a usage error
    except (ValueError, scattering.PoleEncounterError) as err:
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
