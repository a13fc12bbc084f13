"""Command-line interface.

Subcommands: soliton, evolve, conserved, spectrum, sigma, sweep, stability,
h1bound, scatter.  Flags override values from an optional JSON config file;
outputs land in the --out directory as record.json plus the CSV tables.
Exit code is 0 iff every verdict of the run passes, 1 if one fails, and 2
(with a one-line message) for input the library refuses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import conserved, scattering, spectral
from .evolve import EvolverConfig
from .experiments import (
    RunRecord,
    evolution_run,
    h1_bound_experiment,
    omega_sweep,
    perturbed_soliton,
    stability_experiment,
)
from .grid import Grid, dump_state
from .soliton import SolitonParams, eval_soliton

# flag name -> (type, default); a config file may set the same keys with
# values of that type
_SETTINGS = {
    "omega": (float, 0.5),
    "grid_L": (float, 40.0),
    "grid_N": (int, None),  # evolution grids fall back to 1024, spectral ones to spectral_grid
    "dt": (float, 1e-3),
    "t_end": (float, 10.0),
    "seed": (int, 0),
    "out": (str, "."),
}


def _common_flags(parser: argparse.ArgumentParser) -> None:
    for key, (kind, _) in _SETTINGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=None)
    parser.add_argument("--config", type=str, default=None)


def _config_file(path: str) -> dict:
    """Settings from a JSON config file, refused with a ``ValueError`` that
    names the path or the key when the file is unreadable or not a JSON
    object, a key is unknown, or a value does not have its flag's type (an
    integer passes for a float)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            file_cfg = json.load(f)
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config file {path} is not JSON: {err}") from err
    if not isinstance(file_cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(file_cfg) - set(_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, val in file_cfg.items():
        kind = _SETTINGS[key][0]
        ok = isinstance(val, kind) or (kind is float and isinstance(val, int))
        if isinstance(val, bool) or not ok:
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {val!r}")
        file_cfg[key] = kind(val)
    return file_cfg


def _settings(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, default) in _SETTINGS.items()}
    if args.config:
        cfg.update(_config_file(args.config))
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _grid(cfg: dict) -> Grid:
    return Grid(cfg["grid_L"], 1024 if cfg["grid_N"] is None else cfg["grid_N"])


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(record: RunRecord, out: Path) -> int:
    record.to_json(out / "record.json")
    for name, verdict in record.verdicts.items():
        print(f"{record.kind}:{name}: {'PASS' if verdict else 'FAIL'}")
    return 0 if record.passed else 1


def _cmd_soliton(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    params = SolitonParams(cfg["omega"], speed=args.speed, shift=args.shift, phase=args.phase)
    state = eval_soliton(params, _grid(cfg), t=args.time)
    dump_state(state, out / "soliton.csv")
    print(f"wrote {out / 'soliton.csv'}")
    return 0


def _cmd_evolve(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    state = perturbed_soliton(cfg["omega"], _grid(cfg), cfg["seed"], args.delta)
    econf = EvolverConfig(dt=cfg["dt"], t_end=cfg["t_end"], snapshot_stride=args.stride)
    record, traj = evolution_run("evolve", state, econf, cfg["seed"], cfg | {"delta": args.delta})
    if traj is not None:
        s = record.series
        sets = map(conserved.ConservedSet, s["Q"], s["P"], s["H"], s["R"], s["t"])
        conserved.write_series_csv(out / "conserved.csv", sets, cfg["omega"])
        dump_state(traj.final, out / "final_state.csv")
    return _finish(record, out)


def _cmd_conserved(args) -> int:
    cfg = _settings(args)
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


def _cmd_spectrum(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    omega = cfg["omega"]
    g = spectral.spectral_grid(omega, cfg["grid_N"])
    rows = []
    for sign, tag in ((1, "plus"), (-1, "minus")):
        analysis = spectral.sector_analysis(omega, g, sign)
        vals = [float(v) for v in analysis.isolated[0]]
        rows.append((omega, tag, vals, analysis.operator.cutoff))
    spectral.write_spectral_csv(out / "spectrum.csv", rows)
    print(f"wrote {out / 'spectrum.csv'}")
    return 0


def _cmd_sigma(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    omega = cfg["omega"]
    g = spectral.spectral_grid(omega, cfg["grid_N"])
    rows = []
    ok = True
    for sign in (1, -1):
        num = spectral.sigma_index(omega, g, sign)
        closed = spectral.sigma_closed_form(omega, sign)
        ok = ok and abs(num - closed) < 1e-3
        rows.append((omega, sign, num, closed))
    spectral.write_sigma_csv(out / "sigma.csv", rows)
    print(f"wrote {out / 'sigma.csv'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    omegas = (
        [float(s) for s in args.omegas.split(",")]
        if args.omegas
        else [s * o for o in (0.1, 0.3, 0.5, 0.7, 0.9) for s in (1, -1)] + [0.0]
    )
    record = omega_sweep(sorted(omegas), grid_n=cfg["grid_N"], checks=tuple(args.checks.split(",")))
    return _finish(record, out)


def _cmd_stability(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    record = stability_experiment(
        cfg["omega"], args.delta, cfg["t_end"], cfg["seed"],
        grid=_grid(cfg), dt=cfg["dt"],
    )
    return _finish(record, out)


def _cmd_h1bound(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    record = h1_bound_experiment(
        args.charge, cfg["t_end"], cfg["seed"],
        grid=_grid(cfg), dt=cfg["dt"],
    )
    return _finish(record, out)


def _cmd_scatter(args) -> int:
    cfg = _settings(args)
    out = _outdir(cfg)
    g = _grid(cfg)
    state = eval_soliton(SolitonParams(cfg["omega"]), g)
    lambdas = [float(s) for s in args.lambdas.split(",")]
    samples = [(scattering.riccati_solve(state, lam), state.t) for lam in lambdas]
    scattering.write_scan_csv(out / "scatter.csv", samples)
    print(f"wrote {out / 'scatter.csv'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mtmlab",
        description="Numerical laboratory for the massive Thirring model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soliton", help="dump a soliton profile state")
    _common_flags(p)
    p.add_argument("--speed", type=float, default=0.0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--time", type=float, default=0.0)
    p.set_defaults(func=_cmd_soliton)

    p = sub.add_parser("evolve", help="evolve a (perturbed) soliton")
    _common_flags(p)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--stride", type=int, default=200)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("conserved", help="conserved values of the soliton state")
    _common_flags(p)
    p.set_defaults(func=_cmd_conserved)

    p = sub.add_parser("spectrum", help="isolated spectrum of the sector operators")
    _common_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sigma", help="constraint slopes vs closed forms")
    _common_flags(p)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("sweep", help="consolidated spectral sweep over omega")
    _common_flags(p)
    p.add_argument("--omegas", type=str, default="")
    p.add_argument("--checks", type=str, default="minus_sector,plus_sector,slope,constrained")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("stability", help="orbital stability experiment")
    _common_flags(p)
    p.add_argument("--delta", type=float, default=1e-3)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("h1bound", help="H1 boundedness experiment for small data")
    _common_flags(p)
    p.add_argument("--charge", type=float, default=0.1)
    p.set_defaults(func=_cmd_h1bound)

    p = sub.add_parser("scatter", help="transmission-coefficient scan")
    _common_flags(p)
    p.add_argument("--lambdas", type=str, default="0.5,0.8,1.25")
    p.set_defaults(func=_cmd_scatter)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, spectral.KernelDeflationError) as err:
        # input the library refuses, a grid too coarse to resolve a sector's
        # kernel included: a usage error
        parser.exit(2, f"mtmlab: error: {err}\n")


if __name__ == "__main__":
    sys.exit(main())
