"""Command-line interface and experiment presets.

Subcommands: theory | simulate | cluster | wine | oracle-check | version.
Every run but ``version``, which takes no flags and writes nothing, is seeded
(``--seed``, default 0) and writes deterministic outputs under ``--out-dir``;
identical invocations produce byte-identical files.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__
from .analysis import (
    PCA_COLUMNS,
    SuccessCurveSpec,
    _check_lambda_grid,
    _derive_seed,
    adjusted_rand_index,
    cluster_once,
    pca_plot_table,
    success_curve,
)
from .datagen import (
    MaskSpec,
    SyntheticSpec,
    apply_mask,
    block_centers,
    gen_uniform_kappa,
    generate,
    wine_prepare,
)
from .dataio import read_points_csv, write_points_csv, write_table_csv
from .model import ObservedDataset
from .oracle import monte_carlo_bound_check
from .penalty import PenaltySpec
from .solver import SolverConfig
from .theory import guarantee_curve

# Experiment presets: each encodes the parameters of one reproducible study.
# fig2's are the `theory` subcommand defaults, so its entry is a name only.
THEORY_PRESETS = ("fig2",)

# Two-cluster uniform-noise success grids; sigma and the lambda sweep were
# calibrated once on the generator family and kept fixed.
_SUCCESS_GRID = dict(
    kind="success-grid",
    K=2,
    P=50,
    m_grid="10,50",
    p0_grid="0.2:1.0:0.1",
    trials=20,
    lambda_grid="2,8,32,128",
    sigma=1.0,
)
# Three Gaussian clusters; dataset2 halves the center separation.
_FIG4 = dict(
    kind="single",
    K=3,
    M=200,
    P=50,
    variance=0.1,
    lam=4.0,
    sigma=2.0,
)
SIMULATE_PRESETS = {
    "fig3a": dict(_SUCCESS_GRID, target_kappa=0.39),
    "fig3c": dict(_SUCCESS_GRID, target_kappa=1.15),
    "fig4-dataset1": dict(_FIG4, scale=6.0),
    "fig4-dataset2": dict(_FIG4, scale=3.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors.

    ``takes_config`` marks a subcommand parser with ``--config``;
    :func:`build_parser` sets ``subcommands``, each subcommand's parser by
    name, on the top-level one.
    """

    takes_config = False

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        # Rounding drops float noise such as 0.30000000000000004.
        values = tuple(round(start + i * step, 12) for i in range(count))
        values = tuple(v for v in values if v <= stop + 1e-12)
        if not values:
            raise ValueError(f"grid {text!r} is empty")
        return values
    return tuple(float(v) for v in text.split(","))


def parse_int_grid(text: str) -> tuple[int, ...]:
    values = parse_grid(text)
    for v in values:
        if not v.is_integer():
            raise ValueError(f"grid value {v!r} is not an integer")
    return tuple(int(v) for v in values)


def _run_facts(argv, seed):
    """What every output records first: the CSV comment header and the head
    of oracle_check.json."""
    return {"fusecluster-version": __version__, "argv": " ".join(argv), "seed": seed}


def _header_lines(argv, seed):
    return tuple(f"{key}: {value}" for key, value in _run_facts(argv, seed).items())


def _reject_unread(flags, scope):
    """A flag the run does not read is a usage error, not a silent no-op;
    ``flags`` maps each flag to its parsed value (None when not given)."""
    for flag, value in flags.items():
        if value is not None:
            raise _UsageError(f"{flag} applies to {scope} only")


def _check_flags(args):
    """Raise the usage errors that the parsed flags alone decide, before
    anything (``--out-dir`` included) is created."""
    if args.seed < 0:  # numpy's seeding takes non-negative integers only
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.command == "cluster":
        _check_lambda_flag("--lambda", args.lam)
        _check_merge_tol_flag(args.merge_tol)
        penalty_flags = {"h1": {"--sigma": args.sigma}, "lp": {"--p": args.p}}
        for kind, flags in penalty_flags.items():
            if kind != args.penalty:
                _reject_unread(flags, f"--penalty {kind}")
    elif args.command == "simulate":
        if SIMULATE_PRESETS[args.preset]["kind"] == "success-grid":
            flags = {"--p0": args.p0, "--lambda": args.lam, "--merge-tol": args.merge_tol}
            _reject_unread(flags, "single-run presets")
            if args.lambda_grid is not None:
                _check_lambda_flag("--lambda-grid", args.lambda_grid)
        else:
            if args.lam is not None:
                _check_lambda_flag("--lambda", args.lam)
            _check_merge_tol_flag(args.merge_tol)
            flags = {
                "--trials": args.trials,
                "--m-grid": args.m_grid,
                "--p0-grid": args.p0_grid,
                "--lambda-grid": args.lambda_grid,
            }
            _reject_unread(flags, "success-grid presets")
    elif args.command == "wine":
        if not (args.wine_csv or os.environ.get("FUSECLUSTER_DATA_DIR")):
            raise _UsageError("provide --wine-csv or set FUSECLUSTER_DATA_DIR")
        _check_lambda_flag("--lambda-grid", args.lambda_grid)
    if args.command in ("cluster", "simulate", "wine"):
        try:  # PenaltySpec's rule on --sigma and --p, for the penalty read
            _penalty(args)
        except ValueError as exc:
            raise _UsageError(exc) from None


def _penalty(args):
    """The PenaltySpec of a ``cluster``, ``simulate`` or ``wine`` run; None
    is ``cluster``'s h1 at the data's default sigma."""
    if args.command == "cluster" and args.penalty == "lp":
        return PenaltySpec.lp(0.5 if args.p is None else args.p)
    if args.command == "simulate" and args.sigma is None:
        return PenaltySpec.h1(SIMULATE_PRESETS[args.preset]["sigma"])
    return None if args.sigma is None else PenaltySpec.h1(args.sigma)


def _check_merge_tol_flag(value):
    """A ``--merge-tol`` that is given and not finite and positive is a
    usage error."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise _UsageError(f"--merge-tol must be finite and positive, got {value}")


def _check_lambda_flag(flag, value):
    """A ``--lambda`` (a number) or ``--lambda-grid`` (grid text) with a
    lambda that is not finite and positive is a usage error."""
    try:
        _check_lambda_grid(parse_grid(value) if isinstance(value, str) else (value,))
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="fusecluster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".")
        # Accepted and ignored: success-grid trials run on every usable
        # CPU (analysis.success_curve), and taskset limits how many.  Kept
        # so existing command lines (and bench/child.py, which parses it)
        # still work.
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--config", help="key=value lines of long flags (lambda=2); flags win")
        p.takes_config = True

    p_theory = sub.add_parser("theory", help="emit guarantee-bound curves")
    common(p_theory)
    p_theory.add_argument("--preset", choices=THEORY_PRESETS)
    p_theory.add_argument("--P", type=int, default=50)
    p_theory.add_argument("--mu0", type=float, default=1.5)
    p_theory.add_argument("--kappa", type=float, default=0.5)
    p_theory.add_argument("--K", type=int, default=2)
    p_theory.add_argument("--M", type=int, default=50)
    p_theory.add_argument("--p0-grid", default="0:1:0.02")

    p_sim = sub.add_parser("simulate", help="run a synthetic-data experiment")
    common(p_sim)
    p_sim.add_argument("--preset", required=True, choices=sorted(SIMULATE_PRESETS))
    p_sim.add_argument("--p0", type=float, default=None)
    p_sim.add_argument("--lambda", dest="lam", type=float, default=None)
    p_sim.add_argument("--lambda-grid", default=None)
    p_sim.add_argument("--p0-grid", default=None)
    p_sim.add_argument("--m-grid", default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--sigma", type=float, default=None)
    p_sim.add_argument("--merge-tol", type=float, default=None)
    p_sim.add_argument("--max-iters", type=int, default=150)
    p_sim.add_argument("--tol", type=float, default=1e-10)

    p_cluster = sub.add_parser("cluster", help="cluster a CSV dataset")
    common(p_cluster)
    p_cluster.add_argument("--input", required=True)
    p_cluster.add_argument(
        "--labeled", nargs="?", const="true", default="false", choices=("true", "false")
    )
    p_cluster.add_argument("--lambda", dest="lam", type=float, required=True)
    p_cluster.add_argument("--penalty", choices=("h1", "lp"), default="h1")
    p_cluster.add_argument("--sigma", type=float, default=None)
    p_cluster.add_argument("--p", type=float, default=None)
    p_cluster.add_argument("--merge-tol", type=float, default=None)
    p_cluster.add_argument("--max-iters", type=int, default=SolverConfig.max_outer_iters)
    p_cluster.add_argument("--tol", type=float, default=SolverConfig.objective_rel_tol)
    p_cluster.add_argument("--out-labels", default=None)
    p_cluster.add_argument("--out-centroids", default=None)
    p_cluster.add_argument("--out-trace", default=None)

    p_wine = sub.add_parser("wine", help="cluster the Wine table across p0")
    common(p_wine)
    p_wine.add_argument("--wine-csv", default=None)
    p_wine.add_argument("--m-per-class", type=int, default=40)
    p_wine.add_argument("--p0-grid", default="1.0,0.9,0.8,0.7,0.6,0.5,0.4,0.3")
    p_wine.add_argument("--lambda-grid", default="3,10,30,100")
    p_wine.add_argument("--sigma", type=float, default=0.6)
    p_wine.add_argument("--max-iters", type=int, default=200)
    p_wine.add_argument("--tol", type=float, default=1e-7)

    p_oracle = sub.add_parser("oracle-check", help="Monte-Carlo bound check")
    common(p_oracle)
    p_oracle.add_argument("--K", type=int, default=2)
    p_oracle.add_argument("--M", type=int, default=3)
    p_oracle.add_argument("--P", type=int, default=20)
    p_oracle.add_argument("--target-kappa", type=float, default=0.5)
    p_oracle.add_argument("--p0", type=float, default=0.8)
    p_oracle.add_argument("--trials", type=int, default=2000)

    sub.add_parser("version", help="print the package version")
    parser.subcommands = sub.choices
    return parser


def _config_tokens(parser, argv):
    """Turn the ``--config`` file named in argv into long-flag tokens.

    Each ``key=value`` line becomes ``--key=value`` (the on/off flag
    ``--labeled`` takes ``true`` or ``false``).  The tokens are parsed just
    after the subcommand, so argparse applies types, choices and required
    options, and a flag on the command line still wins as the later
    occurrence.  Only a subcommand of ``parser`` that takes ``--config``
    reads the file; for any other, argparse rejects the flag unopened.
    """
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None or not command.takes_config:
        return []
    pre = _Parser(prog="fusecluster", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise _UsageError(f"bad config line: {line!r}")
            tokens.append(f"--{key}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv[:1] + _config_tokens(parser, argv) + argv[1:])
        if args.command == "version":
            print(__version__)
            return 0
        _check_flags(args)
    except (_UsageError, OSError) as exc:
        print(f"fusecluster: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help or internal exits
        return 0 if exc.code in (0, None) else 1

    try:
        os.makedirs(args.out_dir, exist_ok=True)
        handler = {
            "theory": _run_theory,
            "simulate": _run_simulate,
            "cluster": _run_cluster,
            "wine": _run_wine,
            "oracle-check": _run_oracle_check,
        }[args.command]
        handler(args, argv)
        return 0
    except BrokenPipeError as exc:
        print(f"fusecluster: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"fusecluster: error: {exc}", file=sys.stderr)
        return 2


def _run_theory(args, argv):
    # The fig2 preset parameters are the subcommand defaults, so flags always
    # carry the effective values; --preset only names the output file.
    grid = parse_grid(args.p0_grid)
    reports = guarantee_curve(
        grid, P=args.P, kappa=args.kappa, mu0=args.mu0, K=args.K, M=args.M
    )
    fields = (
        "gamma0", "delta0", "beta0", "eta0", "eta0_approx", "approx_valid", "success_lower_bound"
    )
    rows = [(p0, *(getattr(rep, f) for f in fields)) for p0, rep in zip(grid, reports)]
    name = f"{args.preset}_guarantees.csv" if args.preset else "theory_guarantees.csv"
    write_table_csv(
        os.path.join(args.out_dir, name),
        ("p0", *fields),
        rows,
        header_lines=_header_lines(argv, args.seed),
    )


def _run_simulate(args, argv):
    preset = SIMULATE_PRESETS[args.preset]
    penalty = _penalty(args)
    header = _header_lines(argv, args.seed)
    if preset["kind"] == "success-grid":
        spec = SuccessCurveSpec(
            p0_grid=parse_grid(args.p0_grid or preset["p0_grid"]),
            M_grid=parse_int_grid(args.m_grid or preset["m_grid"]),
            lambda_grid=parse_grid(args.lambda_grid or preset["lambda_grid"]),
            trials=args.trials if args.trials is not None else preset["trials"],
            base_seed=args.seed,
            penalty=penalty,
            max_outer_iters=args.max_iters,
            objective_rel_tol=args.tol,
        )
        target = preset["target_kappa"]
        k_clusters, p_dim = preset["K"], preset["P"]

        def generator(m, seed):
            return gen_uniform_kappa(k_clusters, m, p_dim, target, seed)

        cells = success_curve(generator, spec)
        write_table_csv(
            os.path.join(args.out_dir, f"{args.preset}_success.csv"),
            ("p0", "M", "success_rate", "kappa", "mu0"),
            [(c.p0, c.M, c.success_rate, c.kappa, c.mu0) for c in cells],
            header_lines=header,
        )
        return

    # Single clustering run with plot data (fig4-style).
    spec = SyntheticSpec(
        K=preset["K"],
        M=preset["M"],
        P=preset["P"],
        centers=block_centers(preset["K"], preset["P"], preset["scale"]),
        variance=preset["variance"],
        seed=_derive_seed(args.seed, 1),
    )
    data, truth = generate(spec)
    p0 = 1.0 if args.p0 is None else args.p0  # fully observed by default
    masked = apply_mask(data, MaskSpec(p0=p0, seed=_derive_seed(args.seed, 2)))
    run = cluster_once(
        masked,
        lam=args.lam if args.lam is not None else preset["lam"],
        penalty=penalty,
        merge_tol=args.merge_tol,
        max_outer_iters=args.max_iters,
        objective_rel_tol=args.tol,
    )
    prefix = os.path.join(args.out_dir, args.preset)
    _write_solve(
        (f"{prefix}_labels.csv", f"{prefix}_centroids.csv", f"{prefix}_trace.csv"),
        run,
        truth,
        header,
    )
    write_table_csv(
        f"{prefix}_pca.csv",
        PCA_COLUMNS,
        pca_plot_table(masked, run.centroids, truth),
        header_lines=header,
    )


def _write_solve(paths, run, truth, header):
    """Write one solve's labels (with ``truth_label`` when the truth is
    known), centroids and objective trace to the three ``paths``."""
    labels_path, centroids_path, trace_path = paths
    columns = {
        "point_id": range(run.partition.point_count),
        "label": run.partition.labels.tolist(),
    }
    if truth is not None:
        columns["truth_label"] = truth.labels.tolist()
    write_table_csv(labels_path, tuple(columns), zip(*columns.values()), header_lines=header)
    write_points_csv(centroids_path, ObservedDataset.full(run.centroids), header_lines=header)
    write_table_csv(
        trace_path,
        ("iteration", "objective"),
        enumerate(run.trace.objectives.tolist()),
        header_lines=header,
    )


def _run_cluster(args, argv):
    data, truth = read_points_csv(args.input, labeled=args.labeled == "true")
    run = cluster_once(
        data, lam=args.lam, penalty=_penalty(args), merge_tol=args.merge_tol,
        max_outer_iters=args.max_iters, objective_rel_tol=args.tol,
    )
    _write_solve(
        (
            args.out_labels or os.path.join(args.out_dir, "labels.csv"),
            args.out_centroids or os.path.join(args.out_dir, "centroids.csv"),
            args.out_trace or os.path.join(args.out_dir, "trace.csv"),
        ),
        run,
        truth,
        _header_lines(argv, args.seed),
    )
    line = f"clusters: {run.partition.cluster_count}"
    if truth is not None:
        line += f"  ari: {adjusted_rand_index(run.partition, truth):.4f}"
    converged = "true" if run.trace.converged else "false"
    print(f"{line}  iterations: {run.trace.iterations}  converged: {converged}")


def _run_wine(args, argv):
    # _check_flags has made sure one of the two is given.
    path = args.wine_csv or os.path.join(os.environ["FUSECLUSTER_DATA_DIR"], "wine.data")
    data, truth = wine_prepare(path, m_per_class=args.m_per_class)
    penalty = _penalty(args)
    p0_grid = parse_grid(args.p0_grid)
    lambda_grid = parse_grid(args.lambda_grid)
    header = _header_lines(argv, args.seed)
    summary = []
    for p_idx, p0 in enumerate(p0_grid):
        masked = apply_mask(data, MaskSpec(p0=p0, seed=_derive_seed(args.seed, p_idx)))
        scored = []
        for lam in lambda_grid:
            run = cluster_once(
                masked,
                lam=lam,
                penalty=penalty,
                max_outer_iters=args.max_iters,
                objective_rel_tol=args.tol,
            )
            scored.append((adjusted_rand_index(run.partition, truth), lam, run))
        # max keeps the first lambda among equal ARIs.
        ari, lam, run = max(scored, key=lambda item: item[0])
        summary.append((p0, lam, ari, run.partition.cluster_count))
        write_table_csv(
            os.path.join(args.out_dir, f"wine_pca_p{p0:g}.csv"),
            PCA_COLUMNS,
            pca_plot_table(masked, run.centroids, truth),
            header_lines=header,
        )
    write_table_csv(
        os.path.join(args.out_dir, "wine_summary.csv"),
        ("p0", "best_lambda", "ari", "clusters"),
        summary,
        header_lines=header,
    )


def _run_oracle_check(args, argv):
    data, truth, _ = gen_uniform_kappa(
        args.K, args.M, args.P, args.target_kappa, seed=_derive_seed(args.seed, 7)
    )
    report = monte_carlo_bound_check(
        data, truth, p0=args.p0, trials=args.trials, seed=args.seed
    )
    payload = _run_facts(argv, args.seed)
    payload.update(dataclasses.asdict(report))
    payload["all_ok"] = report.all_ok
    out = os.path.join(args.out_dir, "oracle_check.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"bounds {'hold' if report.all_ok else 'VIOLATED'}; report: {out}")


if __name__ == "__main__":
    sys.exit(main())
