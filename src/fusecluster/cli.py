"""Command-line interface and experiment presets.

Subcommands: theory | simulate | cluster | wine | oracle-check | version.
Every run is seeded (``--seed``, default 0) and writes deterministic outputs
under ``--out-dir``; identical invocations produce byte-identical files.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .analysis import (
    SuccessCurveSpec,
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
from .theory import guarantee_curve

# Experiment presets: each encodes the parameters of one reproducible study.
# fig2's are the `theory` subcommand defaults, so its entry is a name only.
THEORY_PRESETS = ("fig2",)

SIMULATE_PRESETS = {
    # Two-cluster uniform-noise success grids; sigma and the lambda sweep were
    # calibrated once on the generator family and kept fixed.
    "fig3a": dict(
        kind="success-grid",
        target_kappa=0.39,
        K=2,
        P=50,
        m_grid="10,50",
        p0_grid="0.2:1.0:0.1",
        trials=20,
        lambda_grid="2,8,32,128",
        sigma=1.0,
    ),
    "fig3c": dict(
        kind="success-grid",
        target_kappa=1.15,
        K=2,
        P=50,
        m_grid="10,50",
        p0_grid="0.2:1.0:0.1",
        trials=20,
        lambda_grid="2,8,32,128",
        sigma=1.0,
    ),
    # Three Gaussian clusters; dataset2 halves the center separation.
    "fig4-dataset1": dict(
        kind="single",
        K=3,
        M=200,
        P=50,
        variance=0.1,
        scale=6.0,
        lam=4.0,
        sigma=2.0,
    ),
    "fig4-dataset2": dict(
        kind="single",
        K=3,
        M=200,
        P=50,
        variance=0.1,
        scale=3.0,
        lam=4.0,
        sigma=2.0,
    ),
}

WINE_DEFAULTS = dict(
    m_per_class=40,
    p0_grid="1.0,0.9,0.8,0.7,0.6,0.5,0.4,0.3",
    lambda_grid="3,10,30,100",
    sigma=0.6,
)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

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


def _header_lines(argv, seed):
    return (
        f"fusecluster-version: {__version__}",
        f"argv: {' '.join(argv)}",
        f"seed: {seed}",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="fusecluster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".")
        # Accepted and ignored: trials run serially.  Kept so existing
        # command lines (and bench/child.py, which parses it) still work.
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--config", help="key=value lines of long flags (lambda=2); flags win")

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
    p_sim.add_argument("--p0", type=float, default=1.0)
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
    p_cluster.add_argument("--labeled", action="store_true")
    p_cluster.add_argument("--lambda", dest="lam", type=float, required=True)
    p_cluster.add_argument("--penalty", choices=("h1", "lp"), default="h1")
    p_cluster.add_argument("--sigma", type=float, default=None)
    p_cluster.add_argument("--p", type=float, default=0.5)
    p_cluster.add_argument("--tau", type=float, default=1e-9)
    p_cluster.add_argument("--merge-tol", type=float, default=None)
    p_cluster.add_argument("--rho", type=float, default=1e-8)
    p_cluster.add_argument("--max-iters", type=int, default=200)
    p_cluster.add_argument("--tol", type=float, default=1e-8)
    p_cluster.add_argument("--out-labels", default=None)
    p_cluster.add_argument("--out-centroids", default=None)
    p_cluster.add_argument("--out-trace", default=None)

    p_wine = sub.add_parser("wine", help="cluster the Wine table across p0")
    common(p_wine)
    p_wine.add_argument("--wine-csv", default=None)
    p_wine.add_argument("--m-per-class", type=int, default=WINE_DEFAULTS["m_per_class"])
    p_wine.add_argument("--p0-grid", default=WINE_DEFAULTS["p0_grid"])
    p_wine.add_argument("--lambda-grid", default=WINE_DEFAULTS["lambda_grid"])
    p_wine.add_argument("--sigma", type=float, default=WINE_DEFAULTS["sigma"])
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
    p_oracle.add_argument("--epsilon-scale", type=float, default=1.0)

    p_version = sub.add_parser("version", help="print the package version")
    common(p_version)

    return parser


def _config_tokens(argv):
    """Turn the ``--config`` file named in argv into long-flag tokens.

    Each ``key=value`` line becomes ``--key=value``; ``true`` becomes a bare
    ``--key`` and ``false`` adds nothing.  The tokens are parsed just after
    the subcommand, so argparse applies types, choices and required options,
    and a flag on the command line still wins as the later occurrence.
    """
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
            if value != "false":
                tokens.append(f"--{key}" if value == "true" else f"--{key}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv[:1] + _config_tokens(argv) + argv[1:])
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
            "version": _run_version,
        }[args.command]
        handler(args, argv)
        return 0
    except (_UsageError, BrokenPipeError) as exc:
        print(f"fusecluster: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"fusecluster: error: {exc}", file=sys.stderr)
        return 2


def _run_version(args, argv):
    print(__version__)


def _run_theory(args, argv):
    # The fig2 preset parameters are the subcommand defaults, so flags always
    # carry the effective values; --preset only names the output file.
    grid = parse_grid(args.p0_grid)
    reports = guarantee_curve(
        grid, P=args.P, kappa=args.kappa, mu0=args.mu0, K=args.K, M=args.M
    )
    rows = [
        (
            p0,
            rep.gamma0,
            rep.delta0,
            rep.beta0,
            rep.eta0,
            rep.eta0_approx,
            rep.approx_valid,
            rep.success_lower_bound,
        )
        for p0, rep in zip(grid, reports)
    ]
    name = f"{args.preset}_guarantees.csv" if args.preset else "theory_guarantees.csv"
    write_table_csv(
        os.path.join(args.out_dir, name),
        (
            "p0",
            "gamma0",
            "delta0",
            "beta0",
            "eta0",
            "eta0_approx",
            "approx_valid",
            "success_lower_bound",
        ),
        rows,
        header_lines=_header_lines(argv, args.seed),
    )


def _run_simulate(args, argv):
    preset = SIMULATE_PRESETS[args.preset]
    if preset["kind"] == "success-grid":
        spec = SuccessCurveSpec(
            p0_grid=parse_grid(args.p0_grid or preset["p0_grid"]),
            M_grid=parse_int_grid(args.m_grid or preset["m_grid"]),
            lambda_grid=parse_grid(args.lambda_grid or preset["lambda_grid"]),
            trials=args.trials if args.trials is not None else preset["trials"],
            base_seed=args.seed,
            sigma=args.sigma if args.sigma is not None else preset.get("sigma"),
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
            header_lines=_header_lines(argv, args.seed),
        )
        return

    # Single clustering run with plot data (fig4-style).
    spec = SyntheticSpec(
        K=preset["K"],
        M=preset["M"],
        P=preset["P"],
        centers=block_centers(preset["K"], preset["P"], preset["scale"]),
        noise=("gaussian", preset["variance"]),
        seed=_derive_seed(args.seed, 1),
    )
    data, truth = generate(spec)
    masked = (
        data
        if args.p0 >= 1.0
        else apply_mask(data, MaskSpec(p0=args.p0, seed=_derive_seed(args.seed, 2)))
    )
    lam = args.lam if args.lam is not None else preset["lam"]
    run = cluster_once(
        masked,
        lam=lam,
        sigma=args.sigma if args.sigma is not None else preset.get("sigma"),
        merge_tol=args.merge_tol,
        max_outer_iters=args.max_iters,
        objective_rel_tol=args.tol,
    )
    header = _header_lines(argv, args.seed)
    prefix = os.path.join(args.out_dir, args.preset)
    write_table_csv(
        f"{prefix}_labels.csv",
        ("point_id", "label", "truth_label"),
        [(i, int(run.partition.labels[i]), int(truth.labels[i])) for i in range(data.point_count)],
        header_lines=header,
    )
    write_points_csv(f"{prefix}_centroids.csv", ObservedDataset.full(run.centroids), header_lines=header)
    write_table_csv(
        f"{prefix}_trace.csv",
        ("iteration", "objective"),
        list(enumerate(run.trace.objectives.tolist())),
        header_lines=header,
    )
    write_table_csv(
        f"{prefix}_pca.csv",
        ("point_id", "truth_label", "pc1", "pc2", "centroid_pc1", "centroid_pc2"),
        pca_plot_table(masked, run.centroids, truth),
        header_lines=header,
    )


def _run_cluster(args, argv):
    data, truth = read_points_csv(args.input, labeled=args.labeled)
    run = cluster_once(
        data,
        lam=args.lam,
        penalty_kind=args.penalty,
        sigma=args.sigma,
        lp_p=args.p,
        tau=args.tau,
        merge_tol=args.merge_tol,
        max_outer_iters=args.max_iters,
        objective_rel_tol=args.tol,
        rho=args.rho,
    )
    header = _header_lines(argv, args.seed)
    out_labels = args.out_labels or os.path.join(args.out_dir, "labels.csv")
    out_centroids = args.out_centroids or os.path.join(args.out_dir, "centroids.csv")
    out_trace = args.out_trace or os.path.join(args.out_dir, "trace.csv")
    label_rows = [
        [i, int(run.partition.labels[i])] for i in range(data.point_count)
    ]
    columns = ["point_id", "label"]
    if truth is not None:
        columns.append("truth_label")
        for i, row in enumerate(label_rows):
            row.append(int(truth.labels[i]))
    write_table_csv(out_labels, columns, label_rows, header_lines=header)
    write_points_csv(
        out_centroids, ObservedDataset.full(run.centroids), header_lines=header
    )
    write_table_csv(
        out_trace,
        ("iteration", "objective"),
        list(enumerate(run.trace.objectives.tolist())),
        header_lines=header,
    )
    if truth is not None:
        ari = adjusted_rand_index(run.partition, truth)
        print(f"clusters: {run.partition.cluster_count}  ari: {ari:.4f}")
    else:
        print(f"clusters: {run.partition.cluster_count}")


def _resolve_wine_path(args):
    if args.wine_csv:
        return args.wine_csv
    data_dir = os.environ.get("FUSECLUSTER_DATA_DIR")
    if data_dir:
        return os.path.join(data_dir, "wine.data")
    raise _UsageError("provide --wine-csv or set FUSECLUSTER_DATA_DIR")


def _run_wine(args, argv):
    data, truth = wine_prepare(_resolve_wine_path(args), m_per_class=args.m_per_class)
    p0_grid = parse_grid(args.p0_grid)
    lambda_grid = parse_grid(args.lambda_grid)
    header = _header_lines(argv, args.seed)
    summary = []
    for p_idx, p0 in enumerate(p0_grid):
        masked = (
            data
            if p0 >= 1.0
            else apply_mask(data, MaskSpec(p0=p0, seed=_derive_seed(args.seed, p_idx)))
        )
        best = None
        for lam in lambda_grid:
            run = cluster_once(
                masked,
                lam=lam,
                sigma=args.sigma,
                max_outer_iters=args.max_iters,
                objective_rel_tol=args.tol,
            )
            ari = adjusted_rand_index(run.partition, truth)
            if best is None or ari > best[0]:
                best = (ari, lam, run)
        ari, lam, run = best
        summary.append((p0, lam, ari, run.partition.cluster_count))
        write_table_csv(
            os.path.join(args.out_dir, f"wine_pca_p{p0:g}.csv"),
            ("point_id", "truth_label", "pc1", "pc2", "centroid_pc1", "centroid_pc2"),
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
    data, truth, geometry = gen_uniform_kappa(
        args.K, args.M, args.P, args.target_kappa, seed=_derive_seed(args.seed, 7)
    )
    report = monte_carlo_bound_check(
        data,
        truth,
        p0=args.p0,
        trials=args.trials,
        seed=args.seed,
        epsilon=geometry.epsilon * args.epsilon_scale,
    )
    payload = {
        "fusecluster-version": __version__,
        "argv": " ".join(argv),
        "seed": args.seed,
    }
    payload.update(dataclasses.asdict(report))
    payload["all_ok"] = report.all_ok
    out = os.path.join(args.out_dir, "oracle_check.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"bounds {'hold' if report.all_ok else 'VIOLATED'}; report: {out}")


if __name__ == "__main__":
    sys.exit(main())
