"""Command-line surface.

Commands: synth, features, train, eval, search, connectivity, crossval,
sweep, baseline.  Every command validates its configuration up front,
echoes the resolved config into each output file together with a content
checksum, and writes a run manifest listing output files and their hashes.
Re-running a command on unchanged inputs with the same seed reproduces
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baseline, connectivity, pool, qpca, search
from .blas import set_blas_threads
from .classifier import LinearSvmModel, cross_validate
from .dataset import (SynthSpec, load_recording, save_recording, session_split_keys,
                      synthesize_dataset)
from .errors import ConfigError, QeegError
from .pipeline import (SWEEP_AXES, FeatureCache, PipelineParams, evaluate_model,
                       evaluate_quadruple, fit_pca, sweep_parameters)
from .qpca import ChannelQuadruple, QpcaModel
from .spectral import BAND_NAMES

__all__ = ["main"]


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pct(value) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _write_json(path: Path, config: dict, data) -> None:
    payload = json.dumps(data, sort_keys=True, allow_nan=False)
    doc = {"config": config, "checksum": _sha256_text(payload), "data": data}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, config: dict, payload: str) -> None:
    head = (f"# config: {json.dumps(config, sort_keys=True, allow_nan=False)}\n"
            f"# checksum: {_sha256_text(payload)}\n")
    path.write_text(head + payload)


def _csv_text(header: str, rows) -> str:
    """A CSV payload: `header`, then one line per row of values, each written
    by `_fmt` with its commas turned into semicolons."""
    lines = [header] + [",".join(_fmt(v).replace(",", ";") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_run_manifest(out_dir: Path, args, config: dict, outputs) -> None:
    manifest = {
        "command": args.command,
        "config": config,
        "invocation": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in sorted(vars(args).items()) if k != "func"},
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in outputs},
    }
    path = out_dir / f"{args.command}_manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _emit(args, config: dict, files: dict, summary: str) -> int:
    """The output step of every command but synth: create --out, write each
    of `files` (name -> JSON data for a .json name, CSV text otherwise) with
    the config echo, write the run manifest, and print `summary` followed by
    the one file written, or by --out when there are several.  Commands call
    this only once their arguments and inputs are validated, so a rejected
    command leaves no directory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (_write_json if name.endswith(".json") else _write_csv)(out / name, config, payload)
    _write_run_manifest(out, args, config, [out / name for name in files])
    print(f"{summary} -> {out / next(iter(files)) if len(files) == 1 else out}")
    return 0


def _load_recordings(data_dir: str) -> list:
    root = Path(data_dir)
    if not root.is_dir():
        raise ConfigError(f"--data directory not found: {root}")
    paths = sorted(p for p in root.glob("*.json")
                   if not p.name.endswith("_manifest.json"))
    if not paths:
        raise ConfigError(f"no recording manifests in {root}")
    # results, and the first error, come back in sorted manifest order
    return pool.ordered_map(_load_recording_task, paths, pool.usable_cores())


def _load_recording_task(_, path: Path):
    """Loader task: only the path is pickled, and the worker calls whatever
    this module's `load_recording` is bound to, wrapped or not."""
    return load_recording(path)


def _load_cache(args, segment_seconds: float) -> FeatureCache:
    """The --cache file when given, else the featurized --data recordings."""
    if args.cache:
        path = Path(args.cache)
        if not path.is_file():
            raise ConfigError(f"--cache file not found: {path}")
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"--cache {path} is not text: {exc}") from None
        if text.startswith("# config: "):
            try:
                cached_config = json.loads(text.split("\n", 1)[0][len("# config: "):])
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--cache {path}: unreadable config header: {exc}") from None
            if not isinstance(cached_config, dict):
                raise ConfigError(f"--cache {path}: config header is not a JSON object")
            cached_ts = cached_config.get("segment_seconds", segment_seconds)
            if isinstance(cached_ts, bool) or not isinstance(cached_ts, (int, float)):
                raise ConfigError(f"--cache {path}: config segment_seconds {cached_ts!r} "
                                  f"is not a number")
            if cached_ts != segment_seconds:
                raise ConfigError(
                    f"cache was built with --segment-seconds {cached_ts}, "
                    f"requested {segment_seconds}")
        return FeatureCache.from_csv_text(text, segment_seconds)
    return FeatureCache.from_recordings(_load_recordings(args.data), segment_seconds)


def _params_from_args(args, sweeps: bool) -> PipelineParams:
    """The trial parameters of the command line: the one p flag given, and
    `PipelineParams`' defaults for the rest.  A command that `sweeps` sweeps
    p by default; one that does not fits one model, at one p, and rejects
    --p-sweep-limit."""
    given = {flag: (field, value) for flag, field, value in (
        ("--pcs", "p", args.pcs), ("--pc-threshold", "p_threshold", args.pc_threshold),
        ("--p-sweep-limit", "p_sweep_limit", args.p_sweep_limit)) if value is not None}
    if len(given) > 1:
        raise ConfigError(f"flags {list(given)} are mutually exclusive")
    if not sweeps and args.p_sweep_limit is not None:
        raise ConfigError(f"{args.command} fits one model and sweeps no p: fix it "
                          f"with --pcs N (or --pc-threshold T), not --p-sweep-limit")
    p_flag = dict(given.values())
    if given or not sweeps:  # a fixed p, a threshold or one model: no default sweep
        p_flag.setdefault("p_sweep_limit", None)
    return PipelineParams(segment_seconds=args.segment_seconds,
                          projection=args.projection, svm_c=args.svm_c, **p_flag)


def _channels_arg(value: str) -> tuple:
    return tuple(c.strip() for c in value.split(",") if c.strip())


def _require_quadruple(args) -> tuple:
    if not getattr(args, "channels", None):
        raise ConfigError("--channels A,B,C,D is required for this command")
    return tuple(ChannelQuadruple(args.channels))


def _config_echo(args, params: PipelineParams | None = None, **extra) -> dict:
    """Computation-relevant configuration embedded in every output file.

    Execution details that cannot change results (--out, --parallelism) stay
    out of the echo so reruns produce byte-identical files; the run manifest
    records the full invocation."""
    config = {"command": args.command}
    for name in ("data", "cache", "band", "segment_seconds", "projection",
                 "svm_c", "seed", "k", "repeats", "mode", "axis"):
        if hasattr(args, name):
            config[name] = getattr(args, name)
    if hasattr(args, "channels") and args.channels:
        config["channels"] = list(args.channels)
    if params is not None:
        config["params"] = params.to_json()
    config.update(extra)
    return config


# -- commands -----------------------------------------------------------


def cmd_synth(args) -> int:
    if args.spec:
        spec_path = Path(args.spec)
        if not spec_path.is_file():
            raise ConfigError(f"--spec file not found: {spec_path}")
        try:
            spec = SynthSpec.from_json(json.loads(spec_path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"--spec {spec_path} is not a SynthSpec: "
                              f"{type(exc).__name__}: {exc}") from None
    else:
        spec = SynthSpec.default()
    recordings = synthesize_dataset(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for rec in recordings:
        manifest_path = save_recording(rec, out)
        outputs += [manifest_path, manifest_path.with_suffix(".csv")]
    _write_run_manifest(out, args, _config_echo(args, spec=spec.to_json()), outputs)
    print(f"synth: wrote {len(recordings)} recordings to {out}")
    return 0


def cmd_features(args) -> int:
    recordings = _load_recordings(args.data)
    cache = FeatureCache.from_recordings(recordings, args.segment_seconds)
    return _emit(args, _config_echo(args), {"features.csv": cache.to_csv_text()},
                 f"features: {len(cache.keys)} recordings x {len(cache.channels)} channels "
                 f"x {len(cache.bands)} bands x {cache.n_segments} segments")


def cmd_train(args) -> int:
    quadruple = _require_quadruple(args)
    params = _params_from_args(args, sweeps=False)
    cache = _load_cache(args, args.segment_seconds)
    train_keys, _ = session_split_keys(cache.keys)
    # train sweeps no p: the trial's one SVM, scored on its own training keys
    outcome = evaluate_quadruple(cache, train_keys, train_keys, quadruple, args.band, params)
    model = replace(outcome.pca, band=args.band, quadruple=ChannelQuadruple(quadruple),
                    segment_seconds=cache.segment_seconds, projection=params.projection)
    svm, train_metrics = outcome.svm, outcome.result
    data = {
        "qpca": model.to_json(),
        "svm": {"weights": svm.weights.tolist(), "bias": svm.bias,
                "regularization_c": svm.regularization_c,
                "alphas": svm.alphas.tolist(), "duality_gap": svm.duality_gap,
                "iterations": svm.iterations},
        "train_metrics": train_metrics.to_json(),
    }
    return _emit(args, _config_echo(args, params), {"model.json": data},
                 f"train: band={args.band} channels={','.join(quadruple)} p={model.p} "
                 f"train_acc={train_metrics.acc:.2f}")


def _load_model(path: Path):
    if not path.is_file():
        raise ConfigError(f"--model file not found: {path}")
    try:
        data = json.loads(path.read_text())["data"]
        model = QpcaModel.from_json(data["qpca"])
        svm_obj = data["svm"]
        svm = LinearSvmModel(weights=np.asarray(svm_obj["weights"], dtype=np.float64),
                             bias=float(svm_obj["bias"]),
                             regularization_c=float(svm_obj["regularization_c"]),
                             alphas=np.asarray(svm_obj["alphas"]),
                             duality_gap=float(svm_obj["duality_gap"]),
                             iterations=int(svm_obj["iterations"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"--model {path} is not a qeeg train model: "
                          f"{type(exc).__name__}: {exc}") from None
    if svm.weights.ndim != 1 or not np.isfinite(svm.weights).all() or not np.isfinite(svm.bias):
        raise ConfigError(f"--model {path} is not a qeeg train model: svm weights must be "
                          f"a 1-D array of finite numbers and its bias a finite number")
    unset = [name for name in ("band", "quadruple", "segment_seconds", "projection")
             if getattr(model, name) is None]
    if unset:
        raise ConfigError(f"--model {path} is not a qeeg train model: "
                          f"qpca has no {', '.join(unset)}")
    ts = model.segment_seconds
    if isinstance(ts, bool) or not isinstance(ts, (int, float)) or not 0 < ts < np.inf:
        raise ConfigError(f"--model {path} is not a qeeg train model: qpca "
                          f"segment_seconds must be a positive finite number, got {ts!r}")
    return model, svm


def cmd_eval(args) -> int:
    model, svm = _load_model(Path(args.model))
    if args.band and args.band != model.band:
        raise ConfigError(f"--band {args.band} does not match model band {model.band}")
    if args.channels and tuple(args.channels) != tuple(model.quadruple):
        raise ConfigError(f"--channels {args.channels} do not match model quadruple "
                          f"{tuple(model.quadruple)}")
    cache = _load_cache(args, model.segment_seconds)
    train_keys, test_keys = session_split_keys(cache.keys)
    keys = {"testing": test_keys, "training": train_keys,
            "all": train_keys + test_keys}[args.split]
    result = evaluate_model(model, svm, cache, keys)
    config = _config_echo(args, model=str(args.model), split=args.split)
    return _emit(args, config, {"metrics.json": result.to_json()},
                 f"eval[{args.split}]: acc={_pct(result.acc)} sen={_pct(result.sen)} "
                 f"spe={_pct(result.spe)}")


def cmd_search(args) -> int:
    params = _params_from_args(args, sweeps=True)
    cache = _load_cache(args, args.segment_seconds)
    train_keys, test_keys = session_split_keys(cache.keys)
    results, summaries = search.run_search(cache, train_keys, test_keys,
                                           args.band, params,
                                           parallelism=args.parallelism)
    files = {
        "search_results.csv": _csv_text(
            "trial_index,ch1,ch2,ch3,ch4,band,p_used,acc,sen,spe,valid,error",
            ([r.trial_index, *r.permutation, r.band, r.p_used, r.acc, r.sen, r.spe,
              int(r.valid), r.error] for r in results)),
        "search_summary.csv": _csv_text(
            "combination,band,mean_acc,mean_sen,mean_spe,"
            "best_permutation,best_acc,n_trials,n_invalid",
            (["|".join(s.combination), s.band, s.mean_acc, s.mean_sen, s.mean_spe,
              "|".join(s.best_permutation or ()), s.best_acc, s.n_trials, s.n_invalid]
             for s in summaries)),
        "search_ranked.json": search.rank(summaries),
    }
    n_invalid = sum(not r.valid for r in results)
    return _emit(args, _config_echo(args, params), files,
                 f"search: {len(results)} trials ({n_invalid} invalid), "
                 f"{len(summaries)} combinations")


def cmd_connectivity(args) -> int:
    cache = _load_cache(args, args.segment_seconds)
    train_keys, test_keys = session_split_keys(cache.keys)
    keys = train_keys + test_keys if args.include_testing else train_keys
    bands = [args.band] if args.band else list(BAND_NAMES)
    config = _config_echo(args, bands=bands, include_testing=args.include_testing)
    report = connectivity.measure_connectivity(cache, keys, args.mode, bands)
    files = {f"tensor_{band}_{label}.json": tensor for band in bands
             for label, tensor in report.tensors_json(band).items()}
    files["distance_report.json"] = report.to_json()
    means = [(band, report.mean_dist(band)) for band in bands]
    dists = ", ".join(f"{b}={'n/a' if m is None else f'{m:.4f}'}" for b, m in means)
    return _emit(args, config, files, f"connectivity[{args.mode}]: mean Dist {dists}")


def cmd_crossval(args) -> int:
    quadruple = _require_quadruple(args)
    params = _params_from_args(args, sweeps=False)
    cache = _load_cache(args, args.segment_seconds)
    keys = list(cache.keys)
    vectors = cache.vectors(keys, quadruple, args.band)
    model, _ = fit_pca(qpca.fit, vectors, params)
    feats = qpca.features(model, vectors, params.projection)
    result = cross_validate(feats, cache.labels_pm1(keys), k=args.k,
                            repeats=args.repeats, seed=args.seed,
                            regularization_c=params.svm_c,
                            stratified=not args.unstratified)
    config = _config_echo(args, params, p_used=model.p, stratified=not args.unstratified)
    return _emit(args, config, {"crossval.json": result.to_json()},
                 f"crossval: k={args.k} repeats={args.repeats} "
                 f"mean_score={result.mean_score:.4f} "
                 f"(acc ~ {100 * (1 - result.mean_score):.2f}%)")


def cmd_sweep(args) -> int:
    if args.cache:
        raise ConfigError("sweep featurizes the recordings at every grid point "
                          "and cannot use --cache")
    quadruple = _require_quadruple(args)
    params = _params_from_args(args, sweeps=True)
    axis = {"segment": "segment_seconds", "projection": "projection",
            "pcs": "p"}[args.axis]
    parse = SWEEP_AXES[axis]
    try:
        values = [parse(v) for v in args.values.split(",")]
    except ValueError:
        raise ConfigError(f"--values {args.values!r}: expected comma-separated "
                          f"{parse.__name__} values for --axis {args.axis}") from None
    recordings = _load_recordings(args.data)
    train_keys, test_keys = session_split_keys([r.key() for r in recordings])
    rows = sweep_parameters(recordings, train_keys, test_keys, quadruple, args.band,
                            axis, values, base=params)
    header = "axis,value,acc,sen,spe,p_used,error"
    text = _csv_text(header, ([r[column] for column in header.split(",")] for r in rows))
    config = _config_echo(args, params, values=[_fmt(v) for v in values])
    return _emit(args, config, {"sweep.csv": text},
                 f"sweep[{args.axis}]: {len(rows)} grid points")


def cmd_baseline(args) -> int:
    quadruple = _require_quadruple(args)
    params = _params_from_args(args, sweeps=True)
    cache = _load_cache(args, args.segment_seconds)
    train_keys, test_keys = session_split_keys(cache.keys)
    result = baseline.compare(cache, train_keys, test_keys, quadruple,
                              args.band, params)
    return _emit(args, _config_echo(args, params), {"comparison.json": result},
                 f"baseline: qpca acc={_pct(result['qpca']['acc'])} vs "
                 f"real-pca acc={_pct(result['real_pca']['acc'])}")


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeeg",
        description="Quaternion-PCA EEG pipeline: features, classification, "
                    "connectivity, channel search.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag that more than one command takes, declared once in its group
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    data = argparse.ArgumentParser(add_help=False, parents=[out])
    data.add_argument("--data", required=True)
    segment = argparse.ArgumentParser(add_help=False)
    segment.add_argument("--segment-seconds", type=float, default=1.0)
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", default=None,
                       help="feature cache CSV, at the same segment length, to reuse "
                            "instead of featurizing")
    channels = argparse.ArgumentParser(add_help=False)
    channels.add_argument("--channels", type=_channels_arg, default=None,
                          help="ordered quadruple A,B,C,D (order-sensitive)")
    # the flags of every command that runs the fit-PCA-then-score-SVMs trial
    trial = argparse.ArgumentParser(add_help=False, parents=[data, segment, cache])
    trial.add_argument("--band", choices=BAND_NAMES, required=True)
    trial.add_argument("--projection", choices=qpca.PROJECTION_METHODS, default="mean")
    trial.add_argument("--pcs", type=int, default=None,
                       help="fixed number of principal components")
    trial.add_argument("--pc-threshold", type=float, default=None,
                       help="eigenvalue-energy threshold for selecting p")
    trial.add_argument("--p-sweep-limit", type=int, default=None,
                       help="report the best accuracy over p = 1..L")
    trial.add_argument("--svm-c", type=float, default=1.0)

    p = sub.add_parser("synth", parents=[out], help="generate a synthetic dataset")
    p.add_argument("--spec", default=None, help="SynthSpec JSON (default spec if omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", parents=[data, segment],
                       help="featurize recordings into a cache CSV")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", parents=[trial, channels],
                       help="fit QPCA + SVM on the training split")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[data, channels, cache], help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("testing", "training", "all"),
                   default="testing")
    p.add_argument("--band", choices=BAND_NAMES, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", parents=[trial], help="exhaustive ordered 4-channel search")
    p.add_argument("--parallelism", type=int, default=pool.usable_cores())
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("connectivity", parents=[data, segment, cache],
                       help="connectivity tensors and distances")
    p.add_argument("--mode", choices=("triple", "quadruple"), required=True)
    p.add_argument("--band", choices=BAND_NAMES, default=None,
                   help="single band (default: all four)")
    p.add_argument("--include-testing", action="store_true",
                   help="measure on all sessions, not only the training split")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("crossval", parents=[trial, channels],
                       help="repeated k-fold cross-validation")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=1000)
    p.add_argument("--unstratified", action="store_true",
                   help="plain shuffled folds instead of stratified ones")
    p.add_argument("--seed", type=int, default=0, help="fold shuffle seed")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("sweep", parents=[trial, channels],
                       help="parameter sweep along one axis")
    p.add_argument("--axis", choices=("segment", "projection", "pcs"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated grid values for the chosen axis")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", parents=[trial, channels],
                       help="quaternion vs real PCA comparison")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one BLAS thread: the matrices are small, and the outputs must not depend
    # on the thread count; a library caller gets its own setting back
    previous = set_blas_threads(1)
    try:
        return args.func(args)
    except QeegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            set_blas_threads(previous)


if __name__ == "__main__":
    sys.exit(main())
