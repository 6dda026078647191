"""Command-line front end. It only parses: each setting flag's dest is a
`PipelineConfig` or `SyntheticConfig` field, and its default is that field's.
Settings and paths are checked by the library, whose ValueError `main` turns
into a usage error.

Exit codes: 0 on success, 1 for usage problems, 2 when --strict aborts on bad
data. Progress and batch reports go to stderr; only `snr` writes to stdout.
TEACHCUT_LOG=ERROR hides the only log output, each rejected line's warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .diagnostics import snr_release_check
from .pipeline import (_SEGMENT_SOURCES, _STRATEGY_HELP, PipelineConfig,
                       diagnose_batch, permute_batch, process_batch)
from .records import DataProcessingError
from .synthetic import SyntheticConfig, write_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _configure_logging() -> None:
    name = os.environ.get("TEACHCUT_LOG", "").strip().upper()
    level = getattr(logging, name, None) if name else None
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


def _config(cls, args: argparse.Namespace):
    """cls built from the parsed flags and defaults, one for each field."""
    return cls(**{field.name: getattr(args, field.name)
                  for field in dataclasses.fields(cls)})


def _defaults(cls) -> dict:
    # set after the flags are added, so that --help shows each field's default
    return {field.name: field.default for field in dataclasses.fields(cls)}


def _add_io_flags(sub: argparse.ArgumentParser, *, out_help: str,
                  out_metavar: str = "PATH") -> None:
    sub.add_argument("--in", dest="input", required=True, metavar="PATH",
                     help="input JSONL file")
    sub.add_argument("--out", dest="output", required=True,
                     metavar=out_metavar, help=out_help)


def _add_batch_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--segments", dest="segments_source",
                     choices=_SEGMENT_SOURCES,
                     help="take segment layout from the record when present, "
                          "or always re-derive it from token surfaces")
    sub.add_argument("--strict", action="store_true",
                     help="abort on the first bad record instead of skipping")
    sub.add_argument("--jobs", type=int,
                     help="worker processes (default: available cores)")


def _report_line(verb: str, report) -> str:
    return (f"{verb}: {report.num_records} records, "
            f"{report.num_accepted} accepted, {report.num_errors} errors")


def _cmd_rewrite(args: argparse.Namespace) -> int:
    # release and permute: one JSONL output, rewritten from the input
    report = args.batch(args.input, args.output, _config(PipelineConfig, args))
    print(_report_line(args.command, report), file=sys.stderr)
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    result = diagnose_batch(args.input, args.output,
                            _config(PipelineConfig, args))
    print(_report_line("diagnose", result.report), file=sys.stderr)
    if not result.paths:
        print("diagnose: no valid records; nothing written", file=sys.stderr)
    else:
        print(f"diagnose: wrote {', '.join(result.paths)}", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    data_path, truth_path = write_dataset(
        args.output, _config(SyntheticConfig, args), args.rollouts)
    print(f"simulate: wrote {args.rollouts} rollouts to {data_path} "
          f"(ground truth: {truth_path})", file=sys.stderr)
    return 0


def _cmd_snr(args: argparse.Namespace) -> int:
    report = snr_release_check(args.m_prefix, args.v_prefix, args.m_suffix,
                               args.v_suffix)
    print(f"improves={report.release_improves} "
          f"snr_release={report.snr_release!r} snr_full={report.snr_full!r}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="teachcut",
                     description="Rollout release-point detection, advantage "
                                 "reweighting, and batch diagnostics.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    release = subs.add_parser("release", formatter_class=fmt,
                              help="detect release points and rewrite advantages")
    _add_io_flags(release, out_help="output JSONL file")
    release.add_argument("--top-k", dest="support_size", metavar="TOP_K",
                         type=int, help="candidate support size per position")
    release.add_argument("--strategy", metavar="NAME",
                         help=f"masking strategy: {_STRATEGY_HELP}")
    _add_batch_flags(release)
    release.set_defaults(handler=_cmd_rewrite, batch=process_batch,
                         **_defaults(PipelineConfig))

    diagnose = subs.add_parser("diagnose", formatter_class=fmt,
                               help="write binned statistics and a release summary")
    _add_io_flags(diagnose, out_metavar="DIR", out_help="directory for "
                  "bins.csv, margin_bins.csv, summary.csv")
    diagnose.add_argument("--top-k", dest="support_size", metavar="TOP_K",
                          type=int, help="candidate support size per position")
    diagnose.add_argument("--bins", dest="num_bins", metavar="BINS", type=int,
                          help="number of normalized-position bins")
    diagnose.add_argument("--gain-threshold", type=float,
                          help="threshold for the strong-gain fraction")
    _add_batch_flags(diagnose)
    diagnose.set_defaults(handler=_cmd_diagnose, **_defaults(PipelineConfig))

    permute = subs.add_parser("permute", formatter_class=fmt,
                              help="the random-release control: reassign "
                                   "the release points of a release output")
    _add_io_flags(permute, out_help="output JSONL file")
    permute.add_argument("--seed", dest="random_seed", metavar="SEED",
                         type=int, help="permutation seed")
    _add_batch_flags(permute)
    permute.set_defaults(handler=_cmd_rewrite, batch=permute_batch,
                         **_defaults(PipelineConfig))

    simulate = subs.add_parser("simulate", formatter_class=fmt,
                               help="generate synthetic rollouts with planted "
                                    "margin structure")
    simulate.add_argument("--out", dest="output", required=True, metavar="PATH",
                          help="output JSONL file (ground_truth.jsonl lands "
                               "beside it)")
    simulate.add_argument("--rollouts", type=int, default=100,
                          help="number of rollouts to generate")
    simulate.add_argument("--n", dest="num_segments", metavar="N", type=int,
                          help="segments per rollout")
    simulate.add_argument("--tau", dest="true_tau", metavar="TAU", type=int,
                          help="planted change point (segments at the pre mean); "
                               "omit for no change")
    simulate.add_argument("--noise", dest="noise_std", metavar="NOISE",
                          type=float, help="margin noise standard deviation")
    simulate.add_argument("--pre", dest="pre_margin_mean", metavar="PRE",
                          type=float, help="pre-change margin mean")
    simulate.add_argument("--post", dest="post_margin_mean", metavar="POST",
                          type=float, help="post-change margin mean")
    simulate.add_argument("--tokens-per-segment", type=int,
                          help="tokens in each segment")
    simulate.add_argument("--top-k", dest="support_size", metavar="TOP_K",
                          type=int, help="candidates per position")
    simulate.add_argument("--seed", type=int, help="noise seed")
    simulate.set_defaults(handler=_cmd_simulate, **_defaults(SyntheticConfig))

    snr = subs.add_parser("snr", formatter_class=fmt,
                          help="check whether releasing a suffix improves the "
                               "directional signal-to-noise ratio")
    snr.add_argument("--m-prefix", type=float, required=True,
                     help="mean gradient contribution of the kept prefix")
    snr.add_argument("--v-prefix", type=float, required=True,
                     help="variance contribution of the kept prefix")
    snr.add_argument("--m-suffix", type=float, required=True,
                     help="mean gradient contribution of the released suffix")
    snr.add_argument("--v-suffix", type=float, required=True,
                     help="variance contribution of the released suffix")
    snr.set_defaults(handler=_cmd_snr)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DataProcessingError as exc:
        print(f"teachcut: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # the library's checks of settings and paths
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
