"""The pinned end-to-end runs of golden_runs.py, in the tier-1 suite."""

from mvcond.cli import build_parser

from golden_runs import RUNS, check


def test_pinned_runs_hold(tmp_path):
    parser = build_parser()
    for run in RUNS:  # every row, so a renamed flag fails here too
        parser.parse_args(run.argv)
    for run in RUNS:  # in order: valid and fid-check read the model gen wrote
        if not run.ci_only:
            assert check(run, tmp_path) == [], run.name
