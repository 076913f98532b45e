"""Hash the outputs and run records of a seeded prefix of perfbench's jobs.

Replays the first rounds of each named workload in-process, through
perfbench's own ``make_jobs`` and ``run_job`` (after the same warm-up jobs
as a benchmark run, on a freshly imported ``qtmat``), and prints two
sha256 hashes: one of the serialized outputs and one of the ``with_info``
records as sorted-key JSON, first for each workload, then over all of them.
Two checkouts that print the same output hash compute the same matrices bit
for bit, so the per-workload lines show which workloads a change moved.
Run from a checkout's root:

    python3 tools/replay_outputs.py --seed 1 \\
        --rounds semi-series=4 contour-resolvent=4 finite-series=2

    python3 tools/replay_outputs.py --seed 1 --passes 3 \\
        --rounds contour-resolvent=4

``--root`` replays another checkout (its ``perfbench`` and ``src``) with
this script, and ``--records FILE`` writes one JSON line per job, to see
which record keys differ where the record hashes do.  ``--passes N``
replays every workload N times, each time on a freshly imported
``qtmat``, prints for each workload the sum over its jobs of each job's
minimum seconds over the passes (the "in-process, min of N" time), and
fails if any pass's outputs differ from the first pass's.  ``--digits`` also
scores every output against perfbench's oracle (``perfbench/checks.py``,
imported, not changed) and prints, for each job kind, the jobs, how
many raised, the minimum digits and the mean stored entries, as the
benchmark's ``digits_min`` and ``result_entries`` read them.  Nothing
under ``perfbench/`` is changed.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

# One BLAS thread, as perfbench/run.py sets before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _rounds(text):
    workload, _, count = text.partition("=")
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD=ROUNDS, got {text!r}")
    return workload, int(count)


def _plain(value):
    """JSON stand-in for NumPy scalars and arrays in a record."""
    return value.tolist() if hasattr(value, "tolist") else repr(value)


def _score(job, output, record, qt):
    """(digits, stored entries) of a job's output, None if the job raised.

    Scored as ``perfbench/harness.py`` scores a run: the max-abs error
    against the oracle of ``perfbench/checks.py``.
    """
    if record is None:
        return None
    from checks import digits, max_error
    with warnings.catch_warnings():
        # As in the harness: scipy.linalg.logm warns about its own accuracy
        # estimate.
        warnings.simplefilter("ignore", RuntimeWarning)
        error, _, parsed = max_error(job, output, qt.sine_transform_oracle)
    return digits(error), parsed.entries


def replay(root, seed, rounds):
    """Yield (workload, job, output, record, qt, seconds) for every job.

    ``qt`` is the ``qtmat`` package the job ran on, and ``seconds`` the
    wall time of its ``run_job`` call.  A job that raises yields its error
    as ``"Type: message"`` in place of the output, with the record None.
    """
    sys.path.insert(0, str(Path(root).resolve() / "perfbench"))
    from harness import import_qtmat, warm_up_jobs
    from workloads import make_jobs, run_job

    for workload, count in rounds:
        qt = import_qtmat()
        jobs = make_jobs(qt, workload, seed, count)
        for job in warm_up_jobs(qt, workload):
            run_job(qt, job)
        for job in jobs:
            start = time.perf_counter()
            try:
                output, record = run_job(qt, job)
            except Exception as exc:  # a failed job is part of the outcome
                output, record = f"{type(exc).__name__}: {exc}", None
            yield workload, job, output, record, qt, \
                time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=_rounds, nargs="+", required=True,
                        metavar="WORKLOAD=ROUNDS")
    parser.add_argument("--root", default=Path(__file__).resolve().parents[1],
                        help="checkout to replay (default: this one)")
    parser.add_argument("--records", help="write one JSON line per job here")
    parser.add_argument("--passes", type=int, default=1, metavar="N",
                        help="replay N times and print each workload's sum "
                             "of per-job minimum seconds")
    parser.add_argument("--digits", action="store_true",
                        help="print the minimum digits and the mean stored "
                             "entries of each job kind")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    # One (jobs, outputs, records) triple per workload, and one for all.
    hashes = {None: [0, hashlib.sha256(), hashlib.sha256()]}
    lines = []
    scores = {}
    first_outputs, fastest = {}, {}
    for _ in range(args.passes):
        for workload, job, output, record, qt, seconds in replay(
                args.root, args.seed, args.rounds):
            key = f"{workload} {job.job_id}\n"
            fastest[key] = min(seconds, fastest.get(key, seconds))
            digest = hashlib.sha256(output.encode()).digest()
            if key in first_outputs:
                if digest != first_outputs[key]:
                    print(f"outputs differ between passes: {key.strip()}",
                          file=sys.stderr)
                    return 1
                continue
            first_outputs[key] = digest
            line = json.dumps({"workload": workload, "job": job.job_id,
                               "record": record}, sort_keys=True,
                              default=_plain)
            if args.digits:
                scores.setdefault((workload, job.kind), []).append(
                    _score(job, output, record, qt))
            lines.append(line)
            for name in (workload, None):
                entry = hashes.setdefault(
                    name, [0, hashlib.sha256(), hashlib.sha256()])
                entry[0] += 1
                entry[1].update((key + output + "\n").encode())
                entry[2].update((line + "\n").encode())
    if args.records:
        Path(args.records).write_text("".join(x + "\n" for x in lines))
    total = hashes.pop(None)
    for workload, (jobs, outputs, records) in hashes.items():
        print(f"{workload} jobs {jobs}")
        print(f"{workload} outputs sha256 {outputs.hexdigest()}")
        print(f"{workload} records sha256 {records.hexdigest()}")
        if args.passes > 1:
            seconds = sum(t for key, t in fastest.items()
                          if key.split()[0] == workload)
            print(f"{workload} min_of_{args.passes}_s {seconds:.3f}")
    jobs, outputs, records = total
    print(f"jobs {jobs}")
    print(f"outputs sha256 {outputs.hexdigest()}")
    print(f"records sha256 {records.hexdigest()}")
    for (workload, kind), done in scores.items():
        scored = [x for x in done if x is not None]
        line = f"{workload} {kind} jobs {len(done)} raised " \
               f"{len(done) - len(scored)}"
        if scored:
            mean = sum(e for _, e in scored) / len(scored)
            line += (f" digits_min {min(d for d, _ in scored):.4f}"
                     f" entries_mean {mean:.1f}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
