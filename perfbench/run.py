"""mfblocks benchmark: run a workload of CLI operations and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-verify --seed 0 \\
        --seconds 30 --trace 0

Each operation runs in a fresh Python child, one at a time, as a user
would run the CLI.  A round is one pass over the workload's operation
list; a run repeats whole rounds until the next one would end after
``--seconds`` (at least one round) and reports medians over rounds.
Every output is checked (see checks.py).

``--trace 0`` reports the end-to-end metrics: wall_s, setup_s,
compute_s and peak_rss_mb.  ``--trace 1`` runs one round with
layertrace.py's spans installed in every child and reports the
per-layer metrics.  The last line of standard output is one JSON
object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0     # children still running then are killed
SETUP_PROBES = 2        # extra set-up-only children per configuration
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s",
             "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Workloads: seed -> list of operations


def _faithful(r: int) -> list:
    return [j for j in range(1, r) if math.gcd(j, r) == 1]


def _cli_op(cmd: str, ell: int, p: int, r: int, theta: int,
            *extra: str) -> dict:
    argv = [cmd, "--ell", str(ell), "--p", str(p), "--r", str(r),
            "--theta", str(theta), *extra]
    return {"name": f"{cmd}({ell},{p},{r}) theta={theta}",
            "config": [ell, p, r], "argv": argv,
            "judge": [cmd, ell, p, r, theta]}


def desk_verify(rng: random.Random, seed: int) -> list:
    # verify's own sampling seed stays 0: other samples change the
    # product gate's lanes by up to a fifth, which would swamp a change
    ops = []
    for ell, p, r in ((2, 7, 3), (3, 5, 2), (2, 11, 5)):
        ops.append(_cli_op("verify", ell, p, r, rng.choice(_faithful(r)),
                           "--suite", "quick", "--seed", "0"))
    return ops


def label_invariants(rng: random.Random, seed: int) -> list:
    ops = [
        _cli_op("quiver", 2, 7, 3, rng.choice(_faithful(3)), "--out", "json"),
        _cli_op("quiver", 3, 5, 2, 1, "--out", "json"),
        _cli_op("recover", 2, 7, 3, rng.choice(_faithful(3))),
        _cli_op("recover", 2, 11, 5, 2),
        _cli_op("recover", 2, 19, 9, rng.choice(_faithful(9))),
    ]
    for flag, value in (("--n", 3), ("--r", 7)):
        ops.append({"name": f"mf --ell 2 {flag} {value}", "config": None,
                    "argv": ["mf", "--ell", "2", flag, str(value)],
                    "judge": ["mf", 2, flag[2:], value]})
    return ops


def exhaustive_embed(rng: random.Random, seed: int) -> list:
    names = ["embed_multiplicative"]
    return [{"name": "run_checks(3,5,2) full embed_multiplicative",
             "config": [3, 5, 2],
             "checks": {"theta": 1, "suite": "full", "seed": seed,
                        "names": names},
             "judge": ["checks", 3, 5, 2, 1, names]}]


WORKLOADS = {
    "desk-verify": desk_verify,
    "label-invariants": label_invariants,
    "exhaustive-embed": exhaustive_embed,
}


def make_ops(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, seed)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Children


def judge(op: dict, res: dict) -> tuple:
    """(failed, problems, skips) for one op's result."""
    if "error" in res or res["exit"] != 0:
        return True, [res.get("error") or f"child exit {res['exit']}"], 0
    kind, *args = op["judge"]
    out, code = res["stdout"], res["code"]
    if kind in ("verify", "checks"):
        names = args[4] if kind == "checks" else checks.CHECK_NAMES
        problems, failures, skips = checks.check_verify(out, *args[:4],
                                                        names=names)
        if code != 0 and not failures:
            failures = [f"exit status {code}"]
        return bool(failures), problems + failures, skips
    if code != 0:
        return True, [f"exit status {code}"], 0
    if kind == "quiver":
        return False, checks.check_quiver(out, *args), 0
    if kind == "recover":
        return False, checks.check_recover(out, *args), 0
    ell, mode, value = args
    return False, checks.check_mf(out, ell, **{mode: value}), 0


class Runner:
    """The children of one run: their environment, a deadline that keeps
    the run within RUN_LIMIT_S, and the operations attempted, failed
    and wrongly answered."""

    def __init__(self):
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = threads
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = self.failed = self.skips = 0
        self.wrong: list = []

    def spawn(self, op: dict, trace: bool = False) -> dict:
        """Run op in a child: its result, wall time and peak RSS."""
        spec = {key: op[key] for key in ("config", "argv", "checks")
                if key in op}
        spec.update(root=str(ROOT), trace=trace)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=self.env,
            cwd=ROOT)
        chunks, timed_out = [], False
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = self.deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    timed_out = True
                    break
                if sel.select(left):
                    data = os.read(proc.stdout.fileno(), 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        text = b"".join(chunks).decode(errors="replace")
        res = {"wall_s": time.perf_counter() - t0,
               "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}
        try:
            res.update(json.loads(text.rstrip().rsplit("\n", 1)[-1]))
        except (json.JSONDecodeError, IndexError):
            res["error"] = ("run time limit reached: " if timed_out else "") \
                + text[-2000:]
        return res

    def round(self, ops: list, trace: bool) -> dict:
        """One pass over ops, each output judged."""
        t0 = time.perf_counter()
        results = []
        for op in ops:
            res = self.spawn(op, trace)
            self._record(op, res)
            results.append(res)
        return {"wall_s": time.perf_counter() - t0, "results": results}

    def _record(self, op: dict, res: dict) -> None:
        failed, problems, skips = judge(op, res)
        self.attempted += 1
        self.failed += failed
        self.skips += skips
        if problems and not failed:
            self.wrong.append(f"{op['name']}: {problems}")
        status = "FAILED" if failed else ("WRONG" if problems else "ok")
        print(f"  {op['name']:<46} {res['wall_s']:7.2f} s"
              f"  setup {res.get('setup_s', 0):5.2f}"
              f"  rss {res['rss_mb']:6.0f} MB  {status}"
              + (f"  {problems}" if problems else ""), file=sys.stderr)


# ---------------------------------------------------------------------------
# End-to-end metrics of untraced rounds


def _config_key(op: dict):
    return tuple(op["config"]) if op["config"] else None


def setup_seconds(ops: list, rounds: list, runner: Runner) -> float:
    """Summed set-up of one round, each op's taken as the median of its
    configuration's set-ups in this run, probes included."""
    samples: dict = {}
    for rnd in rounds:
        for op, res in zip(ops, rnd["results"]):
            if "setup_s" in res:
                samples.setdefault(_config_key(op), []).append(res["setup_s"])
    for key in {_config_key(op) for op in ops}:
        probe = {"config": list(key) if key else None}
        for _ in range(SETUP_PROBES):
            res = runner.spawn(probe)
            if "setup_s" in res:
                samples.setdefault(key, []).append(res["setup_s"])
    return sum(statistics.median(samples[_config_key(op)]) for op in ops
               if _config_key(op) in samples)


def end_to_end(ops: list, seconds: float, runner: Runner) -> dict:
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(runner.round(ops, False))
        typical = statistics.median(r["wall_s"] for r in rounds)
        if time.perf_counter() - t0 + typical > seconds:
            break
    med = statistics.median
    values = {
        "wall_s": med(r["wall_s"] for r in rounds),
        "setup_s": setup_seconds(ops, rounds, runner),
        "compute_s": med(sum(x.get("compute_s", 0.0) for x in r["results"])
                         for r in rounds),
        "peak_rss_mb": med(max(x["rss_mb"] for x in r["results"])
                           for r in rounds),
    }
    print(f"  {len(rounds)} round(s)", file=sys.stderr)
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced round

T, C, X = "seconds", "calls", "extra"
# name -> (unit, better, source, key); sources are summed over children
LAYER_METRICS = {
    "field.field_make_s": ("s", "lower", T, "field.field_make"),
    "field.vmul_calls": ("count", "lower", C, "field.vmul"),
    "field.vmul_elems": ("count", "lower", X, "field.vmul_elems"),
    "linalg.gf_matmul_calls": ("count", "lower", C, "linalg.gf_matmul"),
    "linalg.gf_matmul_s": ("s", "lower", T, "linalg.gf_matmul"),
    "linalg.gf_matmul_gflop": ("gflop_computed", "lower", X,
                               "linalg.gf_matmul_gflop"),
    "linalg.gf_matmul_gflops": ("gflop_computed/s", "higher", "rate",
                                ("linalg.gf_matmul_gflop",
                                 "linalg.gf_matmul")),
    "linalg.gf_rank_calls": ("count", "lower", C, "linalg.gf_rank"),
    "linalg.gf_rank_s": ("s", "lower", T, "linalg.gf_rank"),
    "linalg.gf_apply_axis_s": ("s", "lower", T, "linalg.gf_apply_axis"),
    "groups.params_make_s": ("s", "lower", T, "groups.params_make"),
    "groups.group_mul_calls": ("count", "lower", C, "groups.group_mul"),
    "groups.cache_hits": ("count", "higher", "cache", 0),
    "groups.cache_misses": ("count", "lower", "cache", 1),
    "characters.h_element_calls": ("count", "lower", C,
                                   "characters.h_element"),
    "characters.h_element_s": ("s", "lower", T, "characters.h_element"),
    "characters.char_idempotent_s": ("s", "lower", T,
                                     "characters.char_idempotent"),
    "groupalg.ga_mul_calls": ("count", "lower", C, "groupalg.ga_mul"),
    "groupalg.ga_mul_s": ("s", "lower", T, "groupalg.ga_mul"),
    "groupalg.ga_mul_lanes": ("count", "lower", X, "groupalg.ga_mul_lanes"),
    "groupalg.ga_mul_lanes_per_s": ("1/s", "higher", "rate",
                                    ("groupalg.ga_mul_lanes",
                                     "groupalg.ga_mul")),
    "groupalg.ga_mul_out_ratio": ("ratio", "higher", "ratio",
                                  ("groupalg.ga_mul_out_terms",
                                   "groupalg.ga_mul_lanes")),
    "groupalg.ga_add_calls": ("count", "lower", C, "groupalg.ga_add"),
    "groupalg.ga_add_s": ("s", "lower", T, "groupalg.ga_add"),
    "groupalg.centralizes_block_H_s": ("s", "lower", T,
                                       "groupalg.centralizes_block_H"),
    "groupalg.side_tables_s": ("s", "lower", T, "groupalg.side_tables"),
    "quiver.qa_embed_calls": ("count", "lower", C, "quiver.qa_embed"),
    "quiver.qa_embed_s": ("s", "lower", T, "quiver.qa_embed"),
    "quiver.qa_isotypic_calls": ("count", "lower", C, "quiver.qa_isotypic"),
    "quiver.qa_isotypic_s": ("s", "lower", T, "quiver.qa_isotypic"),
    "quiver.qa_labels_s": ("s", "lower", T, "quiver.qa_labels"),
    "twisted.tt_mul_calls": ("count", "lower", C, "twisted.tt_mul"),
    "twisted.tt_mul_s": ("s", "lower", T, "twisted.tt_mul"),
    "twisted.tt_mul_pairs": ("count", "lower", X, "twisted.tt_mul_pairs"),
    "twisted.tt_mul_pairs_per_s": ("1/s", "higher", "rate",
                                   ("twisted.tt_mul_pairs",
                                    "twisted.tt_mul")),
    "twisted.tt_mul_out_terms": ("count", "lower", X,
                                 "twisted.tt_mul_out_terms"),
    "twisted.b0_iota_calls": ("count", "lower", C, "twisted.b0_iota"),
    "twisted.b0_iota_s": ("s", "lower", T, "twisted.b0_iota"),
    "twisted.iota_cache_hits": ("count", "higher", "iota", 0),
    "twisted.iota_cache_misses": ("count", "lower", "iota", 1),
    "twisted.b0_pi_product_calls": ("count", "lower", C,
                                    "twisted.b0_pi_product"),
    "twisted.b0_pi_product_s": ("s", "lower", T, "twisted.b0_pi_product"),
    "twisted.b0_pi_product_lanes": ("count", "lower", X,
                                    "twisted.b0_pi_product_lanes"),
    "twisted.b0_pi_product_lanes_per_s": ("1/s", "higher", "rate",
                                          ("twisted.b0_pi_product_lanes",
                                           "twisted.b0_pi_product")),
    "twisted.b0_pi_s": ("s", "lower", T, "twisted.b0_pi"),
    "twisted.b0_pi_inv_s": ("s", "lower", T, "twisted.b0_pi_inv"),
    "morita.ext_dim_calls": ("count", "lower", C, "morita.ext_dim"),
    "morita.ext_dim_s": ("s", "lower", T, "morita.ext_dim"),
    "morita.commutation_pairing_s": ("s", "lower", T,
                                     "morita.commutation_pairing"),
    "morita.fp_automorphism_calls": ("count", "lower", C,
                                     "morita.fp_automorphism"),
    "morita.fp_automorphism_s": ("s", "lower", T, "morita.fp_automorphism"),
}
for _name in checks.CHECK_NAMES:
    LAYER_METRICS[f"verify.{_name}_ms"] = ("ms", "lower", "rows", _name)
for _layer in ("field", "linalg", "groups", "characters", "groupalg",
               "quiver", "twisted", "morita", "verify"):
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower", "self_s", _layer)
LAYER_METRICS["trace.wall_s"] = ("s", "lower", "trace_wall", None)


def _sum_traces(results: list) -> dict:
    total = {"calls": {}, "seconds": {}, "extra": {}, "self_s": {},
             "cache": [0, 0], "iota": [0, 0]}
    for res in results:
        tr = res.get("trace")
        if tr is None:
            continue
        for part in ("calls", "seconds", "extra", "self_s"):
            for key, value in tr[part].items():
                total[part][key] = total[part].get(key, 0) + value
        for part in ("cache", "iota"):
            total[part] = [a + b for a, b in zip(total[part], tr[part])]
    return total


def _row_ms(ops: list, results: list) -> dict:
    """Check name -> summed ms over the round's verify rows."""
    out: dict = {}
    for op, res in zip(ops, results):
        if op["judge"][0] not in ("verify", "checks") or "stdout" not in res:
            continue
        for line in res["stdout"].splitlines():
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            out[row["check"]] = out.get(row["check"], 0.0) + row["ms"]
    return out


def per_layer(ops: list, runner: Runner) -> dict:
    traced = runner.round(ops, True)
    tr = _sum_traces(traced["results"])
    rows = _row_ms(ops, traced["results"])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, (unit, _, source, key) in LAYER_METRICS.items():
        if source in (T, C, X, "self_s"):
            value = tr[source].get(key, 0)
        elif source in ("cache", "iota"):
            value = tr[source][key]
        elif source == "rate":
            value = ratio(tr[X].get(key[0], 0), tr[T].get(key[1], 0.0))
        elif source == "ratio":
            value = ratio(tr[X].get(key[0], 0), tr[X].get(key[1], 0))
        elif source == "rows":
            value = rows.get(key, 0.0)
        else:
            value = traced["wall_s"]
        metrics[name] = (value, unit)
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mfblocks" / "__init__.py").is_file():
        print(f"no mfblocks package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner()
    ops = make_ops(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, "
          f"trace {args.trace}", file=sys.stderr)
    # compile and page in the package once, outside any measurement
    warm = runner.spawn({"config": None})
    if "error" in warm:
        print(f"the package does not import:\n{warm['error']}",
              file=sys.stderr)
        return 2
    if args.trace:
        metrics = per_layer(ops, runner)
    else:
        metrics = end_to_end(ops, args.seconds, runner)
    for problem in runner.wrong:
        print(f"WRONG OUTPUT {problem}", file=sys.stderr)
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"skipped checks {runner.skips}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
