"""The benchmark's two workloads: seeded data prep, the steps of one job, and its correctness gate.

Why these two (see README.md for the metric -> layer -> workload table):

* ``cli-kron-n256``: the user journey through the CLI on a tensor larger than
  the last-level cache. Kronecker ``mode_product`` contractions dominate the
  sketch; the two-pass and ``eval`` steps load the whole tensor and set the
  peak RSS; four fresh processes expose the import cost.
* ``lib-khatri-rao-shards``: one library process that shards the stream over
  two accumulators and merges them. The face-split composite dominates the
  sketch, and it is the only workload that runs ``merge`` and the srtt and
  sparse_sign maps. Its recovery is trivial, so a recovery change should not
  move it.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

MIB = float(2**20)

# One-pass accuracy floor at 30 dB, the acceptance suite's noise-floor check.
REL_ERR_MAX = 5e-3


@dataclass
class Step:
    """One operation of a job: a CLI subcommand or the library job, in its own process."""

    name: str
    cli: list = None  # arguments after `tsketch`
    lib: dict = None  # spec for `child.py libjob`
    outputs: tuple = ()


class Outcome:
    """What one job's correctness gate found, and the end-to-end values it yields."""

    def __init__(self, steps):
        self.steps = [step.name for step in steps]
        self.failures = []  # (step name, reason)
        self.ok = set()  # steps that exited cleanly and wrote their outputs
        self.values = {}  # end-to-end metric -> samples from this job
        self.step_rss = {}  # step -> peak RSS in MiB
        self.layers = {}  # per-layer metrics, traced jobs only
        self.self_s = {}  # self time per span name, traced jobs only

    @property
    def attempted(self):
        return len(self.steps)

    @property
    def failed(self):
        return len({name for name, _ in self.failures})

    def fail(self, step, reason):
        self.failures.append((step.name, reason))


def _seed(name, seed, tag):
    return zlib.crc32(f"{name}/{seed}/{tag}".encode())


def _relative_error(report):
    """The relative_error of a `tsketch eval` JSON report, or None if it has none."""
    try:
        with open(report, encoding="utf-8") as f:
            return float(json.load(f)["relative_error"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    name = ""
    accumulators = 1  # accumulators one job builds from the plan
    # Per-layer metrics that are zero by design on this workload.
    zero_by_design = ()

    def __init__(self, seed, work, smoke):
        self.seed = seed
        self.work = work
        self.size = self.SMOKE if smoke else self.FULL
        self.data_seed = _seed(self.name, seed, "data")
        self.plan_seed = _seed(self.name, seed, "plan")
        self._checked = {}  # output digest -> result of the untimed check on it

    def path(self, name):
        return str(self.work / name)

    def plan_kwargs(self):
        s = self.size
        return {"shape": [s["n"]] * s["d"], "loo_kind": s["loo_kind"], "m": s["m"],
                "m_c": s["m_c"], "loo_family": s["family"], "seed": self.plan_seed}

    def setup_spec(self):
        return {"plan": self.plan_kwargs(), "accumulators": self.accumulators}

    def tensor_bytes(self):
        return 8 * self.size["n"] ** self.size["d"]

    def seeds(self):
        return {"workload_seed": self.seed, "data_seed": self.data_seed, "plan_seed": self.plan_seed}

    def _expected_entries(self):
        from tsketch.sketch import make_plan

        plan = make_plan(**self.plan_kwargs())
        return plan.loo_entry_count() + plan.core_entry_count()

    def _check_entries(self, out, step, bundle_path):
        from tsketch.formats import read_bundle

        b = read_bundle(bundle_path)
        stored = sum(a.size for a in b.loo) + b.core.size
        if stored != self._expected_entries():
            out.fail(step, f"bundle stores {stored} entries, plan says {self._expected_entries()}")

    def _eval(self, runner, factorization, report):
        """Untimed `tsketch eval` of a factorization against the data, cached by file digest.

        Equal plans give bitwise-equal outputs, so every job after the first
        usually hits the cache; a changed output is evaluated again.
        """
        key = _sha256(factorization)
        if key not in self._checked:
            res = runner.python(["-m", "tsketch.cli", "eval", "--input", factorization,
                                 "--chunks", self.path("x.tskc"), "--output", report])
            rel = None if res.failure() else _relative_error(report)
            reason = res.failure() or "eval report has no relative_error"
            self._checked[key] = (rel, None if rel is not None else f"check eval failed: {reason}")
        return self._checked[key]

    def _gen(self, runner):
        s = self.size
        cfg = {"generator": "lowrank", "n": s["n"], "d": s["d"], "r_true": s["r"],
               "snr_db": s["snr_db"], "slabs": s["slabs"]}
        with open(self.path("gen.json"), "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        res = runner.python(["-m", "tsketch.cli", "gen", "--config", self.path("gen.json"),
                             "--seed", self.data_seed, "--output", self.path("x.tskc")])
        if res.failure():
            raise RuntimeError(f"data prep failed: {res.failure()}")


class CliKron(Workload):
    name = "cli-kron-n256"
    FULL = {"n": 256, "d": 3, "r": 10, "snr_db": 30.0, "slabs": 16, "loo_kind": "kronecker",
            "family": "gaussian", "m": 25, "m_c": 50}
    SMOKE = dict(FULL, n=40, r=4, slabs=4, m=10, m_c=20)
    zero_by_design = ("sketch.merge_s", "tensor.face_split_s", "tensor.face_split_mb")

    def prep(self, runner):
        self._gen(runner)
        k = self.plan_kwargs()
        with open(self.path("sketch.json"), "w", encoding="utf-8") as f:
            json.dump({"loo_kind": k["loo_kind"], "loo_family": k["loo_family"], "m": k["m"],
                       "m_c": k["m_c"], "seed": k["seed"]}, f)

    def steps(self):
        x, b, r = self.path("x.tskc"), self.path("b.tskb"), str(self.size["r"])
        t1, t2 = self.path("t1.tuck"), self.path("t2.tuck")
        return [
            Step("sketch", cli=["sketch", "--config", self.path("sketch.json"), "--chunks", x,
                                "--output", b], outputs=(b,)),
            Step("recover", cli=["recover", "--rank", r, "--input", b, "--output", t1],
                 outputs=(t1,)),
            Step("recover_2p", cli=["recover", "--rank", r, "--two-pass", "--chunks", x,
                                    "--input", b, "--output", t2], outputs=(t2,)),
            Step("eval", cli=["eval", "--input", t1, "--chunks", x, "--output",
                              self.path("e1.json")], outputs=(self.path("e1.json"),)),
        ]

    def check(self, steps, results, out, runner):
        sketch, recover, recover_2p, _ = steps
        out.values["sketch_mb_s"] = [self.tensor_bytes() / MIB / results["sketch"].wall_s]
        out.values["recover_s"] = [results["recover"].wall_s]
        if "eval" in out.ok:
            rel = _relative_error(self.path("e1.json"))
            if rel is None:
                out.fail(steps[3], "eval report has no relative_error")
                return
            out.values["rel_err"] = [rel]
            if rel > REL_ERR_MAX:
                out.fail(recover, f"one-pass rel_err {rel:.3e} > {REL_ERR_MAX:g}")
            if "recover_2p" in out.ok:
                rel2, err = self._eval(runner, self.path("t2.tuck"), self.path("e2.json"))
                if err:
                    out.fail(recover_2p, err)
                elif rel2 > rel:
                    out.fail(recover_2p, f"two-pass rel_err {rel2:.3e} > one-pass {rel:.3e}")
        if "sketch" in out.ok:
            self._check_entries(out, sketch, self.path("b.tskb"))


class LibShards(Workload):
    name = "lib-khatri-rao-shards"
    FULL = {"n": 256, "d": 3, "r": 10, "snr_db": 30.0, "slabs": 16, "loo_kind": "khatri_rao",
            "family": "mix", "m": 100, "m_c": 50}
    SMOKE = dict(FULL, n=48, r=4, slabs=4, m=40, m_c=20)
    accumulators = 2
    zero_by_design = ("cli.sketch_s", "cli.sketch_rss_mb", "cli.recover_s", "cli.recover_rss_mb",
                      "cli.recover_2p_s", "cli.recover_2p_rss_mb", "cli.eval_s", "cli.eval_rss_mb",
                      "formats.read_chunks_dense_s", "formats.read_factorization_s",
                      "recover.core_twopass_s", "recover.reconstruct_s",
                      "evaluate.relative_error_s")

    def prep(self, runner):
        self._gen(runner)

    def steps(self):
        spec = {"plan": self.plan_kwargs(), "chunks": self.path("x.tskc"),
                "bundle": self.path("b.tskb"), "factorization": self.path("t1.tuck"),
                "rank": self.size["r"]}
        return [Step("libjob", lib=spec, outputs=(spec["bundle"], spec["factorization"]))]

    def check(self, steps, results, out, runner):
        (step,) = steps
        if "libjob" not in out.ok:
            return
        try:
            stages = json.loads(results["libjob"].stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            out.fail(step, "library job printed no stage times")
            return
        out.values["sketch_mb_s"] = [self.tensor_bytes() / MIB / stages["sketch_s"]]
        out.values["recover_s"] = [stages["recover_s"]]
        rel, err = self._eval(runner, self.path("t1.tuck"), self.path("e1.json"))
        if err:
            out.fail(step, err)
            return
        out.values["rel_err"] = [rel]
        if rel > REL_ERR_MAX:
            out.fail(step, f"one-pass rel_err {rel:.3e} > {REL_ERR_MAX:g}")
        self._check_entries(out, step, self.path("b.tskb"))


WORKLOADS = {w.name: w for w in (CliKron, LibShards)}
