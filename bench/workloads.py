"""The two in-process workloads, sweep_warm and group_sums.

Each workload object does its set-up and runs op i.  Ops run in whole rounds
(one rule of each family; one profile of each space projected onto every
partition with non-zero multiplicity) so that every run has the same mix.
After each round, outside the op timings, check_round() checks the round's
results and keeps only the exact counts, so memory does not grow with the
run length.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import checks
import inputs


class SweepWarm:
    """One analysed rule per op, families round-robin, caches warm."""

    round_len = len(inputs.SWEEP_FAMILIES)

    def __init__(self, seed: int):
        self.seed = seed
        self.infeasible = 0
        self.masking_attempts = 0
        self.exact: dict = {}
        self.spaces: set = set()

    def setup(self) -> None:
        from cyclevote import analysis, cyclic_orders, scoring

        self.analysis, self.cyclic_orders, self.scoring = analysis, cyclic_orders, scoring
        for i in range(self.round_len):
            op = inputs.sweep_op(self.seed, i)
            scoring.rule(op["family"], *op["params"])
        for space_id in ("co4", "rolo4", "co5"):
            analysis.subspace_catalog(space_id)

    def op(self, i: int) -> dict:
        A, co = self.analysis, self.cyclic_orders
        spec = inputs.sweep_op(self.seed, i)
        m = self.scoring.rule(spec["family"], *spec["params"])
        space = m.ballot_space
        profiles = [A.profile(space, w) for w in spec["profiles"]]
        tallies = [A.tally(m, p) for p in profiles]
        kernel = A.kernel_basis(m)
        effective = A.effective_basis(m)
        catalog = A.catalog_for_space(space)
        report = A.scaling_report(m, catalog, expand_images=True)
        components = A.decompose_profile(profiles[0], catalog)
        masked = None
        if kernel:
            self.masking_attempts += 1
            try:
                masked = A.masking_profile(
                    m,
                    co.parse_order(spec["target"]),
                    {co.parse_order(d) for d in spec["decoys"]},
                    Fraction(spec["magnitude"]),
                )
            except A.MaskingInfeasibleError:
                self.infeasible += 1
        return {
            "spec": spec, "m": m, "tallies": tallies, "kernel": kernel,
            "effective": effective, "report": report, "components": components,
            "masked": masked,
        }

    def op_label(self, i: int) -> str:
        return inputs.SWEEP_FAMILIES[i % self.round_len][0]

    def check_round(self, records: list[dict]) -> list[tuple[int, str]]:
        for rec in records:
            self.exact[f"op{rec['i']}.kernel_dim"] = len(rec["kernel"])
            self.exact[f"op{rec['i']}.rank"] = len(rec["effective"])
            self.spaces.add(rec["m"].ballot_space)
        return [(rec["i"], msg) for rec in records for msg in self._check_op(rec["i"], rec)]

    def _check_op(self, i: int, rec: dict) -> list[str]:
        spec, m = rec["spec"], rec["m"]
        name = f"op {i} {spec['family']}"
        errors = checks.check_kernel(name, m.entries, rec["kernel"], rec["effective"])
        weights = [Fraction(x) for x in spec["profiles"][0]]
        errors += checks.check_sum_back(name, [c.component for c in rec["components"]], weights)
        for k, (w, t) in enumerate(zip(spec["profiles"], rec["tallies"])):
            if list(t.scores) != checks.mat_vec(m.entries, w):
                errors.append(f"{name}: tally {k} scores differ from M p")
        if spec["family"] == "generic4":
            scalars = {e.label: e.scalar for e in rec["report"].entries}
            errors += checks.check_generic4_scalars(name, spec["params"], scalars)
        if rec["masked"] is not None:
            errors += checks.check_masking(
                name, m.entries, m.ballot_space.labels(), m.outcome_space.labels(),
                list(rec["masked"].weights), spec["target"],
            )
        return errors

    def counts(self) -> dict:
        """Exact counts that must repeat between two runs of the same ops."""
        out = {"masking.attempts": self.masking_attempts, "masking.infeasible": self.infeasible}
        out.update(self.exact)
        for space in sorted(self.spaces, key=repr):
            out[f"orbit_count.{space.kind}{space.n}"] = self.scoring.orbit_count(space)
        return out

    def replays(self) -> dict:
        return {}

    def install(self, tracer) -> None:
        from cyclevote import _linalg, analysis, scoring

        tracer.patch(scoring, "named_rule", "scoring.rule")
        tracer.patch(scoring, "transposition_distance", "cyclic_orders.transposition_distance",
                     record=False)
        tracer.patch(scoring, "classify_pair", "cyclic_orders.classify_pair", record=False)
        for fn in ("tally", "kernel_basis", "effective_basis", "scaling_report",
                   "decompose_profile", "masking_profile"):
            tracer.patch(analysis, fn, f"analysis.{fn}")
        for fn in ("solve_in_span", "rref", "nullspace", "mat_vec", "mat_mul"):
            tracer.patch(_linalg, fn, f"_linalg.{fn}")


class GroupSums:
    """One project_vector per op over cyclic n=6 and ROLO n=6."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from cyclevote import ballots, representation
        from cyclevote.symmetric_group import partitions

        self.representation = representation
        self.spaces = []
        for kind, n in inputs.GROUP_SPACES:
            space = ballots.build_ballot_space(kind, n, "canonical")
            action = ballots.action_space(space)
            report = representation.decompose_character(representation.space_character(action))
            lams = [lam for lam in partitions(n) if report.multiplicities[lam]]
            self.spaces.append((space, action, report, lams))
        # one round: every space, one profile, all partitions with multiplicity
        self.plan = [(s, lam) for s, (_, _, _, lams) in enumerate(self.spaces) for lam in lams]
        self.round_len = len(self.plan)

    def op(self, i: int) -> dict:
        round_no, k = divmod(i, self.round_len)
        s, lam = self.plan[k]
        space, action, _, _ = self.spaces[s]
        v = [Fraction(x) for x in inputs.group_profile(self.seed, round_no, s, len(space))]
        return {"round": round_no, "space": s, "lam": lam,
                "component": self.representation.project_vector(v, action, lam)}

    def op_label(self, i: int) -> str:
        return str(self.plan[i % self.round_len][1])

    def check_round(self, records: list[dict]) -> list[tuple[int, str]]:
        errors = []
        groups: dict[tuple[int, int], list[dict]] = {}
        for rec in records:
            groups.setdefault((rec["round"], rec["space"]), []).append(rec)
        for (round_no, s), recs in sorted(groups.items()):
            space, _, report, lams = self.spaces[s]
            msgs = []
            if report.total_dim != len(space):
                msgs.append(f"{space!r}: decomposition dims sum to {report.total_dim}")
            if len(recs) == len(lams):  # a failed op leaves no sum to check
                profile = inputs.group_profile(self.seed, round_no, s, len(space))
                msgs += checks.check_sum_back(
                    f"round {round_no} {space!r}", [r["component"] for r in recs], profile)
            errors += [(r["i"], msg) for msg in msgs for r in recs]
        return errors

    def counts(self) -> dict:
        moves, share = self.column_moves()
        return {"column_moves": moves, "nonzero_weight_share": share,
                "multiplicities": [sorted((str(k), v) for k, v in report.multiplicities.items())
                                   for _, _, report, _ in self.spaces]}

    def replays(self) -> dict:
        """Time all_permutations(6) by itself: it is a generator, timed by draining it."""
        from cyclevote.symmetric_group import all_permutations

        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in all_permutations(6):
                pass
            samples.append(time.perf_counter() - t0)
        return {"all_permutations6_s": statistics.median(samples)}

    def column_moves(self) -> tuple[int, float]:
        """Column moves of one round (nonzero-weight elements x dim) and their share."""
        from math import factorial

        from cyclevote.symmetric_group import class_size, irreducible_character, partitions

        moves = elements = total = 0
        for space, _, _, lams in self.spaces:
            for lam in lams:
                nonzero = sum(class_size(mu) for mu in partitions(space.n)
                              if irreducible_character(lam, mu))
                moves += nonzero * len(space)
                elements += nonzero
                total += factorial(space.n)
        return moves, elements / total

    def install(self, tracer) -> None:
        from cyclevote import _linalg, ballots, representation

        for fn in ("project_vector", "isotypic_projector", "space_character",
                   "decompose_character"):
            tracer.patch(representation, fn, f"representation.{fn}")
        tracer.patch(_linalg, "mat_vec", "_linalg.mat_vec")
        tracer.patch(ballots, "build_ballot_space", "ballots.build_ballot_space")
        tracer.patch(ballots.BallotSpace, "act_index", "ballots.act_index", record=False)
        tracer.patch(representation, "cycle_type", "symmetric_group.cycle_type", record=False)
        tracer.patch(representation, "irreducible_character",
                     "symmetric_group.irreducible_character", record=False)


WORKLOADS = {"sweep_warm": SweepWarm, "group_sums": GroupSums}
