"""Tests for the declarative scenario subsystem (registry, specs, grids,
adversarial generators, spec fingerprints and the workload catalog)."""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import request_key, spec_fingerprint
from repro.engine.core import SolveLimits, clear_caches
from repro.engine.fingerprint import (
    cached_spec_fingerprint,
    record_spec_fingerprint,
    spec_alias_key,
)
from repro.generators import get_workload, workload_names
from repro.hardness.partition import PartitionInstance
from repro.scenarios import (
    Axis,
    ScenarioGrid,
    ScenarioSpec,
    arc_dag_to_tradeoff_dag,
    generator_ids,
    generator_specs,
    get_generator,
    materialization_info,
    minresource_chain_dag,
    partition_gadget_dag,
    register_generator,
    reset_materialization_counters,
    unregister_generator,
)
from repro.scenarios.adversarial import partition_values
from repro.utils.validation import ValidationError


class TestRegistry:
    def test_builtin_generators_registered(self):
        ids = generator_ids()
        for expected in ["fork-join", "staged-fork-join", "layered-random",
                         "chain", "sp-random", "sp-balanced",
                         "adversarial-partition",
                         "adversarial-minresource-chain"]:
            assert expected in ids

    def test_adversarial_flag(self):
        flags = {spec.generator_id: spec.adversarial
                 for spec in generator_specs()}
        assert flags["adversarial-partition"]
        assert not flags["fork-join"]

    def test_unknown_generator(self):
        with pytest.raises(ValidationError, match="unknown generator"):
            get_generator("does-not-exist")

    def test_register_and_unregister(self):
        @register_generator("test-tiny", summary="one-job dag",
                            families=("binary",),
                            params_schema={"work": {"type": "int",
                                                    "default": 8}})
        def _build(work):
            from repro.core.dag import TradeoffDAG
            from repro.core.duration import RecursiveBinarySplitDuration

            dag = TradeoffDAG()
            dag.add_job("s")
            dag.add_job("x", RecursiveBinarySplitDuration(work))
            dag.add_job("t")
            dag.add_edge("s", "x")
            dag.add_edge("x", "t")
            return dag

        try:
            with pytest.raises(ValidationError, match="already registered"):
                register_generator("test-tiny", summary="dup",
                                   families=("binary",),
                                   params_schema={})(lambda: None)
            spec = ScenarioSpec("test-tiny", budget_rule=("const", 4))
            assert spec.params == {"work": 8}
            assert spec.materialize().dag.num_jobs == 3
        finally:
            assert unregister_generator("test-tiny") is not None
        assert unregister_generator("test-tiny") is None

    def test_param_validation(self):
        gen = get_generator("fork-join")
        with pytest.raises(ValidationError, match="needs param"):
            gen.validate_params({"width": 4})  # work missing
        with pytest.raises(ValidationError, match="does not accept"):
            gen.validate_params({"width": 4, "work": 8, "bogus": 1})
        with pytest.raises(ValidationError, match="must be int"):
            gen.validate_params({"width": "wide", "work": 8})
        with pytest.raises(ValidationError, match="must be int"):
            gen.validate_params({"width": True, "work": 8})  # bools are not ints
        with pytest.raises(ValidationError, match="must be one of"):
            gen.validate_params({"width": 4, "work": 8, "family": "exotic"})
        with pytest.raises(ValidationError, match="seeds through the spec"):
            get_generator("chain").validate_params({"lengths": [4], "seed": 3})

    def test_seq_params_canonicalised(self):
        gen = get_generator("chain")
        assert gen.validate_params({"lengths": (8, 16)})["lengths"] == [8, 16]

    def test_unseeded_generator_rejects_seed(self):
        with pytest.raises(ValidationError, match="unseeded"):
            get_generator("fork-join").build_dag({"width": 2, "work": 8},
                                                 seed=3)


class TestScenarioSpec:
    def test_canonical_params_and_digest(self):
        a = ScenarioSpec("fork-join", {"work": 16, "width": 4},
                         budget_rule=("const", 8))
        b = ScenarioSpec("fork-join", {"width": 4, "work": 16},
                         budget_rule=["const", 8.0])
        assert a == b
        assert a.cell_digest() == b.cell_digest()
        assert a.params == {"family": "binary", "width": 4, "work": 16}

    def test_payload_round_trip(self):
        spec = ScenarioSpec("layered-random",
                            {"num_layers": 2, "jobs_per_layer": 3}, seed=5,
                            objective="min_resource",
                            budget_rule=("makespan-factor", 0.5))
        clone = ScenarioSpec.from_payload(spec.to_payload())
        assert clone == spec
        assert clone.cell_digest() == spec.cell_digest()

    def test_payload_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown fields"):
            ScenarioSpec.from_payload({"generator": "chain",
                                       "params": {"lengths": [4]},
                                       "dag": "smuggled"})

    def test_bad_budget_rule_and_objective(self):
        with pytest.raises(ValidationError, match="unknown budget rule"):
            ScenarioSpec("fork-join", {"width": 2, "work": 8},
                         budget_rule=("triple", 1))
        with pytest.raises(ValidationError, match="unknown objective"):
            ScenarioSpec("fork-join", {"width": 2, "work": 8},
                         objective="max_fun", budget_rule=("const", 1))

    def test_budget_rules(self):
        chain = {"lengths": [8, 8], "family": "binary"}
        const = ScenarioSpec("chain", chain, budget_rule=("const", 5)).materialize()
        assert const.budget == 5.0
        factor = ScenarioSpec("chain", chain,
                              budget_rule=("makespan-factor", 0.5)).materialize()
        assert factor.budget == 8.0  # zero-resource makespan 16 * 0.5
        per_job = ScenarioSpec("chain", chain,
                               budget_rule=("per-job", 2.0)).materialize()
        assert per_job.budget == 4.0  # 2 improvable (non-constant) jobs

    def test_min_resource_objective(self):
        problem = ScenarioSpec("chain", {"lengths": [8, 8]},
                               objective="min_resource",
                               budget_rule=("const", 10)).materialize()
        assert problem.target_makespan == 10.0

    def test_materialization_is_deterministic_and_counted(self):
        spec = ScenarioSpec("layered-random",
                            {"num_layers": 2, "jobs_per_layer": 2}, seed=9,
                            budget_rule=("const", 4))
        reset_materialization_counters()
        from repro.engine.fingerprint import dag_fingerprint

        assert dag_fingerprint(spec.build_dag()) == dag_fingerprint(spec.build_dag())
        assert materialization_info()["dag_builds"] == 2


class TestScenarioGrid:
    def grid(self):
        return ScenarioGrid(
            generators=({"generator": "fork-join",
                         "params": {"width": Axis([2, 4]), "work": 16}},
                        {"generator": "chain",
                         "params": {"lengths": [8, 16]}}),
            seeds=(0, 1),
            budget_rules=(("const", 4.0), ("per-job", 1.0)))

    def test_size_matches_expansion(self):
        grid = self.grid()
        specs = list(grid.expand())
        assert grid.size() == len(specs) == (2 + 1) * 2 * 2

    def test_expansion_is_deterministic(self):
        a = [s.cell_digest() for s in self.grid().expand()]
        b = [s.cell_digest() for s in self.grid().expand()]
        assert a == b

    def test_payload_round_trip(self):
        grid = self.grid()
        clone = ScenarioGrid.from_payload(grid.to_payload())
        assert ([s.cell_digest() for s in clone.expand()]
                == [s.cell_digest() for s in grid.expand()])

    def test_axis_values_expand_sorted_by_name(self):
        grid = ScenarioGrid(
            generators=({"generator": "fork-join",
                         "params": {"width": Axis([2, 4]),
                                    "work": Axis([8, 16])}},),
            budget_rules=(("const", 4.0),))
        cells = [(s.params["width"], s.params["work"]) for s in grid.expand()]
        assert cells == [(2, 8), (2, 16), (4, 8), (4, 16)]

    def test_unseeded_generators_collapse_the_seed_axis(self):
        grid = ScenarioGrid(
            generators=({"generator": "fork-join",
                         "params": {"width": 2, "work": 8}},),
            seeds=(0, 1, 2), budget_rules=(("const", 4.0),))
        digests = {s.cell_digest() for s in grid.expand()}
        assert len(digests) == 1  # dedup downstream collapses them

    def test_base_seed_derives_distinct_per_cell_seeds(self):
        grid = ScenarioGrid(
            generators=({"generator": "layered-random",
                         "params": {"num_layers": Axis([2, 3]),
                                    "jobs_per_layer": 2}},),
            seeds=7, budget_rules=(("const", 4.0), ("const", 8.0)))
        seeds = [s.seed for s in grid.expand()]
        assert len(set(seeds)) == len(seeds) == 4
        assert seeds == [s.seed for s in grid.expand()]

    def test_derived_seeds_ignore_spelled_out_defaults(self):
        implicit = ScenarioGrid(
            generators=({"generator": "layered-random",
                         "params": {"num_layers": 2, "jobs_per_layer": 2}},),
            seeds=7, budget_rules=(("const", 4.0),))
        explicit = ScenarioGrid(
            generators=({"generator": "layered-random",
                         "params": {"num_layers": 2, "jobs_per_layer": 2,
                                    "family": "general",
                                    "edge_probability": 0.5,
                                    "max_base": 40}},),
            seeds=7, budget_rules=(("const", 4.0),))
        assert ([s.cell_digest() for s in implicit.expand()]
                == [s.cell_digest() for s in explicit.expand()])

    def test_same_seed_grids_expand_identically_across_processes(self):
        grid = self.grid()
        local = [s.cell_digest() for s in grid.expand()]
        script = (
            "import json, sys\n"
            "from repro.scenarios import ScenarioGrid\n"
            "grid = ScenarioGrid.from_payload(json.loads(sys.argv[1]))\n"
            "print(json.dumps([s.cell_digest() for s in grid.expand()]))\n"
        )
        import json

        output = subprocess.run(
            [sys.executable, "-c", script, json.dumps(grid.to_payload())],
            capture_output=True, text=True, check=True, timeout=120)
        assert json.loads(output.stdout) == local

    def test_grid_validation(self):
        with pytest.raises(ValidationError, match="at least one generator"):
            ScenarioGrid(generators=())
        with pytest.raises(ValidationError, match="unknown generator"):
            ScenarioGrid(generators=("nope",))
        with pytest.raises(ValidationError, match="at least one seed"):
            ScenarioGrid(generators=("sp-random",), seeds=())


class TestAdversarialGenerators:
    def test_partition_gadget_matches_theorem(self):
        from repro import MinMakespanProblem, exact_reference

        yes = partition_gadget_dag(values=(1, 1, 2))
        yes.validate()
        report = exact_reference(MinMakespanProblem(yes, 4.0))
        assert report is not None and report.makespan == 2.0  # B/2
        no = partition_gadget_dag(values=(1, 1, 3))
        report = exact_reference(MinMakespanProblem(no, 5.0))
        assert report is not None and report.makespan == 3.0  # > B/2

    def test_partition_values_deterministic(self):
        assert partition_values(5, 9, 3) == partition_values(5, 9, 3)
        assert partition_values(5, 9, 3) != partition_values(5, 9, 4)
        assert sum(partition_values(5, 9, 2)) % 2 == 0  # even seeds balance

    def test_minresource_chain_walks_on_time(self):
        from repro import MinMakespanProblem, solve

        dag = minresource_chain_dag(num_variables=3)
        dag.validate()
        # Two units of resource thread the chain: both arrive at time n.
        assert solve(MinMakespanProblem(dag, 2.0)).makespan == 3.0
        # Starved of the second unit, a penalty arc goes unexpedited.
        assert solve(MinMakespanProblem(dag, 0.0)).makespan > 3.0

    def test_arc_to_node_conversion_preserves_paths(self):
        construction = PartitionInstance((2, 3))
        from repro.hardness.partition import build_partition_dag

        built = build_partition_dag(construction)
        dag = arc_dag_to_tradeoff_dag(built.arc_dag)
        dag.validate()
        assert dag.num_jobs == built.arc_dag.num_arcs + 2
        assert dag.source == "source" and dag.sink == "sink"
        # Zero-allocation makespan equals the sum of unexpedited forced
        # durations on the heaviest chain, identical to the arc view.
        assert dag.makespan_value({}) > 0

    def test_registered_adversarial_cells_materialize(self):
        spec = ScenarioSpec("adversarial-partition",
                            {"num_values": 3, "max_value": 5}, seed=4,
                            budget_rule=("const", 6.0))
        problem = spec.materialize()
        problem.dag.validate()
        spec2 = ScenarioSpec("adversarial-minresource-chain",
                             {"num_variables": 2},
                             budget_rule=("const", 2.0))
        spec2.materialize().dag.validate()


class TestSpecFingerprint:
    def setup_method(self):
        clear_caches()

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(["fork-join", "chain", "layered-random"]),
           st.integers(0, 3), st.sampled_from([("const", 6.0),
                                               ("per-job", 1.0)]))
    def test_spec_fingerprint_equals_materialized_request_key(
            self, generator, seed, rule):
        params = {
            "fork-join": {"width": 2, "work": 8},
            "chain": {"lengths": [4, 8]},
            "layered-random": {"num_layers": 2, "jobs_per_layer": 2},
        }[generator]
        if generator == "fork-join":
            seed = 0
        spec = ScenarioSpec(generator, params, seed=seed, budget_rule=rule)
        assert spec_fingerprint(spec) == request_key(spec.materialize())

    def test_cached_and_recorded_fingerprints(self):
        clear_caches()
        spec = ScenarioSpec("fork-join", {"width": 2, "work": 8},
                            budget_rule=("const", 4.0))
        assert cached_spec_fingerprint(spec) is None
        key = spec_fingerprint(spec)
        assert cached_spec_fingerprint(spec) == key
        clear_caches()
        assert cached_spec_fingerprint(spec) is None
        record_spec_fingerprint(spec, key)
        assert cached_spec_fingerprint(spec) == key

    def test_alias_key_is_stable_and_distinct(self):
        spec = ScenarioSpec("fork-join", {"width": 2, "work": 8},
                            budget_rule=("const", 4.0))
        assert spec_alias_key(spec) == spec_alias_key(spec)
        assert spec_alias_key(spec) != spec_fingerprint(spec)
        assert spec_alias_key(spec) != spec_alias_key(spec, "bicriteria-lp")

    def test_uncacheable_options_are_rejected(self):
        spec = ScenarioSpec("fork-join", {"width": 2, "work": 8},
                            budget_rule=("const", 4.0))
        with pytest.raises(ValidationError, match="content-keyable"):
            spec_fingerprint(spec, probe=object())


#: Three cells covering the spec fields: defaulted params, a sequence
#: param with a seed, min-resource, and every budget rule.
PINNED_SPECS = {
    "fork-join": ScenarioSpec("fork-join", {"width": 3, "work": 8},
                              budget_rule=("const", 4.0)),
    "staged": ScenarioSpec("staged-fork-join",
                           {"stage_widths": [2, 3], "work": 12,
                            "family": "kway"},
                           seed=7, objective="min_resource",
                           budget_rule=("makespan-factor", 1.5)),
    "sp-random": ScenarioSpec("sp-random", {"num_jobs": 6}, seed=3,
                              budget_rule=("per-job", 2)),
}

#: The solve contexts each identity is pinned under.
PINNED_CONTEXTS = {
    "default": {},
    "limits": {"limits": SolveLimits(max_exact_combinations=500,
                                     time_limit=2.5)},
    "options": {"alpha": 0.25, "rounding": "floor"},
    "no-validate": {"validate": False},
}

#: ``(cell_digest, {context: (spec_alias_key, spec_fingerprint)})``, as
#: released stores hold them: a change here orphans every stored alias.
PINNED_IDENTITIES = {
    "fork-join": (
        "5356a24c84c30511090902579618edafd2193030dc12590089b64e96d320e34c", {
            "default": (
                "0b09ccc922c82b5febbfbd953c562ea5257baa66973cfe9bdb3abf975592389f",
                "0972738466976b67749a4fa178fc6ddc23567b10255c9ac94d5bb9e67fc00535"),
            "limits": (
                "ebf53f79fa6c505522b64154a4b02140fe1eb4957218f7e0dfe844405826c1a7",
                "66b6b2f9b6b80a1e91b4a801b127ba75c42c85fc212a5693a0621db45fd5c8f5"),
            "options": (
                "d9fa6188c271ccf25f37827fd18429039f6379946ddf7e2b257345bbc7e2665b",
                "0972738466976b67749a4fa178fc6ddc23567b10255c9ac94d5bb9e67fc00535"),
            "no-validate": (
                "6392a2712467bc843068ffc2f3e8ff7852e492efd307c7d43aa7ff18371fb57d",
                "b1461d8a58b7ab733aa63e2ef4e84e25b73c48246386019126da667f928baf6b"),
        }),
    "staged": (
        "fa52bfe0b0828cfb4c1128fd7e141831d3ecccc4b3f64a69364007d842a82697", {
            "default": (
                "ffe11a5fef42b95954457354a9bc2273729aceef9608431cddf6b062c8cf6571",
                "de0ca4127e44c7223fa2659463864ba5e904e730a1e7115a6ce5f41743542bc7"),
            "limits": (
                "1079d63d8670f98a17188c15d6e2d76a184bb49af186c8a2feb3bb76f0b74168",
                "4ac089f6c059d0da75a5b52f3bc454ccfba129680adaa0ac654d027402db3d01"),
            "options": (
                "e06f8571c63a40068eef75546bf0ede26e53c7fa68ef7d5bba199abb397e2dc9",
                "de0ca4127e44c7223fa2659463864ba5e904e730a1e7115a6ce5f41743542bc7"),
            "no-validate": (
                "d44c43a60f72c40ae990ec9c7709144dbb3209b3e944c775d744a17208d35260",
                "1b55ccb1fdde03c8364daded8b22587630a893adf94e0b537953a41f0444ce93"),
        }),
    "sp-random": (
        "5d2fb38449daac1759726dd7524b617453f59a0a7ca75420daed4763339fbd82", {
            "default": (
                "b71170f96d2b53279ed7fe3e542c710a5e45516f6adebb95b53ba6f16a821653",
                "7c0c0398af4168c5145972f53af81559e2aa183f4a8a26f16d3d3bceb1bd65fd"),
            "limits": (
                "6bbb059d68e9a560f70f77a4c5d7d259c3b8ed5798303f04468e5869d9604a48",
                "d50566ff751be11f789bb2f6b6f43b80be67bdb6407baa0c4eb8f35327697b2f"),
            "options": (
                "293bcd835a232e7d72206e890acd549eb5829402bd39e3914504adf3fcd63e01",
                "7c0c0398af4168c5145972f53af81559e2aa183f4a8a26f16d3d3bceb1bd65fd"),
            "no-validate": (
                "29799ba8cfb7a7d9aa91524684f0bba9052004d793723179032bcae766eeabea",
                "8f0f99ccd8f28c5b70152e36d28aed0b4f480f07a075a8dc2ec22b8e8e8e2615"),
        }),
}


class TestPinnedIdentities:
    """Cell digests, alias keys and request fingerprints are store keys:
    stores written by earlier releases must keep hitting."""

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_cell_digest(self, name):
        assert PINNED_SPECS[name].cell_digest() == PINNED_IDENTITIES[name][0]

    @pytest.mark.parametrize("context", sorted(PINNED_CONTEXTS))
    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_alias_key_and_fingerprint(self, name, context):
        clear_caches()
        spec, kwargs = PINNED_SPECS[name], PINNED_CONTEXTS[context]
        alias, fingerprint = PINNED_IDENTITIES[name][1][context]
        assert spec_alias_key(spec, **kwargs) == alias
        assert spec_fingerprint(spec, **kwargs) == fingerprint
        # A fresh spec decoded from the wire form keys identically.
        clone = ScenarioSpec.from_payload(spec.to_payload())
        assert spec_alias_key(clone, **kwargs) == alias

    def test_limits_objects_key_by_content(self):
        """Equal limits objects (and ``None``) key alike, in any order."""
        spec = PINNED_SPECS["fork-join"]
        alias = PINNED_IDENTITIES["fork-join"][1]["default"][0]
        for limits in (SolveLimits(), None, SolveLimits(max_sp_budget=4096)):
            assert spec_alias_key(spec, limits=limits) == alias
        assert spec_alias_key(spec, limits=SolveLimits(max_sp_budget=8)) != alias
        assert spec_alias_key(spec, limits=None) == alias


_FORK_JOIN = {"generator": "fork-join", "params": {"width": 2, "work": 8}}
_STAGED = {"generator": "staged-fork-join",
           "params": {"stage_widths": [2], "work": 8}}

#: ``payload -> exact ValidationError text`` for rejected spec payloads.
REJECTED_PAYLOADS = {
    "unknown field": (
        {**_FORK_JOIN, "budget": 1},
        "scenario spec payload has unknown fields ['budget']"),
    "not an object": (
        ["fork-join"], "scenario spec payload must be an object"),
    "no generator": (
        {"params": {}}, "scenario spec payload needs a string 'generator'"),
    "unknown generator": (
        {"generator": "no-such-gen"},
        "unknown generator 'no-such-gen'; registered: ['adversarial-3dm', "
        "'adversarial-minresource-chain', 'adversarial-partition', "
        "'adversarial-sat', 'chain', 'fork-join', 'layered-random', "
        "'sp-balanced', 'sp-random', 'staged-fork-join']"),
    "unknown params": (
        {"generator": "fork-join",
         "params": {"width": 2, "work": 8, "depth": 3, "alpha": 1}},
        "generator 'fork-join' does not accept params ['alpha', 'depth']; "
        "schema: ['family', 'width', 'work']"),
    "missing param": (
        {"generator": "fork-join", "params": {"width": 2}},
        "generator 'fork-join' needs param 'work'"),
    "mistyped param": (
        {"generator": "fork-join", "params": {"width": "2", "work": 8}},
        "generator 'fork-join': param 'width' must be int, got '2'"),
    "True for an int": (
        {"generator": "fork-join", "params": {"width": True, "work": 8}},
        "generator 'fork-join': param 'width' must be int, got True"),
    "float for an int": (
        {"generator": "fork-join", "params": {"width": 2.0, "work": 8}},
        "generator 'fork-join': param 'width' must be int, got 2.0"),
    "mistyped sequence": (
        {"generator": "chain", "params": {"lengths": "48"}},
        "generator 'chain': param 'lengths' must be seq, got '48'"),
    "outside choices": (
        {"generator": "fork-join",
         "params": {"width": 2, "work": 8, "family": "general"}},
        "generator 'fork-join': param 'family' must be one of "
        "['binary', 'kway'], got 'general'"),
    "params not a mapping": (
        {"generator": "fork-join", "params": [["width", 2]]},
        "generator 'fork-join': params must be a mapping, got list"),
    "seed inside params": (
        {"generator": "staged-fork-join",
         "params": {"stage_widths": [2], "work": 8, "seed": 1}},
        "generator 'staged-fork-join': pass seeds through the spec's seed "
        "field, not inside params"),
    "malformed budget rule": (
        {**_FORK_JOIN, "budget_rule": ["const"]},
        "budget_rule must be a (name, value) pair, got ('const',)"),
    "unknown budget rule": (
        {**_FORK_JOIN, "budget_rule": ["fixed", 2]},
        "unknown budget rule 'fixed'; known: "
        "['const', 'makespan-factor', 'per-job']"),
    "non-numeric budget rule": (
        {**_FORK_JOIN, "budget_rule": ["const", "2"]},
        "budget rule 'const' needs a numeric value, got '2'"),
    "True as a budget": (
        {**_FORK_JOIN, "budget_rule": ["const", True]},
        "budget rule 'const' needs a numeric value, got True"),
    "negative budget rule": (
        {**_FORK_JOIN, "budget_rule": ["per-job", -1]},
        "budget rule 'per-job' needs a non-negative value"),
    "negative seed": (
        {**_STAGED, "seed": -3}, "seed must be a non-negative int, got -3"),
    "float seed": (
        {**_STAGED, "seed": 1.0}, "seed must be a non-negative int, got 1.0"),
    "True as a seed": (
        {**_STAGED, "seed": True}, "seed must be a non-negative int, got True"),
    "unknown objective": (
        {**_FORK_JOIN, "objective": "max_flow"},
        "unknown objective 'max_flow'; known: ['min_makespan', 'min_resource']"),
}


class TestExactValidationErrors:
    """Every rejected spec keeps its error text word for word (clients
    and logs match on it), however the checks are arranged."""

    @pytest.mark.parametrize("case", sorted(REJECTED_PAYLOADS))
    def test_rejected_payload(self, case):
        payload, text = REJECTED_PAYLOADS[case]
        with pytest.raises(ValidationError) as caught:
            ScenarioSpec.from_payload(payload)
        assert str(caught.value) == text

    def test_non_literal_option(self):
        with pytest.raises(ValidationError) as caught:
            spec_alias_key(PINNED_SPECS["fork-join"], probe=object(), alpha=0.5)
        assert str(caught.value) == (
            "spec-native requests need content-keyable options; pass only "
            "literal option values (str/int/float/bool/None and lists/tuples "
            "thereof) -- got ['alpha', 'probe']")


class TestWorkloadCatalog:
    def test_build_is_memoized_across_fingerprint_and_problem(self):
        workload = get_workload("small-layered-binary")
        dag = workload.build()
        assert workload.build() is dag
        assert workload.problem().dag is dag
        workload.fingerprint()
        assert workload.build() is dag

    def test_catalog_matches_direct_generators(self):
        from repro.engine.fingerprint import dag_fingerprint
        from repro.generators.random_dag import chain_dag, layered_random_dag

        assert (get_workload("medium-layered-kway").fingerprint()
                == dag_fingerprint(layered_random_dag(5, 6, family="kway",
                                                      seed=23)))
        assert (get_workload("deep-chain-binary").fingerprint()
                == dag_fingerprint(chain_dag([32, 16, 48, 24, 40, 56, 20, 36],
                                             family="binary")))

    def test_workloads_are_spec_backed(self):
        for name in workload_names():
            workload = get_workload(name)
            assert isinstance(workload.spec, ScenarioSpec)
            assert workload.spec.budget_rule == ("const", workload.budget)
            payload = workload.spec.to_payload()
            assert ScenarioSpec.from_payload(payload) == workload.spec
