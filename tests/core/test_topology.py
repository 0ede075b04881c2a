"""The deployment plane: plan validation, persistence, CLI, compilation.

Validation is Table 1 in executable form — the plans that cannot exist
(an R-GMA aggregate information server, a collector answering queries)
must refuse to validate, and every named catalog plan must both
validate and compile onto a fresh run.
"""

import pytest

from repro.core.components import Role, System
from repro.core.runner import new_run
from repro.core.topology import (
    AggregateSpec,
    CollectorSpec,
    DeploymentPlan,
    DirectorySpec,
    Edge,
    EdgeKind,
    PlanError,
    ServerSpec,
    compile_plan,
)
from repro.core.topology import catalog, cli, planfile

# -- validation: Table 1 as code --------------------------------------------


def _mds_minimal(**overrides):
    fields = dict(
        system=System.MDS,
        name="t",
        nodes=(
            CollectorSpec("providers"),
            ServerSpec("gris", host="lucky7"),
        ),
        edges=(Edge(EdgeKind.COLLECTION, "providers", "gris"),),
        entry="gris",
    )
    fields.update(overrides)
    return DeploymentPlan(**fields)


class TestValidation:
    def test_minimal_plan_validates(self):
        _mds_minimal().validate()

    def test_rgma_has_no_aggregate_information_server(self):
        """Table 1's empty cell is an error, not a silent default."""
        plan = DeploymentPlan(
            system=System.RGMA,
            name="t",
            nodes=(AggregateSpec("agg", host="lucky0"),),
            entry="agg",
        )
        with pytest.raises(PlanError, match="Table 1"):
            plan.validate()

    def test_every_system_fills_its_table1_cells(self):
        """The non-empty Table-1 cells all validate as single-node plans."""
        cells = {
            System.MDS: (ServerSpec, AggregateSpec, DirectorySpec),
            System.RGMA: (ServerSpec, DirectorySpec),
            System.HAWKEYE: (ServerSpec, AggregateSpec, DirectorySpec),
        }
        for system, kinds in cells.items():
            for kind in kinds:
                plan = DeploymentPlan(
                    system=system, name="t", nodes=(kind("n", host="lucky0"),), entry="n"
                )
                plan.validate()

    def test_duplicate_node_names_rejected(self):
        plan = _mds_minimal(
            nodes=(ServerSpec("gris", host="lucky7"), ServerSpec("gris", host="lucky6")),
            edges=(),
        )
        with pytest.raises(PlanError, match="duplicate"):
            plan.validate()

    def test_unknown_testbed_host_rejected(self):
        plan = _mds_minimal(nodes=(ServerSpec("gris", host="lucky9"),), edges=())
        with pytest.raises(PlanError, match="unknown testbed host"):
            plan.validate()

    def test_uc_placement_accepted_and_checked(self):
        _mds_minimal(nodes=(ServerSpec("gris", host="uc:3"),), edges=()).validate()
        bad = _mds_minimal(nodes=(ServerSpec("gris", host="uc:x"),), edges=())
        with pytest.raises(PlanError, match="UC placement"):
            bad.validate()

    def test_entry_must_exist_and_serve(self):
        with pytest.raises(PlanError, match="no entry"):
            _mds_minimal(entry="").validate()
        with pytest.raises(PlanError, match="not a node"):
            _mds_minimal(entry="nope").validate()
        with pytest.raises(PlanError, match="collector"):
            _mds_minimal(entry="providers").validate()

    def test_edge_role_rules(self):
        # A collector cannot register with anything.
        plan = _mds_minimal(
            nodes=(
                CollectorSpec("providers"),
                ServerSpec("gris", host="lucky7"),
                DirectorySpec("giis", host="lucky0"),
            ),
            edges=(Edge(EdgeKind.REGISTRATION, "providers", "giis"),),
        )
        with pytest.raises(PlanError, match="source role"):
            plan.validate()

    def test_edge_endpoints_must_exist(self):
        plan = _mds_minimal(edges=(Edge(EdgeKind.COLLECTION, "providers", "ghost"),))
        with pytest.raises(PlanError, match="unknown node"):
            plan.validate()

    def test_replicas_must_be_positive(self):
        plan = _mds_minimal(nodes=(ServerSpec("gris", host="lucky7", replicas=0),), edges=())
        with pytest.raises(PlanError, match="replicas"):
            plan.validate()

    def test_hierarchy_plan_guards(self):
        with pytest.raises(ValueError):
            catalog.hierarchy_plan("rgma", 2, 2)  # Table 1: no aggregate
        with pytest.raises(ValueError):
            catalog.hierarchy_plan("mds", 0, 2)


# -- the catalog -------------------------------------------------------------


class TestCatalog:
    def test_every_entry_validates(self):
        for name, thunk in catalog.catalog_entries().items():
            plan = thunk()
            assert plan.validate() is plan, name

    def test_every_entry_compiles(self):
        """Compilation (no sim run) succeeds for the whole catalog."""
        from repro.sim.rpc import RetryPolicy

        for name, thunk in catalog.catalog_entries().items():
            plan = thunk()
            run = new_run(1)
            retry = RetryPolicy(max_attempts=2, rng=run.rng.stream("t", name))
            dep = compile_plan(
                plan, run, registration_retry=retry, advertise_retry=retry
            )
            assert dep.entry is not None, name
            assert dep.services, name

    def test_fault_targets_cover_the_server_under_study(self):
        plan = catalog.exp2_plan("mds-giis", 1)
        run = new_run(1)
        dep = compile_plan(plan, run)
        assert dep.fault_targets == [dep.entry]

    def test_hierarchy_plan_shapes(self):
        plan = catalog.hierarchy_plan("mds", 2, 4, 1)
        aggs = plan.nodes_by_role(Role.AGGREGATE_INFORMATION_SERVER)
        # 1 top + 4 leaf aggregates; 4 GRIS banks of 4.
        assert len(aggs) == 5
        banks = [n for n in plan.nodes_by_role(Role.INFORMATION_SERVER)]
        assert sum(n.replicas for n in banks) == 16


# -- persistence and the CLI -------------------------------------------------


class TestPlanfile:
    def test_round_trip(self):
        plan = catalog.exp2_plan("mds-giis", 1)
        again = planfile.loads(planfile.dumps(plan))
        assert again == plan
        again.validate()

    def test_round_trip_hierarchy(self):
        plan = catalog.hierarchy_plan("hawkeye", 2, 2, 1)
        assert planfile.loads(planfile.dumps(plan)) == plan

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"system": "nonesuch", "nodes": []}',
            '{"system": "MDS", "entry": "x", "nodes": [{"kind": "widget", "name": "x"}]}',
            '{"system": "MDS", "entry": "x", "nodes": [{"kind": "server", "name": "x", "bogus": 1}]}',
        ],
    )
    def test_malformed_input_is_a_plan_error(self, text):
        with pytest.raises(PlanError):
            planfile.loads(text)


class TestCli:
    def test_list_names_the_catalog(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper-testbed" in out
        assert "exp1-mds-gris-cache" in out

    def test_show_describes_a_plan(self, capsys):
        assert cli.main(["show", "paper-testbed"]) == 0
        out = capsys.readouterr().out
        assert "giis" in out
        assert "registration" in out

    def test_plan_export_and_check(self, tmp_path, capsys):
        target = tmp_path / "t.plan"
        assert cli.main(["plan", "deep-hierarchy", "-o", str(target)]) == 0
        assert cli.main(["check", str(target)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_flags_broken_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.plan"
        bad.write_text('{"system": "R-GMA", "entry": "agg", "nodes": []}')
        assert cli.main(["check", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_name_errors_cleanly(self, capsys):
        assert cli.main(["show", "nonesuch"]) == 1
        assert "error" in capsys.readouterr().err

    def test_committed_examples_validate(self, capsys):
        import pathlib

        examples = pathlib.Path(__file__).parents[2] / "examples"
        paths = sorted(str(p) for p in examples.glob("*.plan"))
        assert paths, "examples/*.plan missing"
        assert cli.main(["check", *paths]) == 0


# -- the scale sweep ---------------------------------------------------------


class TestScale:
    def test_depth_two_tree_answers_queries(self):
        from repro.core.experiments import scale

        point = scale.run_scale_point("mds", 2, 2, seed=1, warmup=5.0, window=10.0)
        assert point.servers == 4
        assert not point.result.crashed
        assert point.result.throughput > 0

    def test_table_renders_every_row(self):
        from repro.core.experiments import scale

        pts = [
            scale.run_scale_point("hawkeye", 1, 2, seed=1, warmup=5.0, window=10.0),
        ]
        table = scale.format_scale_table(pts)
        assert "hawkeye" in table and "ok" in table
