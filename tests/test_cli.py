import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flowsparse.cli import main
from flowsparse.jsonio import load_net, save_net
from flowsparse.network import TerminalNetwork
from flowsparse.sampling import plan_oversampling

from conftest import child_env, skew_duality_gap


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def qb_graph(tmp_path):
    out = tmp_path / "g.json"
    rc = run(["gen", "--kind", "quasi-bipartite", "--k", "4", "--n", "25",
              "--seed", "1", "--out", out])
    assert rc == 0
    return out


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["gen", "--kind", "quasi-bipartite", "--k", "5",
                        "--n", "40", "--seed", "9", "--out", out]) == 0
        assert a.read_text() == b.read_text()

    def test_sp_emits_tree(self, tmp_path):
        g, t = tmp_path / "g.json", tmp_path / "t.json"
        assert run(["gen", "--kind", "sp", "--k", "4", "--leaves", "16",
                    "--seed", "2", "--out", g, "--sptree-out", t]) == 0
        tree = json.loads(t.read_text())
        assert tree["portals"] == ["s", "t"]

        def leaves(nd):
            if nd["type"] == "leaf":
                return 1
            return leaves(nd["left"]) + leaves(nd["right"])
        assert leaves(tree["root"]) == 16

    def test_bounded_component_w(self, tmp_path):
        from flowsparse.network import components
        g = tmp_path / "g.json"
        assert run(["gen", "--kind", "bounded-component", "--k", "3",
                    "--n", "20", "--w", "3", "--seed", "3", "--out", g]) == 0
        net = load_net(str(g))
        assert all(len(c) <= 3 for c in components(net, net.terminal_set))

    @pytest.mark.parametrize("kind", ["quasi-bipartite", "bounded-component",
                                      "treewidth"])
    def test_explicit_n_0_exit_2(self, kind, tmp_path, capsys):
        # --n 0 fell back to the default size and wrote that net
        g = tmp_path / "g.json"
        assert run(["gen", "--kind", kind, "--k", "3", "--n", "0",
                    "--out", g]) == 2
        assert "error: need k >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_written(self, qb_graph):
        manifest = json.loads(Path(f"{qb_graph}.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 1


# the sample forms of sparsify: vertex sampling, and components of up to
# three vertices
SAMPLE_FORMS = {"sample": ["--method", "sample"],
                "sample-w3": ["--method", "sample", "--w", "3"]}


class TestSparsifyVerify:
    def test_sample_roundtrip(self, qb_graph, tmp_path):
        h = tmp_path / "h.json"
        rep = tmp_path / "rep.json"
        assert run(["sparsify", "--method", "sample", "--M", "2", "--seed",
                    "7", "--graph", qb_graph, "--out", h]) == 0
        doc = json.loads(h.read_text())
        assert doc["meta"]["method"] == "sample"
        rc = run(["verify", "--g", qb_graph, "--gp", h, "--demands",
                  "random:5:1", "--claim", "4.0", "--out", rep])
        report = json.loads(rep.read_text())
        assert report["verdict"] in ("pass", "fail")
        assert rc in (0, 1)

    def test_ratio_method_verifies(self, qb_graph, tmp_path):
        h = tmp_path / "h.json"
        rep = tmp_path / "rep.json"
        assert run(["sparsify", "--method", "ratio", "--eps", "0.25",
                    "--graph", qb_graph, "--out", h]) == 0
        rc = run(["verify", "--g", qb_graph, "--gp", h, "--demands",
                  "disc:0.25:0.1", "--claim", "2.25", "--out", rep, "--cuts"])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["verdict"] == "pass"
        assert "cuts" in report

    def test_verify_failure_exit_code(self, qb_graph, tmp_path):
        g = load_net(str(qb_graph))
        bad = TerminalNetwork.make(
            g.vertices, g.terminals,
            [(u, v, c * 10) for u, v, c in g.edges])
        badp = tmp_path / "bad.json"
        save_net(bad, str(badp))
        rep = tmp_path / "rep.json"
        rc = run(["verify", "--g", qb_graph, "--gp", badp, "--demands",
                  "random:3:1", "--claim", "1.5", "--out", rep])
        assert rc == 1

    def test_terminal_mismatch_exit_2_before_any_lp(self, qb_graph, tmp_path,
                                                    monkeypatch, capsys):
        import flowsparse.lp

        def tripwire(*args, **kwargs):
            raise AssertionError("simplex_min ran for a candidate it rejects")
        other = tmp_path / "k3.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "3", "--n", "8",
                    "--seed", "1", "--out", other]) == 0
        capsys.readouterr()
        monkeypatch.setattr(flowsparse.lp, "simplex_min", tripwire)
        rc = run(["verify", "--g", qb_graph, "--gp", other, "--demands",
                  "random:5:1", "--claim", "1.5", "--out", tmp_path / "rep.json"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: terminal sets differ between base and candidate\n")

    def test_disconnected_candidate_exit_1(self, tmp_path):
        g, h, rep = tmp_path / "g.json", tmp_path / "h.json", tmp_path / "rep.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "5", "--n", "60",
                    "--seed", "1", "--out", g]) == 0
        assert run(["sparsify", "--method", "sample", "--M", "0.5", "--seed", "0",
                    "--graph", g, "--out", h]) == 0
        assert not load_net(str(h), allow_disconnected=True).is_connected()
        rc = run(["verify", "--g", g, "--gp", h, "--demands", "random:5:1",
                  "--claim", "1.5", "--out", rep])
        assert rc == 1

        def reject(name):
            raise ValueError(f"non-finite number {name} in the report")
        report = json.loads(rep.read_text(), parse_constant=reject)
        assert report["verdict"] == "fail" and report["lower"] is None

    def test_lp_solver_failure_exit_2(self, qb_graph, tmp_path, monkeypatch, capsys):
        import flowsparse.lp
        from flowsparse.lp import LPIterationLimit

        def stuck(*args, **kwargs):
            raise LPIterationLimit("no convergence in 0 pivots")
        monkeypatch.setattr(flowsparse.lp, "simplex_min", stuck)
        rc = run(["verify", "--g", qb_graph, "--gp", qb_graph, "--demands",
                  "random:2:1", "--claim", "1.5", "--out", tmp_path / "rep.json"])
        assert rc == 2
        assert "error: no convergence" in capsys.readouterr().err

    def test_duality_gap_above_tolerance_exit_2(self, qb_graph, tmp_path,
                                                monkeypatch, capsys):
        skew_duality_gap(monkeypatch)
        rc = run(["verify", "--g", qb_graph, "--gp", qb_graph, "--demands",
                  "random:2:1", "--claim", "1.5", "--out", tmp_path / "rep.json"])
        assert rc == 2
        assert "error: duality gap" in capsys.readouterr().err

    def test_demands_past_the_solver_scale_exit_2(self, tmp_path, capsys):
        """Demands 10^9 times the capacities leave column generation's
        lengths below its absolute tolerances; the weak-duality end of its
        bracket sees the pricing stop short, so the solve fails its
        certificate and no report is written."""
        import itertools
        import random
        g, d, rep = tmp_path / "g.json", tmp_path / "d.json", tmp_path / "rep.json"
        assert run(["gen", "--kind", "treewidth", "--k", "8", "--n", "50", "--w", "5",
                    "--seed", "0", "--out", g]) == 0
        rng = random.Random(0)
        d.write_text(json.dumps([
            {"s": s, "t": t, "d": rng.uniform(1e9, 5e9)}
            for s, t in itertools.combinations(json.loads(g.read_text())["terminals"], 2)]))
        rc = run(["verify", "--g", g, "--gp", g, "--demands", d, "--claim", "1",
                  "--out", rep])
        assert rc == 2
        assert "duality gap" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("form", sorted(SAMPLE_FORMS))
    def test_sampled_graph_is_strict_json(self, form, tmp_path):
        g, h = tmp_path / "g.json", tmp_path / "h.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "3", "--n", "8",
                    "--seed", "1", "--out", g]) == 0
        assert run(["sparsify", *SAMPLE_FORMS[form], "--M", "2", "--seed", "0",
                    "--graph", g, "--out", h]) == 0

        def reject(name):
            raise ValueError(f"non-finite number {name} in the graph")
        doc = json.loads(h.read_text(), parse_constant=reject)
        assert doc["meta"]["claimed_quality"] is None

    @pytest.mark.parametrize("M", ["nan", "inf"])
    @pytest.mark.parametrize("form", sorted(SAMPLE_FORMS))
    def test_non_finite_M_exit_2(self, form, M, tmp_path, capsys):
        # each kept every vertex, exited 0 and wrote NaN or Infinity into the
        # graph's meta and the manifest
        g, h = tmp_path / "g.json", tmp_path / "h.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "3", "--n", "8",
                    "--seed", "1", "--out", g]) == 0
        capsys.readouterr()
        assert run(["sparsify", *SAMPLE_FORMS[form], "--M", M,
                    "--graph", g, "--out", h]) == 2
        assert "error: oversampling factor must be positive and finite" in \
            capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.json", "g.json.manifest.json"]

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_ratio_eps_exit_2(self, eps, qb_graph, tmp_path, capsys):
        # a Fraction conversion failed first: "cannot convert NaN to integer
        # ratio"
        h = tmp_path / "h.json"
        capsys.readouterr()
        assert run(["sparsify", "--method", "ratio", "--eps", eps,
                    "--graph", qb_graph, "--out", h]) == 2
        assert "error: epsilon must be in (0, 1/3)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.json", "g.json.manifest.json"]

    def test_sample_reads_w(self, tmp_path):
        # --method sample ignored --w and refused every two-vertex component
        g, h = tmp_path / "g.json", tmp_path / "h.json"
        assert run(["gen", "--kind", "bounded-component", "--k", "4", "--n",
                    "20", "--w", "3", "--seed", "1", "--out", g]) == 0
        assert run(["sparsify", "--method", "sample", "--w", "3", "--M", "2",
                    "--seed", "3", "--graph", g, "--out", h]) == 0
        meta = json.loads(h.read_text())["meta"]
        assert meta["method"] == "sample" and meta["params"]["w"] == 3
        assert meta["notes"][0] == "component-level importance sampling"
        assert run(["sparsify", "--method", "sample", "--M", "2", "--seed",
                    "3", "--graph", g, "--out", h]) == 2

    def test_sample_w0_is_rejected_by_name(self, qb_graph, tmp_path, capsys):
        # w = 0 refused the first vertex as a component past w
        assert run(["sparsify", "--method", "sample", "--w", "0", "--M", "3",
                    "--graph", qb_graph, "--out", tmp_path / "h.json"]) == 2
        assert "error: w must be at least 1, not 0" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("random:x:1", "random spec is random:N:SEED"),
        ("disc:0.5:x", "disc spec is disc:EPS:ETA"),
        ("basis:x", "unknown demand spec 'basis:x'")])
    def test_malformed_spec_gets_its_usage(self, spec, message, qb_graph, tmp_path,
                                           capsys):
        # int("x") and float("x") ended in their bare messages, and basis:x
        # ran the basis demands
        assert run(["verify", "--g", qb_graph, "--gp", qb_graph, "--demands", spec,
                    "--claim", "1.5", "--out", tmp_path / "rep.json"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["verify", "--gp", "{g}", "--demands", "disc:1e-17:0.1", "--claim", "2"],
        ["sparsify", "--method", "clump", "--eps", "1e-17", "--demands",
         "random:3:1"],
        ["sparsify", "--method", "ratio", "--eps", "1e-17"]],
        ids=["disc", "clump", "ratio"])
    def test_eps_below_float_resolution_exit_2(self, args, qb_graph, tmp_path,
                                                capsys):
        # 1 + 1e-17 is 1.0, so log(1 + eps) is 0: each of these ended in a
        # ZeroDivisionError traceback with exit 1
        flag = "--g" if args[0] == "verify" else "--graph"
        argv = [a.format(g=qb_graph) for a in args]
        assert run(argv + [flag, qb_graph, "--out", tmp_path / "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: epsilon is too small: 1 + eps")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["verify", "--g", "{g}", "--gp", "{g}", "--claim", "2"],
        ["sparsify", "--method", "clump", "--eps", "0.1", "--graph", "{g}"]],
        ids=["verify", "clump"])
    def test_infinite_disc_eps_exit_2(self, args, qb_graph, tmp_path, capsys):
        # disc:inf:0.1 passed the eps > 0 check and built no demand, so both
        # exited 2 with "empty demand set"
        argv = [a.format(g=qb_graph) for a in args]
        assert run(argv + ["--demands", "disc:inf:0.1",
                           "--out", tmp_path / "out.json"]) == 2
        assert capsys.readouterr().err == (
            "error: need finite eps > 0 and eta in (0,1)\n")

    def test_sample_w1_is_the_default(self, qb_graph, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out, w in ((a, []), (b, ["--w", "1"])):
            assert run(["sparsify", "--method", "sample", *w, "--M", "3",
                        "--seed", "5", "--graph", qb_graph, "--out", out]) == 0
        assert a.read_text() == b.read_text()
        assert "w" not in json.loads(a.read_text())["meta"]["params"]

    def test_nan_claim_exit_2(self, qb_graph, tmp_path, capsys):
        # a NaN claim failed every comparison: verdict fail, exit 1
        rep = tmp_path / "rep.json"
        assert run(["verify", "--g", qb_graph, "--gp", qb_graph, "--demands",
                    "basis", "--claim", "nan", "--out", rep]) == 2
        assert "error: claimed quality is NaN" in capsys.readouterr().err
        assert not rep.exists()

    def test_every_written_file_is_strict_json(self, tmp_path):
        # an unused --eps nan and an infinite --claim reached the manifests
        # as NaN and Infinity, which strict JSON has no literal for
        g, bc = tmp_path / "g.json", tmp_path / "bc.json"
        commands = [
            ["gen", "--kind", "quasi-bipartite", "--k", "3", "--n", "8",
             "--seed", "1", "--out", g],
            ["gen", "--kind", "bounded-component", "--k", "3", "--n", "10",
             "--w", "2", "--seed", "1", "--out", bc],
            ["sparsify", "--method", "sample", "--eps", "nan", "--M", "2",
             "--graph", g, "--out", tmp_path / "s.json"],
            ["sparsify", "--method", "sample", "--w", "2", "--M", "2",
             "--graph", bc, "--out", tmp_path / "sg.json"],
            ["sparsify", "--method", "ratio", "--graph", g,
             "--out", tmp_path / "r.json"],
            ["verify", "--g", g, "--gp", g, "--demands", "basis", "--claim",
             "inf", "--cuts", "--out", tmp_path / "v.json"],
            ["sketch", "build", "--graph", g, "--eps", "0.45",
             "--out", tmp_path / "g.sk"],
        ]
        for args in commands:
            assert run(args) == 0, args

        def reject(name):
            raise ValueError(f"non-finite number {name}")
        docs = {p.name: json.loads(p.read_text(), parse_constant=reject)
                for p in tmp_path.iterdir()}
        assert sum(name.endswith(".manifest.json") for name in docs) == 7
        assert docs["s.json.manifest.json"]["parameters"]["eps"] is None
        assert docs["v.json.manifest.json"]["parameters"]["claim"] is None
        assert docs["v.json"]["claimed_quality"] is None

    def test_sp_on_non_sp_graph_exit_2(self, tmp_path):
        vs = ["a", "b", "c", "d"]
        edges = [(u, v, 1) for i, u in enumerate(vs) for v in vs[i + 1:]]
        net = TerminalNetwork.make(vs, ["a", "b"], edges)
        g = tmp_path / "k4.json"
        save_net(net, str(g))
        rc = run(["sparsify", "--method", "sp", "--graph", g,
                  "--out", tmp_path / "h.json"])
        assert rc == 2

    @staticmethod
    def _deep_path(tmp_path, n=1100):
        """A path on n vertices with terminals at its ends, whose SP tree is
        a chain of n - 2 series nodes, deeper than the recursion limit."""
        vs = [f"v{i:04d}" for i in range(n)]
        g = tmp_path / "path.json"
        save_net(TerminalNetwork.make(vs, [vs[0], vs[-1]],
                                      [(a, b, 1) for a, b in zip(vs, vs[1:])]), str(g))
        return g, vs

    def test_sp_tree_deeper_than_recursion_limit_exit_2(self, tmp_path, capsys):
        g, _ = self._deep_path(tmp_path)
        rc = run(["sparsify", "--method", "sp", "--graph", g,
                  "--out", tmp_path / "h.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_sp_tree_file_deeper_than_recursion_limit_exit_2(self, tmp_path, capsys):
        g, vs = self._deep_path(tmp_path)
        # written as a string: SpTree.to_json_dict recurses too
        leaf = '{{"type": "leaf", "u": "{}", "v": "{}", "cap": "1"}}'
        text = "".join(
            f'{{"type": "series", "u": "{vs[i]}", "v": "{vs[-1]}", '
            f'"middle": "{vs[i + 1]}", "left": {leaf.format(vs[i], vs[i + 1])}, '
            f'"right": ' for i in range(len(vs) - 2))
        text += leaf.format(vs[-2], vs[-1]) + "}" * (len(vs) - 2)
        t = tmp_path / "t.json"
        t.write_text('{"root": ' + text + "}")
        rc = run(["sparsify", "--method", "sp", "--graph", g, "--sptree", t,
                  "--out", tmp_path / "h.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_sp_pipeline(self, tmp_path):
        g, t, h, rep = (tmp_path / n for n in
                        ("g.json", "t.json", "h.json", "rep.json"))
        assert run(["gen", "--kind", "sp", "--k", "4", "--leaves", "12",
                    "--seed", "4", "--out", g, "--sptree-out", t]) == 0
        assert run(["sparsify", "--method", "sp", "--graph", g,
                    "--sptree", t, "--out", h]) == 0
        base = load_net(str(g))
        cand = load_net(str(h), allow_disconnected=True)
        assert set(cand.terminal_set) >= set(base.terminals)

    def test_treewidth_pipeline(self, tmp_path):
        g, td, h = (tmp_path / n for n in ("g.json", "td.json", "h.json"))
        assert run(["gen", "--kind", "treewidth", "--k", "5", "--n", "18",
                    "--w", "2", "--seed", "5", "--out", g,
                    "--tdec-out", td]) == 0
        assert run(["sparsify", "--method", "treewidth", "--graph", g,
                    "--tdec", td, "--leaf", "identity", "--out", h]) == 0
        doc = json.loads(h.read_text())
        assert doc["meta"]["method"] == "treewidth"


class TestBudgetExit:
    def test_clump_default_demands_over_budget_exit_3(self, tmp_path):
        # eps < 1/8 triggers the default demand-set path, whose dictionary
        # is far larger than the dual-solve budget
        g = tmp_path / "g.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "3", "--n",
                    "12", "--seed", "2", "--out", g]) == 0
        rc = run(["sparsify", "--method", "clump", "--eps", "0.1",
                  "--graph", g, "--out", tmp_path / "h.json"])
        assert rc == 3

    @staticmethod
    def _clump_default_demands(tmp_path, capsys, monkeypatch, k, n, seed):
        """Exit code and stderr of clump without --demands, with a tripwire
        on the float simplex: the default demand set is known to be too
        large before any LP."""
        import flowsparse.lp

        def tripwire(*args, **kwargs):
            raise AssertionError("simplex_min ran for a demand set it throws away")
        g = tmp_path / "g.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", k, "--n", n,
                    "--seed", seed, "--out", g]) == 0
        capsys.readouterr()
        monkeypatch.setattr(flowsparse.lp, "simplex_min", tripwire)
        rc = run(["sparsify", "--method", "clump", "--eps", "0.1",
                  "--graph", g, "--out", tmp_path / "h.json"])
        return rc, capsys.readouterr().err

    def test_clump_default_demands_at_k4_exit_3(self, tmp_path, capsys, monkeypatch):
        # at k = 4 the default dictionary is never an explicit grid
        rc, err = self._clump_default_demands(tmp_path, capsys, monkeypatch, 4, 12, 2)
        assert rc == 3
        assert err.startswith("budget exceeded: ") and "--demands" in err
        assert "hull" not in err and "core" not in err

    def test_clump_default_demands_at_k5_exit_3(self, tmp_path, capsys, monkeypatch):
        rc, err = self._clump_default_demands(tmp_path, capsys, monkeypatch, 5, 40, 1)
        assert rc == 3
        assert err.startswith("budget exceeded: ") and "--demands" in err


    @pytest.mark.parametrize("args, message", [
        (["verify", "--g", "{g}", "--gp", "{g}", "--demands", "disc:1e-15:0.1",
          "--claim", "2"], "epsilon 1e-15 gives more than 1000000 disc demands"),
        (["sparsify", "--method", "clump", "--eps", "1e-15", "--demands",
          "random:3:1", "--graph", "{g}"],
         "epsilon 1e-15 gives a length grid past 1000000 values"),
        (["sparsify", "--method", "ratio", "--eps", "1e-6", "--graph", "{g}"],
         "epsilon 1e-06 needs (1 + epsilon)**")],
        ids=["disc", "clump", "ratio"])
    def test_grid_past_the_budget_exit_3(self, args, message, qb_graph, tmp_path,
                                         capsys):
        # each built its grid (2.07e15 disc demands, as many Gamma exponents)
        # or a power of (1 + eps) of about 10^8 bits, and did not return
        out = tmp_path / "out.json"
        capsys.readouterr()
        start = time.process_time()
        assert run([a.format(g=qb_graph) for a in args] + ["--out", out]) == 3
        assert time.process_time() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"budget exceeded: {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.json", "g.json.manifest.json"]


class TestSketchCli:
    def test_build_and_query(self, tmp_path):
        g = tmp_path / "g.json"
        save_net(TerminalNetwork.make(["s", "t"], ["s", "t"],
                                      [("s", "t", 10)]), str(g))
        sk = tmp_path / "g.sk"
        assert run(["sketch", "build", "--graph", g, "--eps", "0.1",
                    "--out", sk]) == 0
        d = tmp_path / "d.json"
        d.write_text(json.dumps([{"s": "s", "t": "t", "d": 1.0}]))
        assert run(["sketch", "query", "--sk", sk, "--demand", d]) == 0

    @pytest.mark.parametrize("k, eps", [(2, 0.1), (3, 0.25)])
    def test_build_prints_the_storage_bound(self, k, eps, tmp_path, capsys):
        g, sk = tmp_path / "g.json", tmp_path / "g.sk"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", k, "--n", 8,
                    "--seed", "1", "--out", g]) == 0
        capsys.readouterr()
        assert run(["sketch", "build", "--graph", g, "--eps", eps, "--out", sk]) == 0
        m = re.search(r"with (\d+) entries \(log storage bound (\S+)\)$",
                      capsys.readouterr().out.strip())
        assert m, "no entry count and storage bound on the build line"
        entries, bound = int(m[1]), float(m[2])
        assert entries >= 1
        assert math.log(max(1, entries)) <= bound

    def test_k5_hull_answers_a_star_within_the_band(self, tmp_path, capsys):
        # a star at t3 meets its singleton cut; a hull without the terminal
        # cut rows answered 1 here, against lambda = 0.5206
        g, sk, d = tmp_path / "g.json", tmp_path / "g.sk", tmp_path / "d.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "5", "--n", "10",
                    "--seed", "10003", "--out", g]) == 0
        assert run(["sketch", "build", "--graph", g, "--eps", "0.25",
                    "--out", sk]) == 0
        d.write_text(json.dumps([
            {"s": "t0", "t": "t3", "d": 16.69}, {"s": "t1", "t": "t3", "d": 11.38},
            {"s": "t2", "t": "t3", "d": 1.37}, {"s": "t3", "t": "t4", "d": 11.24}]))
        capsys.readouterr()
        assert run(["sketch", "query", "--sk", sk, "--demand", d]) == 0
        answer = float(capsys.readouterr().out.split()[0])
        assert 0.5206 / 1.25 <= answer <= 0.5206 * 1.25

    def test_tiny_demand_exit_2(self, tmp_path, capsys):
        # max flow / 1e-320 overflows to inf before the grid exponents
        g, sk, d = tmp_path / "g.json", tmp_path / "g.sk", tmp_path / "d.json"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "3", "--n", "6",
                    "--seed", "1", "--out", g]) == 0
        capsys.readouterr()
        assert run(["sketch", "build", "--graph", g, "--eps", "0.25",
                    "--out", sk]) == 0
        assert ": GridCore with " in capsys.readouterr().out
        s, t = load_net(str(g)).terminals[:2]
        d.write_text(json.dumps([{"s": s, "t": t, "d": 1e-320}]))
        capsys.readouterr()
        assert run(["sketch", "query", "--sk", sk, "--demand", d]) == 2
        err = capsys.readouterr().err
        assert "error: query demand is too small" in err
        assert "Traceback" not in err

    def test_eps_below_float_resolution_exit_2(self, tmp_path, capsys):
        # 1 + 1e-16/4 is 1.0, so the grid base has log 0; this build ended
        # in a ZeroDivisionError traceback
        g, sk = tmp_path / "g.json", tmp_path / "g.sk"
        assert run(["gen", "--kind", "quasi-bipartite", "--k", "3", "--n", "6",
                    "--seed", "1", "--out", g]) == 0
        capsys.readouterr()
        assert run(["sketch", "build", "--graph", g, "--eps", "1e-16",
                    "--out", sk]) == 2
        err = capsys.readouterr().err
        assert "error: epsilon is too small" in err
        assert "Traceback" not in err


MALFORMED_DEMANDS = {
    "row-without-d": [{"s": "s", "t": "t"}],
    "list-of-numbers": [1, 2, 3],
    # sketch query printed nothing and exited 0 on this file
    "empty-list": [],
    # this and the malformed values below exited 2 with a bare message
    "d-not-a-number": [{"s": "s", "t": "t", "d": "abc"}],
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_DEMANDS))
def test_malformed_demand_file_exit_2(kind, tmp_path, capsys):
    g, sk, d = tmp_path / "g.json", tmp_path / "g.sk", tmp_path / "d.json"
    save_net(TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)]), str(g))
    d.write_text(json.dumps(MALFORMED_DEMANDS[kind]))
    assert run(["sketch", "build", "--graph", g, "--eps", "0.1", "--out", sk]) == 0
    capsys.readouterr()
    for args in (["verify", "--g", g, "--gp", g, "--demands", d, "--claim", "1.5",
                  "--out", tmp_path / "rep.json"],
                 ["sketch", "query", "--sk", sk, "--demand", d]):
        assert run(args) == 2
        assert "error: malformed demand file" in capsys.readouterr().err


MALFORMED_SKETCHES = {
    "no-core": {"version": 2},
    "json-list": [1, 2],
    # 1 + 1e-17 is 1.0: loading this ended in a ZeroDivisionError traceback
    "eps-internal-below-float-resolution": {
        "version": 2, "epsilon": 4e-17, "eps_internal": 1e-17,
        "terminals": ["s", "t"], "pairs": [["s", "t"]], "maxflows": [10.0],
        "rows": [[0.1]]},
    "rows-ragged": {
        "version": 2, "epsilon": 0.25, "eps_internal": 0.0625,
        "terminals": ["s", "t"], "pairs": [["s", "t"]], "maxflows": [10.0],
        "rows": [[0.1], [0.1, 0.2]]},
    "row-entry-not-a-number": {
        "version": 2, "epsilon": 0.25, "eps_internal": 0.0625,
        "terminals": ["s", "t"], "pairs": [["s", "t"]], "maxflows": [10.0],
        "rows": [["abc"]]},
    "pair-of-one-name": {
        "version": 2, "epsilon": 0.25, "eps_internal": 0.0625,
        "terminals": ["s", "t"], "pairs": [["s"]], "maxflows": [10.0],
        "rows": [[0.1]]},
    "epsilon-not-a-number": {
        "version": 2, "epsilon": "x", "eps_internal": 0.0625,
        "terminals": ["s", "t"], "pairs": [["s", "t"]], "maxflows": [10.0],
        "rows": [[0.1]]},
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_SKETCHES))
def test_malformed_sketch_file_exit_2(kind, tmp_path, capsys):
    sk, d = tmp_path / "g.sk", tmp_path / "d.json"
    sk.write_text(json.dumps(MALFORMED_SKETCHES[kind]))
    d.write_text(json.dumps([{"s": "s", "t": "t", "d": 1.0}]))
    assert run(["sketch", "query", "--sk", sk, "--demand", d]) == 2
    assert "error: malformed sketch JSON" in capsys.readouterr().err


def test_directory_as_graph_exit_2(tmp_path, capsys):
    # open() on a directory raised IsADirectoryError, a traceback and exit 1
    rc = run(["sparsify", "--method", "sp", "--graph", tmp_path,
              "--out", tmp_path / "h.json"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify", "sketch-query"])
def test_demand_file_deeper_than_recursion_limit_exit_2(command, tmp_path, capsys):
    # json.load raised RecursionError, a traceback and exit 1
    g, sk, d = tmp_path / "g.json", tmp_path / "g.sk", tmp_path / "d.json"
    save_net(TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)]), str(g))
    d.write_text("[" * 1100 + "]" * 1100)
    if command == "verify":
        args = ["verify", "--g", g, "--gp", g, "--demands", d, "--claim", "1.5",
                "--out", tmp_path / "rep.json"]
    else:
        assert run(["sketch", "build", "--graph", g, "--eps", "0.1",
                    "--out", sk]) == 0
        args = ["sketch", "query", "--sk", sk, "--demand", d]
    capsys.readouterr()
    rc = run(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _cut_to_one(key):
    def edit(doc):
        doc[key] = doc[key][:1]
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_rows(value):
    def edit(doc):
        doc["rows"] = [[value(x) for x in row] for row in doc["rows"]]
    return edit


# Edits that leave a built k = 3 grid sketch parseable but inconsistent.
# Before these were checked, "maxflows-short" exited 1 on an IndexError, and
# negated or zeroed rows answered with exit 0 and a wrong value (on a k = 4
# hull, x2.73 of lambda for the all-pairs unit demand).
INCONSISTENT_SKETCHES = {
    "pairs-not-terminal-pairs": _set("pairs", [["t0", "t1"], ["t1", "t2"], ["t0", "t2"]]),
    "maxflows-short": _cut_to_one("maxflows"),
    "maxflow-zero": _set("maxflows", [0.0, 1.0, 1.0]),
    "eps-internal-zero": _set("eps_internal", 0.0),
    "rows-too-narrow": _set("rows", [[1.0, 1.0]]),
    "rows-empty": _set("rows", []),
    "rows-negative": _set_rows(lambda x: -x),
    "rows-zero": _set_rows(lambda x: 0.0),
    "rows-nan": _set_rows(lambda x: math.nan),
    "version-1": _set("version", 1),
}


@pytest.fixture(scope="module")
def k3_grid_sketch():
    from flowsparse.generators import gen_quasi_bipartite
    from flowsparse.sketch import GridCore, build_sketch
    sk = build_sketch(gen_quasi_bipartite(3, 6, seed=1), 0.45)
    assert isinstance(sk.core, GridCore) and sk.pairs[0] == ("t0", "t1")
    return json.dumps(sk.to_json_dict())


@pytest.mark.parametrize("kind", sorted(INCONSISTENT_SKETCHES))
def test_inconsistent_sketch_file_exit_2(kind, k3_grid_sketch, tmp_path, capsys):
    sk, d = tmp_path / "g.sk", tmp_path / "d.json"
    d.write_text(json.dumps([{"s": "t0", "t": "t1", "d": 1.0}]))
    sk.write_text(k3_grid_sketch)
    assert run(["sketch", "query", "--sk", sk, "--demand", d]) == 0
    capsys.readouterr()
    doc = json.loads(k3_grid_sketch)
    INCONSISTENT_SKETCHES[kind](doc)
    sk.write_text(json.dumps(doc))
    assert run(["sketch", "query", "--sk", sk, "--demand", d]) == 2
    message = ("unsupported sketch version; rebuild the sketch" if kind == "version-1"
               else "malformed sketch JSON")
    assert f"error: {message}" in capsys.readouterr().err


MALFORMED_STRUCTURES = {
    "tdec-without-edges": ("treewidth", "--tdec", {"bags": [["a"]]},
                           "malformed tree decomposition JSON"),
    "sptree-leaf-without-u": ("sp", "--sptree", {"root": {"type": "leaf"}},
                              "malformed SP-tree JSON"),
    "tdec-edge-to-missing-bag": ("treewidth", "--tdec",
                                 {"bags": [["s", "t"]], "edges": [[0, 999]]},
                                 "malformed tree decomposition"),
    "sptree-unknown-node-type": ("sp", "--sptree", {"root": {
        "type": "serial", "u": "s", "v": "t",
        "left": {"type": "leaf", "u": "s", "v": "t", "cap": "4"},
        "right": {"type": "leaf", "u": "s", "v": "t", "cap": "6"}}},
        "malformed SP-tree JSON: node type 'serial'"),
    # these three exited 2 with a bare message
    "tdec-edge-of-names": ("treewidth", "--tdec",
                           {"bags": [["s", "t"]], "edges": [["a", "b"]]},
                           "malformed tree decomposition JSON"),
    "tdec-edge-of-one-bag": ("treewidth", "--tdec", {"bags": [["s", "t"]], "edges": [[0]]},
                             "malformed tree decomposition JSON"),
    "sptree-cap-not-a-number": ("sp", "--sptree", {"root": {
        "type": "leaf", "u": "s", "v": "t", "cap": "abc"}}, "malformed SP-tree JSON"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_STRUCTURES))
def test_malformed_structure_file_exit_2(kind, tmp_path, capsys):
    method, flag, doc, message = MALFORMED_STRUCTURES[kind]
    g, f = tmp_path / "g.json", tmp_path / "f.json"
    save_net(TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)]), str(g))
    f.write_text(json.dumps(doc))
    rc = run(["sparsify", "--method", method, "--graph", g, flag, f,
              "--out", tmp_path / "h.json"])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


NON_FINITE_CAPS = ["Infinity", "1e400"]


@pytest.mark.parametrize("cap", NON_FINITE_CAPS)
def test_non_finite_capacity_exit_2(cap, tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"vertices": ["s", "t"], "terminals": ["s", "t"], '
                 '"edges": [{"u": "s", "v": "t", "cap": %s}]}' % cap)
    rc = run(["sketch", "build", "--graph", g, "--eps", "0.1",
              "--out", tmp_path / "g.sk"])
    assert rc == 2
    assert "error: capacity inf is not a finite number" in capsys.readouterr().err


def test_zero_denominator_capacity_exit_2(tmp_path, capsys):
    # Fraction("1/0") raised ZeroDivisionError: a traceback and exit 1
    g = tmp_path / "zero.json"
    g.write_text(json.dumps({"vertices": ["s", "t"], "terminals": ["s", "t"],
                             "edges": [{"u": "s", "v": "t", "cap": "1/0"}]}))
    rc = run(["sketch", "build", "--graph", g, "--eps", "0.1", "--out", tmp_path / "g.sk"])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert "error: capacity '1/0' is not a finite number on 's'-'t'" in err


@pytest.mark.parametrize("where", ["terminals", "pairs"])
def test_sketch_name_not_a_string_exit_2(where, k3_grid_sketch, tmp_path, capsys):
    # a terminal 7 raised TypeError from the pair check: a traceback and exit 1
    sk, d = tmp_path / "g.sk", tmp_path / "d.json"
    doc = json.loads(k3_grid_sketch)
    doc[where][0] = 7 if where == "terminals" else [7, "t1"]
    sk.write_text(json.dumps(doc))
    d.write_text(json.dumps([{"s": "t0", "t": "t1", "d": 1.0}]))
    rc = run(["sketch", "query", "--sk", sk, "--demand", d])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert "error: malformed sketch JSON: terminals and pairs must hold strings" in err


NON_FINITE_DEMANDS = ["NaN", "Infinity"]


@pytest.mark.parametrize("value", NON_FINITE_DEMANDS)
def test_non_finite_demand_exit_2(value, tmp_path, capsys):
    g, sk, d = tmp_path / "g.json", tmp_path / "g.sk", tmp_path / "d.json"
    save_net(TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)]), str(g))
    d.write_text('[{"s": "s", "t": "t", "d": %s}]' % value)
    assert run(["sketch", "build", "--graph", g, "--eps", "0.1", "--out", sk]) == 0
    capsys.readouterr()
    for args in (["verify", "--g", g, "--gp", g, "--demands", d, "--claim", "1.5",
                  "--out", tmp_path / "rep.json"],
                 ["sketch", "query", "--sk", sk, "--demand", d]):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "error: demand on ('s', 't') is not a finite number" in err
        assert "Traceback" not in err


# Finite capacities whose sums or ratios leave the float range: the max flow
# here is 2e308.  Before OverflowError was an input error, each of these
# exited 1 with a traceback.
FLOAT_OVERFLOW_COMMANDS = {
    "sketch-build": ["sketch", "build", "--eps", "0.3", "--graph", "{g}"],
    "verify-basis": ["verify", "--demands", "basis"],
    "verify-file": ["verify", "--demands", "{d}"],
    "verify-disc": ["verify", "--demands", "disc:0.3:0.1"],
}


@pytest.mark.parametrize("command", sorted(FLOAT_OVERFLOW_COMMANDS))
def test_float_overflow_exit_2(command, tmp_path, capsys):
    g, d, out = tmp_path / "g.json", tmp_path / "d.json", tmp_path / "out.json"
    save_net(TerminalNetwork.make(["s", "t", "v"], ["s", "t"], [
        ("s", "t", 1e308), ("s", "v", 1e308), ("v", "t", 1e308)]), str(g))
    d.write_text(json.dumps([{"s": "s", "t": "t", "d": 1.0}]))
    args = [a.format(g=g, d=d) for a in FLOAT_OVERFLOW_COMMANDS[command]]
    if args[0] == "verify":
        args += ["--g", g, "--gp", g, "--claim", "1.5"]
    rc = run(args + ["--out", out])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "between s and t is past the float range" in err
    assert "Traceback" not in err


def test_float_overflow_of_a_terminal_cut_exit_2(tmp_path, capsys):
    # every max flow fits a float; the cut around a is 2e308
    g = tmp_path / "g.json"
    save_net(TerminalNetwork.make(["a", "b", "c"], ["a", "b", "c"], [
        ("a", "b", 1e308), ("a", "c", 1e308), ("b", "c", 1)]), str(g))
    rc = run(["sketch", "build", "--eps", "0.3", "--graph", g,
              "--out", tmp_path / "g.sk"])
    assert rc == 2
    assert "error: min cut between a and b,c is past the float range" in (
        capsys.readouterr().err)


def test_float_overflow_net_is_accepted_by_exact_commands(tmp_path):
    # the range check sits at the float conversions, not at construction
    g, out = tmp_path / "g.json", tmp_path / "h.json"
    save_net(TerminalNetwork.make(["s", "t", "v"], ["s", "t"], [
        ("s", "t", 1e308), ("s", "v", 1e308), ("v", "t", 1e308)]), str(g))
    assert run(["sparsify", "--method", "sp", "--graph", g, "--out", out]) == 0


class TestPlan:
    def test_prints_m(self, capsys):
        assert run(["plan", "--eps", "0.5", "--k", "5", "--fail", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "M " in out and "predicted failure" in out
        # acceptance 3's M, to the bit
        assert plan_oversampling(0.5, 5, 0.1).M == 11662.687043232918

    def test_eps_below_float_resolution_exit_2(self, capsys):
        # log(1 + 1e-17) is 0: a ZeroDivisionError traceback with exit 1
        assert run(["plan", "--eps", "1e-17", "--k", "5", "--fail", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "error: eps is too small: 1 + eps rounds to 1\n")

    @pytest.mark.parametrize("eps, k", [(0.5, 23), (0.1, 19), (0.012, 15)])
    def test_family_past_the_float_range_exit_2(self, eps, k, capsys):
        # per_coord ** pairs overflowed at the first two, printing
        # "error: (34, 'Numerical result out of range')"; at the third the
        # union count overflowed to inf and M was printed as inf
        assert run(["plan", "--eps", eps, "--k", k, "--fail", "0.1"]) == 2
        assert capsys.readouterr().err == (
            f"error: k = {k} at eps = {eps} puts the demand family's size "
            "past the float range\n")


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "flowsparse.cli", "plan",
                           "--eps", "0.5", "--k", "4", "--fail", "0.1"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "M " in proc.stdout
