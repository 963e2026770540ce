import json

import numpy as np
import pytest

from lapcpd.cli import main
from lapcpd.detector import read_scores_csv
from lapcpd.generators import GenConfig
from lapcpd.schedules import dump_experiment_config
from lapcpd.generators import AnomalySchedule, SbmSegment


def small_config(tmp_path, n_nodes=24, n_views=1, seed=3, continuity=0.0):
    rows = [
        (0, "start", SbmSegment(2, 0.7, 0.1, 1)),
        (8, "change_point", SbmSegment(4, 0.7, 0.1, 1)),
        (14, "event", SbmSegment(2, 0.7, 0.5, 1)),
    ]
    schedule = AnomalySchedule.from_rows(rows, total=20)
    cfg = GenConfig(n_nodes=n_nodes, n_views=n_views, continuity=continuity, seed=seed)
    path = tmp_path / "exp.json"
    dump_experiment_config(schedule, cfg, path)
    return path


class TestGenerate:
    def test_writes_outputs_and_manifest(self, tmp_path, capsys):
        config = small_config(tmp_path)
        out = tmp_path / "run.csv"
        assert main(["generate", str(config), "--out", str(out)]) == 0
        assert out.exists()
        truth = tmp_path / "run.truth.csv"
        assert truth.read_text().splitlines()[0] == "t,kind"
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [str(out), str(truth)]
        assert manifest["version"]

    def test_seed_repeat_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", str(config), "--out", str(a), "--seed", "9"])
        main(["generate", str(config), "--out", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.truth.csv").read_bytes() == (tmp_path / "b.truth.csv").read_bytes()

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "total_steps": 10,
            "rows": [
                {"time": 0, "kind": "start", "model": "sbm",
                 "n_blocks": 2, "p_in": 0.1, "p_ex": 0.5},  # p_in < p_ex
            ],
        }))
        out = tmp_path / "x.csv"
        assert main(["generate", str(bad), "--out", str(out)]) == 2

    def test_io_failure_exit_3(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "no_such_dir" / "x.csv"
        assert main(["generate", str(config), "--out", str(out)]) == 3

    def test_pure_config_full_scale(self, tmp_path):
        # The reference pure setting: 151 steps, 7 planted change points.
        from lapcpd.schedules import pure_setting

        schedule, cfg = pure_setting(seed=1)
        config = tmp_path / "pure.json"
        dump_experiment_config(schedule, cfg, config)
        out = tmp_path / "pure.csv"
        assert main(["generate", str(config), "--out", str(out)]) == 0
        truth_rows = (tmp_path / "pure.truth.csv").read_text().splitlines()[1:]
        assert len(truth_rows) == 7
        times = {int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]}
        assert times == set(range(151))


@pytest.fixture()
def generated(tmp_path):
    config = small_config(tmp_path, n_views=2, seed=5)
    out = tmp_path / "data.csv"
    main(["generate", str(config), "--out", str(out)])
    return out, tmp_path / "data.truth.csv"


class TestDetect:
    def test_constant_graph_zero_scores(self, tmp_path):
        lines = [f"{t},0,0,1,1.0\n{t},0,1,2,1.0" for t in range(12)]
        data = tmp_path / "const.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "scores.csv"
        assert main(["detect", str(data), "--method", "lad", "--out", str(out),
                     "--ws", "3", "--wl", "5"]) == 0
        series = read_scores_csv(out)
        assert not series.z_star.any()

    def test_lad_scores(self, generated, tmp_path):
        data, _ = generated
        out = tmp_path / "scores.csv"
        assert main([
            "detect", str(data), "--method", "lad", "--out", str(out),
            "--ws", "3", "--wl", "5",
        ]) == 0
        series = read_scores_csv(out)
        assert len(series) == 20
        assert (tmp_path / "scores.manifest.json").exists()

    def test_multilad_cli_matches_library_call(self, generated, tmp_path):
        # End-to-end: CLI scores must equal the library pipeline bit for bit.
        data, _ = generated
        out = tmp_path / "multi.csv"
        assert main([
            "detect", str(data), "--method", "multilad", "--out", str(out),
            "--p", "-10", "--ws", "3", "--wl", "5", "--k", "full",
        ]) == 0
        from lapcpd.detector import DetectorConfig
        from lapcpd.graphs import parse_edge_stream
        from lapcpd.multiview import PowerMeanConfig, multilad_detect

        with open(data) as fh:
            graph = parse_edge_stream(fh)
        direct = multilad_detect(
            graph,
            DetectorConfig(w_short=3, w_long=5, laplacian="normalized"),
            PowerMeanConfig(-10.0),
            rng=0,
        )
        series = read_scores_csv(out)
        assert np.array_equal(series.z_star, direct.z_star)
        assert np.array_equal(series.z_short, direct.z_short)

    def test_dump_spectrum(self, generated, tmp_path):
        data, _ = generated
        out = tmp_path / "scores.csv"
        spectrum = tmp_path / "spectrum.csv"
        assert main([
            "detect", str(data), "--method", "multilad", "--out", str(out),
            "--ws", "3", "--wl", "5", "--dump-spectrum", str(spectrum),
        ]) == 0
        lines = spectrum.read_text().splitlines()
        assert lines[0].startswith("t,lambda_1")
        assert len(lines) == 21  # header + T rows

    def test_p_flag_only_for_multilad(self, generated, tmp_path):
        data, _ = generated
        out = tmp_path / "scores.csv"
        assert main([
            "detect", str(data), "--method", "lad", "--out", str(out), "--p", "-5",
        ]) == 2

    def test_dump_spectrum_only_for_multilad(self, generated, tmp_path):
        data, _ = generated
        out = tmp_path / "scores.csv"
        assert main([
            "detect", str(data), "--method", "activity", "--out", str(out),
            "--dump-spectrum", str(tmp_path / "s.csv"),
        ]) == 2

    def test_view_out_of_range(self, generated, tmp_path):
        data, _ = generated
        assert main([
            "detect", str(data), "--method", "lad", "--out",
            str(tmp_path / "s.csv"), "--view", "5",
        ]) == 2

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight_exit_2(self, tmp_path, capsys, weight):
        lines = [f"{t},0,0,1,1.0\n{t},0,1,2,1.0" for t in range(12)]
        lines[3] = f"3,0,0,1,{weight}"
        data = tmp_path / "bad.csv"
        data.write_text("# time,view,src,dst,weight\n" + "\n".join(lines) + "\n")
        assert main(["detect", str(data), "--method", "lad",
                     "--out", str(tmp_path / "s.csv"), "--ws", "3", "--wl", "5"]) == 2
        err = capsys.readouterr().err
        assert "line 8: weight must be finite" in err

    def test_unknown_method_exit_2(self, generated, tmp_path):
        data, _ = generated
        code = None
        try:
            code = main(["detect", str(data), "--method", "bogus",
                         "--out", str(tmp_path / "s.csv")])
        except SystemExit as exc:  # argparse rejects unknown choices
            code = exc.code
        assert code == 2


class TestEval:
    def test_end_to_end(self, generated, tmp_path, capsys):
        data, truth = generated
        scores = tmp_path / "scores.csv"
        main(["detect", str(data), "--method", "lad", "--out", str(scores),
              "--ws", "3", "--wl", "5"])
        assert main(["eval", str(scores), str(truth), "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "hits@2 =" in out
        report = (tmp_path / "scores.eval.csv").read_text().splitlines()
        assert report[0] == "n,hits,top_steps"

    def test_perfect_scores(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = ["t,z_short,z_long,z_star"]
        z = {5: 3.0, 11: 2.0}
        rows += [f"{t},0.0,0.0,{z.get(t, 0.0)!r}" for t in range(15)]
        scores.write_text("\n".join(rows) + "\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("t,kind\n5,event\n11,change_point\n")
        assert main(["eval", str(scores), str(truth), "--n", "2"]) == 0
        assert "hits@2 = 1.0" in capsys.readouterr().out

    def test_truth_order_irrelevant(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = ["t,z_short,z_long,z_star"]
        rows += [f"{t},0.0,0.0,{float(t == 4)!r}" for t in range(8)]
        scores.write_text("\n".join(rows) + "\n")
        for order in ("4,event\n6,event\n", "6,event\n4,event\n"):
            truth = tmp_path / "truth.csv"
            truth.write_text(order)
            main(["eval", str(scores), str(truth), "--n", "1"])
        outs = capsys.readouterr().out.splitlines()
        assert outs[0] == outs[2]  # same hits line either way

    def test_misaligned_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("t,z_short,z_long,z_star\n0,0.0,0.0,0.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("5,event\n")
        assert main(["eval", str(scores), str(truth)]) == 2


class TestBench:
    def test_sweep_option_normalization(self):
        from lapcpd.benchmarks import _as_scalar, _as_tuple

        assert _as_tuple(12, (3, 6)) == (12,)
        assert _as_tuple(None, (3, 6)) == (3, 6)
        assert _as_tuple([0.1, 0.2], ()) == (0.1, 0.2)
        assert _as_scalar((4,), 3) == 4
        with pytest.raises(ValueError):
            _as_scalar((1, 2), 3)

    def test_unknown_family_exit_2(self, tmp_path):
        code = None
        try:
            code = main(["bench", "nonsense"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--trials", "--seed", "--jobs", "--noise", "--views", "--cout", "--p"):
            assert flag in out
