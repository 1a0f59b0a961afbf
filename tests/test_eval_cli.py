"""Tests for the evaluation harness, reporting helpers, and the CLI."""

import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.eval import SCENARIOS, Workbench, render_matrix, render_table
from repro.eval.harness import _WORKBENCH_CACHE

REPO = Path(__file__).resolve().parent.parent


def documented_cli_commands():
    """``(label, argv)`` for every ``python -m repro.cli ...`` command in
    README.md and the CI workflows, cut at the first shell operator
    (redirect, pipe, background ``&``)."""
    sources = [REPO / "README.md",
               *sorted((REPO / ".github" / "workflows").glob("*.yml"))]
    commands = []
    for path in sources:
        text = path.read_text().replace("\\\n", " ")
        for line in text.splitlines():
            _, marker, rest = line.partition("-m repro.cli ")
            if not marker:
                continue
            argv = []
            # a backtick ends an inline-code command in prose
            for token in shlex.split(rest.split("`")[0], comments=True):
                if re.match(r"\d*[|&;<>]", token):
                    break
                argv.append(token)
            commands.append((f"{path.name}:{' '.join(argv)}", argv))
    return commands


DOCUMENTED_CLI_COMMANDS = documented_cli_commands()


class TestScenarios:
    def test_registry_covers_paper_workloads(self):
        assert "alexnet_imagenet" in SCENARIOS
        assert "resnet18_cifar" in SCENARIOS
        for name in ("resnet50_imagenet", "vgg_imagenet",
                     "densenet_imagenet", "inception_imagenet"):
            assert name in SCENARIOS  # the Sec. VII-H suite

    def test_scenario_builds_deterministically(self):
        scenario = SCENARIOS["alexnet_imagenet"]
        a = scenario.build_dataset()
        b = scenario.build_dataset()
        assert np.array_equal(a.x_train, b.x_train)


class TestWorkbench:
    def test_cached_instance(self):
        wb1 = Workbench.get("alexnet_imagenet")
        wb2 = Workbench.get("alexnet_imagenet")
        assert wb1 is wb2
        assert "alexnet_imagenet" in _WORKBENCH_CACHE

    def test_trains_to_usable_accuracy(self):
        wb = Workbench.get("alexnet_imagenet")
        assert wb.clean_accuracy > 0.8

    def test_attack_sets_cached_and_disjoint(self):
        wb = Workbench.get("alexnet_imagenet")
        fit = wb.attack_fit("fgsm")
        again = wb.attack_fit("fgsm")
        assert fit is again
        # fit and eval adversarial sets come from different samples
        ev = wb.attack_eval("fgsm")
        assert fit.x_adv.shape[0] == wb._fit_count
        assert ev.x_adv.shape[0] == wb._eval_count

    def test_detector_cached_per_variant(self):
        wb = Workbench.get("alexnet_imagenet")
        d1 = wb.detector("FwAb")
        d2 = wb.detector("FwAb")
        assert d1 is d2
        assert wb.detector("BwAb") is not d1

    def test_unknown_variant_rejected(self):
        wb = Workbench.get("alexnet_imagenet")
        with pytest.raises(ValueError):
            wb.config_for("NoSuchVariant")

    def test_variant_cost_sane(self):
        wb = Workbench.get("alexnet_imagenet")
        cost = wb.variant_cost("FwAb")
        assert cost.latency_overhead >= 1.0


class TestReporting:
    def test_render_table_aligns(self):
        text = render_table("title", ["a", "bb"], [(1, 2.5), ("xy", 3.25)])
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "2.500" in text and "xy" in text

    def test_render_table_empty_rows(self):
        text = render_table("t", ["col"], [])
        assert "col" in text

    def test_render_matrix(self):
        mat = np.array([[1.0, 0.25], [0.25, 1.0]])
        text = render_matrix("m", [0, 1], mat)
        assert "0.25" in text and "1.00" in text


class TestCli:
    def test_scenarios_command(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "alexnet_imagenet" in out

    def test_area_command(self, capsys):
        from repro.cli import main

        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "overhead_pct" in out

    def test_cost_command(self, capsys):
        from repro.cli import main

        assert main(["cost", "alexnet_imagenet", "--variant", "FwAb"]) == 0
        out = capsys.readouterr().out
        assert "latency overhead" in out

    def test_compile_command(self, capsys):
        from repro.cli import main

        assert main(["compile", "alexnet_imagenet"]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "sort" in out

    def test_train_profile_detect_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        model_path = tmp_path / "model.npz"
        det_path = tmp_path / "det"
        assert main(["train", "alexnet_imagenet", "--epochs", "4",
                     "--output", str(model_path)]) == 0
        assert main(["profile", "alexnet_imagenet",
                     "--model", str(model_path),
                     "--max-per-class", "8",
                     "--output", str(det_path)]) == 0
        assert main(["detect", "alexnet_imagenet",
                     "--model", str(model_path),
                     "--detector", str(det_path),
                     "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "flagged" in out

    def test_corrupt_command(self, capsys):
        from repro.cli import main

        assert main(["corrupt", "alexnet_imagenet", "--count", "6",
                     "--severities", "5"]) == 0
        out = capsys.readouterr().out
        assert "gaussian_noise" in out
        assert "prediction flips" in out

    def test_monitor_command(self, capsys):
        from repro.cli import main

        assert main(["monitor", "alexnet_imagenet", "--count", "6",
                     "--fast"]) == 0
        out = capsys.readouterr().out
        assert "deployed: threshold=" in out
        assert "rolling rejection rate" in out

    def test_explain_command(self, capsys):
        from repro.cli import main

        assert main(["explain", "alexnet_imagenet", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "benign input saliency" in out
        assert "adversarial input saliency" in out
        assert "divergent from the class canary" in out

    def test_defend_command(self, capsys):
        from repro.cli import main

        assert main(["defend", "alexnet_imagenet", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "robust accuracy before retraining" in out
        assert "robust accuracy after retraining" in out
        assert "handled combined" in out

    def test_unknown_scenario_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["train", "nope"])

    @pytest.mark.parametrize("command", ["serve", "throughput", "suite"])
    def test_pool_commands_have_no_backend_flag(self, command):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "alexnet_imagenet",
                               "--backend", "numpy"])

    def test_serve_has_no_slo_ms_flag(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "alexnet_imagenet",
                                       "--slo-ms", "50"])
        assert exc.value.code == 2

    def test_serve_keeps_slo_ms_default(self):
        """Not a flag: perfbench's HTTP workload reads this default from
        the serve parser and passes it to the service."""
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "alexnet_imagenet"])
        assert args.slo_ms is None

    def test_docs_and_ci_have_cli_commands(self):
        labels = [label for label, _ in DOCUMENTED_CLI_COMMANDS]
        assert any(label.startswith("README.md") for label in labels)
        assert any(label.startswith("ci.yml") for label in labels)

    @pytest.mark.parametrize(
        "argv",
        [argv for _, argv in DOCUMENTED_CLI_COMMANDS],
        ids=[label for label, _ in DOCUMENTED_CLI_COMMANDS],
    )
    def test_documented_command_parses(self, argv):
        """Every CLI command the README and CI show must parse (parse
        only: nothing runs)."""
        from repro.cli import build_parser

        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command does not parse: "
                        f"python -m repro.cli {shlex.join(argv)}")

    @pytest.mark.skipif(not Path("/proc/self/task").exists(),
                        reason="reads worker pids from /proc")
    def test_serve_http_sigterm_right_after_banner_stops_cleanly(self):
        """SIGTERM sent the moment the "serving ... on URL" banner
        arrives must drain and stop the pool: exit 0, "stopped
        cleanly", and no worker left running."""
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "alexnet_imagenet",
             "--http", "0", "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=repo, start_new_session=True,
        )
        try:
            for line in proc.stdout:
                if line.startswith("serving "):
                    break
            else:
                pytest.fail("serve exited before printing its banner")
            pid = proc.pid
            workers = open(f"/proc/{pid}/task/{pid}/children").read().split()
            proc.send_signal(signal.SIGTERM)
            output = proc.stdout.read()
            assert proc.wait(timeout=60) == 0, output
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert workers
        assert "stopped cleanly" in output

        def running(child):
            # a zombie awaiting its reaper has stopped running
            try:
                stat = Path(f"/proc/{child}/stat").read_text()
            except OSError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 10.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [child for child in workers if running(child)]
