"""Pinned sha256 digests of every CLI subcommand's artifacts.

Each run writes its artifacts into a fresh directory; every file except
`manifest.json` (which records the interpreter version) is hashed and the
digests are compared with values recorded from a known-good build.  The
exit code is pinned too, so a run that starts failing cannot pass by writing
nothing.  `validate` writes no file, so its stdout is hashed instead.  A
refactor that is meant to change no output must leave every digest here
unchanged.

To re-record after an intended output change, run this file as a script
(`PYTHONPATH=src python tests/test_golden.py`) and paste the printed tables.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from moranset.cli import main
from moranset.specs import preset_names

PL_MAP = "pl:0,0;1/2,1/3;1,1"

COMMANDS = {
    "build": ["build", "--depth", "3"],
    "dim": ["dim", "--depth", "12", "--t", "0.5"],
    "conditions": ["conditions", "--depth", "4"],
    "reconstruct": ["reconstruct", "--depth", "4"],
    "branches-explicit": ["branches", "--depth", "3", "--mode", "explicit"],
    "branches-auto": ["branches", "--depth", "3"],
    "branches-explicit-m2": ["branches", "--depth", "3", "--m-max", "2",
                             "--mode", "explicit"],
    "branches-auto-m2": ["branches", "--depth", "3", "--m-max", "2"],
    "qs-power": ["qs", "--depth", "3", "--map", "power:1/2", "--samples", "200"],
    "qs-power-d0.3": ["qs", "--depth", "3", "--map", "power:1/2", "--d", "0.3",
                      "--samples", "200"],
    "qs-pl": ["qs", "--depth", "3", "--map", PL_MAP, "--samples", "200"],
    "qs-affine": ["qs", "--depth", "3", "--map", "affine:3,-1", "--samples", "200"],
    "report-identity": ["report", "--depth", "3"],
    "report-power": ["report", "--depth", "3", "--qs", "power:2"],
    "audit-exhaustive": ["measure-audit", "--t", "0.3", "--k-hi", "3"],
    "audit-exhaustive-k1": ["measure-audit", "--t", "0.3", "--k-hi", "1"],
    "audit-sampled": ["measure-audit", "--t", "0.3", "--k-hi", "3",
                      "--mode", "sampled", "--samples", "100", "--threads", "2"],
    "conditions-deep": ["conditions", "--depth", "600"],
    "dim-deep": ["dim", "--depth", "600", "--t", "0.7"],
}

#: The level-4 endpoint pairs of wide10 and skew10 exceed the window budget.
#: The deep runs pin N_k and delta_k through level 600 where that is quick:
#: dim1_binary's denominators grow quadratically, and `conditions` on skew10
#: draws every parent's gaps.
DEEP = ("cantor3", "padded2", "wide10")
NARROW = {"audit-exhaustive": ("cantor3", "dim1_binary", "padded2"),
          "conditions-deep": DEEP, "dim-deep": DEEP}

CASES = [(name, p) for name in COMMANDS
         for p in NARROW.get(name, preset_names())]


def run_digests(name: str, preset: str, out: Path) -> tuple[int, dict[str, str]]:
    """Exit code and {artifact: sha256 prefix} of one CLI run into `out`."""
    args = COMMANDS[name] + ["--preset", preset, "--out", str(out)]
    res = CliRunner().invoke(main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        res.exception
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    return res.exit_code, digests


@pytest.mark.parametrize("name,preset", CASES)
def test_artifact_digests(name, preset, tmp_path):
    assert run_digests(name, preset, tmp_path) == GOLDEN[name, preset]


def _rule(kind, *values):
    return {"kind": kind, "values": list(values)}


def _config(n=_rule("constant", 2), c=_rule("constant", "1/3"),
            L=_rule("constant", "0"), R=_rule("constant", "0"),
            gaps={"kind": "uniform"}):
    return {"n": n, "c": c, "L": L, "R": R, "gaps": gaps}


#: `validate` writes no file, so its stdout and exit code are pinned: each
#: preset at the default depth, and configs that fail each level check.
VALIDATE_CONFIGS = {
    "n-one": _config(n=_rule("constant", 1)),
    "nc-ge-1": _config(n=_rule("constant", 3), c=_rule("constant", "1/2")),
    "L-negative": _config(L=_rule("periodic", "0", "-1/100")),
    "LR-past-slack": _config(L=_rule("constant", "1/5"), R=_rule("constant", "1/5")),
    # n_k = 2 gives one interior gap, weighted 0
    "weights-zero": _config(n=_rule("periodic", 3, 2), c=_rule("constant", "1/4"),
                            gaps={"kind": "weighted", "weights": ["0", "1"]}),
    # c_2 = 0 is rejected, so the slack of level 3, which reads delta_2, fails
    "c-rejected": _config(c=_rule("periodic", "1/3", "0")),
    # the prefix ends at level 3, so level 4 aborts with `error`
    "prefix-short": _config(n=_rule("explicit-prefix", 2, 3, 2)),
}
VALIDATE_CASES = [*preset_names(), *VALIDATE_CONFIGS]


def validate_digest(case: str, tmp_path: Path) -> tuple[int, str]:
    """Exit code and stdout sha256 prefix of `validate` on a preset (at the
    default depth) or a `VALIDATE_CONFIGS` entry (at depth 4)."""
    if case in VALIDATE_CONFIGS:
        cfg = tmp_path / f"{case}.json"
        cfg.write_text(json.dumps(VALIDATE_CONFIGS[case]))
        args = ["--config", str(cfg), "--depth", "4"]
    else:
        args = ["--preset", case]
    res = CliRunner().invoke(main, ["validate", *args])
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        res.exception
    return res.exit_code, hashlib.sha256(res.stdout.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_output(case, tmp_path):
    assert validate_digest(case, tmp_path) == VALIDATE[case]


GOLDEN = {
    ('build', 'cantor3'): (0, {'intervals.jsonl': '4f1a33f7dbb00c5a', 'levels.csv': '3fa20fa456f9ef67'}),
    ('build', 'dim1_binary'): (0, {'intervals.jsonl': '6d2ba1f02f332b9b', 'levels.csv': 'b94f6f700ea5957c'}),
    ('build', 'padded2'): (0, {'intervals.jsonl': '80626a10debc4dd2', 'levels.csv': 'c75b5e863a4c75fe'}),
    ('build', 'skew10'): (0, {'intervals.jsonl': 'fe153ee5c8b339bf', 'levels.csv': '631eb7720f9e75b3'}),
    ('build', 'wide10'): (0, {'intervals.jsonl': '98515953ac5c2526', 'levels.csv': '2afe9028aa45ee1e'}),
    ('dim', 'cantor3'): (0, {'cover.csv': '2cee0851fdcabc1b', 'dim.csv': '2757571112e52968'}),
    ('dim', 'dim1_binary'): (0, {'cover.csv': 'd46c2840baba384f', 'dim.csv': '6626878b50c9571d'}),
    ('dim', 'padded2'): (0, {'cover.csv': '19fb3ee4d1c7eb5d', 'dim.csv': '550a00aa43609e46'}),
    ('dim', 'skew10'): (0, {'cover.csv': '410d9ebe0eede041', 'dim.csv': '005238aa6f790590'}),
    ('dim', 'wide10'): (0, {'cover.csv': '410d9ebe0eede041', 'dim.csv': '005238aa6f790590'}),
    ('conditions', 'cantor3'): (0, {'conditions.json': '596ffd70687bbccb'}),
    ('conditions', 'dim1_binary'): (0, {'conditions.json': 'b75609009f4a4735'}),
    ('conditions', 'padded2'): (0, {'conditions.json': '5b35055c34cee2a2'}),
    ('conditions', 'skew10'): (0, {'conditions.json': 'bd7aae5fefa61dbc'}),
    ('conditions', 'wide10'): (0, {'conditions.json': '3dca3e9b9c5350af'}),
    ('reconstruct', 'cantor3'): (0, {'star.csv': '72dda0cccd525a68'}),
    ('reconstruct', 'dim1_binary'): (0, {'star.csv': '6a621cc2420ebcb0'}),
    ('reconstruct', 'padded2'): (0, {'star.csv': '1c19cd794bad5c88'}),
    ('reconstruct', 'skew10'): (0, {'star.csv': '8112f382cceda7ce'}),
    ('reconstruct', 'wide10'): (0, {'star.csv': 'f02ef2f1c759772d'}),
    ('branches-explicit', 'cantor3'): (0, {'branch_stats.csv': '8226d806cbe73b8e', 'branches.jsonl': '5278e87d1439f582', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-explicit', 'dim1_binary'): (0, {'branch_stats.csv': '397df3fd40c1bbbd', 'branches.jsonl': '9ba8aaa1356a792c', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-explicit', 'padded2'): (0, {'branch_stats.csv': '97610f95219cf36a', 'branches.jsonl': '24ffbbd6cdaa6931', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-explicit', 'skew10'): (0, {'branch_stats.csv': '15ac8b5a5534abeb', 'branches.jsonl': 'd3ccf86717fec279', 'schedule.csv': 'f4202b5307810ac7'}),
    ('branches-explicit', 'wide10'): (0, {'branch_stats.csv': '05b64be39529f827', 'branches.jsonl': '78c359874b55556a', 'schedule.csv': '592841c0aec38f96'}),
    ('branches-auto', 'cantor3'): (0, {'branch_stats.csv': '8226d806cbe73b8e', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-auto', 'dim1_binary'): (0, {'branch_stats.csv': '397df3fd40c1bbbd', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-auto', 'padded2'): (0, {'branch_stats.csv': '97610f95219cf36a', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-auto', 'skew10'): (0, {'branch_stats.csv': '15ac8b5a5534abeb', 'branches.jsonl': 'd3ccf86717fec279', 'schedule.csv': 'f4202b5307810ac7'}),
    ('branches-auto', 'wide10'): (0, {'branch_stats.csv': '05b64be39529f827', 'schedule.csv': '592841c0aec38f96'}),
    ('branches-explicit-m2', 'cantor3'): (0, {'branch_stats.csv': '5439222d5657c7ea', 'branches.jsonl': '65dbcdd2e5fa0170', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-explicit-m2', 'dim1_binary'): (0, {'branch_stats.csv': 'cdefb2e112ac38ca', 'branches.jsonl': 'b7df94284f537da0', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-explicit-m2', 'padded2'): (0, {'branch_stats.csv': 'dd6319707a32e501', 'branches.jsonl': '123e243bab13a94d', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-explicit-m2', 'skew10'): (0, {'branch_stats.csv': 'a92b3a42a66d5416', 'branches.jsonl': 'e2921315b57c2850', 'schedule.csv': 'f4202b5307810ac7'}),
    ('branches-explicit-m2', 'wide10'): (0, {'branch_stats.csv': '7d674eea2e8a4461', 'branches.jsonl': 'a99d26b78c061450', 'schedule.csv': '592841c0aec38f96'}),
    ('branches-auto-m2', 'cantor3'): (0, {'branch_stats.csv': '5439222d5657c7ea', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-auto-m2', 'dim1_binary'): (0, {'branch_stats.csv': 'cdefb2e112ac38ca', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-auto-m2', 'padded2'): (0, {'branch_stats.csv': 'dd6319707a32e501', 'schedule.csv': '5434cdb4c3c20003'}),
    ('branches-auto-m2', 'skew10'): (0, {'branch_stats.csv': 'a92b3a42a66d5416', 'branches.jsonl': 'e2921315b57c2850', 'schedule.csv': 'f4202b5307810ac7'}),
    ('branches-auto-m2', 'wide10'): (0, {'branch_stats.csv': '7d674eea2e8a4461', 'schedule.csv': '592841c0aec38f96'}),
    ('qs-power', 'cantor3'): (0, {'qs.json': '91357fa820098fbf', 'ratio.csv': '1e10efcaff17222f', 'stats.csv': '5e84a03c3b3576cf'}),
    ('qs-power', 'dim1_binary'): (0, {'qs.json': 'e1f776e69c7eb6de', 'ratio.csv': 'c81ffe863a8edf2c', 'stats.csv': '816727398d65f5c1'}),
    ('qs-power', 'padded2'): (0, {'qs.json': '37991102948f89f6', 'ratio.csv': '5c4d73380198eec6', 'stats.csv': 'a68443ca8946e0c5'}),
    ('qs-power', 'skew10'): (0, {'qs.json': '5e0baee43ba59c1a', 'ratio.csv': 'c6bc884c5e411a98', 'stats.csv': 'f611421bc6153984'}),
    ('qs-power', 'wide10'): (0, {'qs.json': '3c45dc82cd6575ae', 'ratio.csv': '5e0933718951307f', 'stats.csv': 'e759b712e74d5e10'}),
    ('qs-power-d0.3', 'cantor3'): (0, {'qs.json': '1f09daaa58c20c29', 'ratio.csv': '98bae949c6acf492', 'stats.csv': '5e84a03c3b3576cf'}),
    ('qs-power-d0.3', 'dim1_binary'): (0, {'qs.json': 'd6c29f1d39b14e8e', 'ratio.csv': '746323fde1dda6e3', 'stats.csv': '816727398d65f5c1'}),
    ('qs-power-d0.3', 'padded2'): (0, {'qs.json': '541edf5473d533ea', 'ratio.csv': 'ee3a51f2c7ad05c9', 'stats.csv': 'a68443ca8946e0c5'}),
    ('qs-power-d0.3', 'skew10'): (0, {'qs.json': '1ad004be3d862ff1', 'ratio.csv': 'fd23ee76834be407', 'stats.csv': 'f611421bc6153984'}),
    ('qs-power-d0.3', 'wide10'): (0, {'qs.json': 'e4a36fd49879155c', 'ratio.csv': 'd5534ea9c8cc0f6e', 'stats.csv': 'e759b712e74d5e10'}),
    ('qs-pl', 'cantor3'): (0, {'qs.json': 'e36f172625e9e076', 'ratio.csv': 'b2d7e7b7f42d18fb', 'stats.csv': '5e84a03c3b3576cf'}),
    ('qs-pl', 'dim1_binary'): (0, {'qs.json': 'e8ee0a84f89f8f0b', 'ratio.csv': 'b046fe71d60403b0', 'stats.csv': '816727398d65f5c1'}),
    ('qs-pl', 'padded2'): (0, {'qs.json': 'b70208deda7c8f62', 'ratio.csv': '09d1dedccd6dea50', 'stats.csv': 'a68443ca8946e0c5'}),
    ('qs-pl', 'skew10'): (0, {'qs.json': 'd855b2ba5b4af854', 'ratio.csv': 'fb522a4a9f78b1d7', 'stats.csv': 'f611421bc6153984'}),
    ('qs-pl', 'wide10'): (0, {'qs.json': '8e1bc9ac82813659', 'ratio.csv': '5854af4ad347e5a2', 'stats.csv': 'e759b712e74d5e10'}),
    ('qs-affine', 'cantor3'): (0, {'qs.json': '9c1afb9c910a964c', 'ratio.csv': 'c0dced099db342ec', 'stats.csv': '5e84a03c3b3576cf'}),
    ('qs-affine', 'dim1_binary'): (0, {'qs.json': '6a8eea07536a7264', 'ratio.csv': 'c1ea0ee5d47d4297', 'stats.csv': '816727398d65f5c1'}),
    ('qs-affine', 'padded2'): (0, {'qs.json': '84c749866e241201', 'ratio.csv': 'd25bb2464868cb72', 'stats.csv': 'a68443ca8946e0c5'}),
    ('qs-affine', 'skew10'): (0, {'qs.json': '9afcf324956ce0c2', 'ratio.csv': 'ea8327bcad49897d', 'stats.csv': 'f611421bc6153984'}),
    ('qs-affine', 'wide10'): (0, {'qs.json': 'ead99c3a87335236', 'ratio.csv': 'fa03e8edc1a84543', 'stats.csv': 'e759b712e74d5e10'}),
    ('report-identity', 'cantor3'): (0, {'report.json': 'f7c1d5420af0bed0'}),
    ('report-identity', 'dim1_binary'): (0, {'report.json': '4fc764ae580afa03'}),
    ('report-identity', 'padded2'): (0, {'report.json': 'b267842e7f0603a5'}),
    ('report-identity', 'skew10'): (0, {'report.json': 'ec1e65d2d2f2ec3c'}),
    ('report-identity', 'wide10'): (0, {'report.json': '8feeaa0fcae0af5f'}),
    ('report-power', 'cantor3'): (0, {'report.json': '34069d1d83a9bc44'}),
    ('report-power', 'dim1_binary'): (0, {'report.json': '265c1fd29961dfd2'}),
    ('report-power', 'padded2'): (0, {'report.json': '7a6c1d9fd39843a2'}),
    ('report-power', 'skew10'): (0, {'report.json': 'e93ae12eae92c466'}),
    ('report-power', 'wide10'): (0, {'report.json': '56468f9b9253c228'}),
    ('audit-exhaustive', 'cantor3'): (0, {'audit.json': '38baca15fc6630d4'}),
    ('audit-exhaustive', 'dim1_binary'): (0, {'audit.json': '7cef71fd76cbe393'}),
    ('audit-exhaustive', 'padded2'): (0, {'audit.json': '88fa9ba9908f627a'}),
    ('audit-exhaustive-k1', 'cantor3'): (0, {'audit.json': '546ce250f39c1238'}),
    ('audit-exhaustive-k1', 'dim1_binary'): (0, {'audit.json': 'ad0454c02fbb6e06'}),
    ('audit-exhaustive-k1', 'padded2'): (0, {'audit.json': '31011d80e10db922'}),
    ('audit-exhaustive-k1', 'skew10'): (0, {'audit.json': 'a8a9e64798354e09'}),
    ('audit-exhaustive-k1', 'wide10'): (0, {'audit.json': 'a06c69e3a7ccaa19'}),
    ('audit-sampled', 'cantor3'): (0, {'audit.json': '6e4f06d09b61bbdb'}),
    ('audit-sampled', 'dim1_binary'): (0, {'audit.json': '98b05321110b2117'}),
    ('audit-sampled', 'padded2'): (0, {'audit.json': 'c258e35e1b025d5d'}),
    ('audit-sampled', 'skew10'): (0, {'audit.json': '2534583d48238fb9'}),
    ('audit-sampled', 'wide10'): (0, {'audit.json': '2c06991bec8a73a9'}),
    ('conditions-deep', 'cantor3'): (0, {'conditions.json': '15508645c15a727f'}),
    ('conditions-deep', 'padded2'): (0, {'conditions.json': 'd9405f910d8bb67a'}),
    ('conditions-deep', 'wide10'): (0, {'conditions.json': 'd0064c1acbd6e614'}),
    ('dim-deep', 'cantor3'): (0, {'cover.csv': 'bc33d775613006bf', 'dim.csv': 'dc9d5acd075648a4'}),
    ('dim-deep', 'padded2'): (0, {'cover.csv': 'd8d414a733d775a2', 'dim.csv': '679f79c0f80f779a'}),
    ('dim-deep', 'wide10'): (0, {'cover.csv': 'e5b70617d7a79e54', 'dim.csv': '128ac4c1112d6796'}),
}


VALIDATE = {
    'cantor3': (0, '5242e383bb00910e'),
    'dim1_binary': (0, '10328943c1255695'),
    'padded2': (0, '0870b256e8913a39'),
    'skew10': (0, '4772ada9652d6a48'),
    'wide10': (0, 'f6eaa0fe8c042ddd'),
    'n-one': (5, '43beea597243664b'),
    'nc-ge-1': (5, '35189d3b1ea33d69'),
    'L-negative': (5, 'eaa6074f9d670530'),
    'LR-past-slack': (5, 'bb3489f59c26d48c'),
    'weights-zero': (5, '9771d450fa8f3687'),
    'c-rejected': (5, 'f29418ef2920bf21'),
    'prefix-short': (5, 'd836ba7e2f9b1441'),
}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for i, (name, preset) in enumerate(CASES):
            out = Path(tmp) / str(i)
            print(f"    ({name!r}, {preset!r}): {run_digests(name, preset, out)!r},")
        print("}")
        print("VALIDATE = {")
        for case in VALIDATE_CASES:
            print(f"    {case!r}: {validate_digest(case, Path(tmp))!r},")
        print("}")
