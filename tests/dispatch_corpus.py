"""The dispatch corpus: every CLI verb over the fixture_generate seeds 0-49.

    PYTHONPATH=src python tests/dispatch_corpus.py OUT

writes the inputs under OUT/inputs and one record per invocation to
OUT/reports.txt: the argv, the exit code, and the report (the JSON report
without its ``timing_ms`` field, or the --csv table).  Every invocation runs
once as JSON and once with --csv.  The inputs are fixture_generate files,
files built from them (CSV copies, probe files, product specs, product
matrices and extracted combiners), each of those after three seeded mutations
(:func:`mutated`), and the fixed MALFORMED files.  Paths in the records are
relative to OUT/inputs, so the whole dispatch diff of a change is: run this
script once per tree, each with that tree's ``src`` on PYTHONPATH, and
``diff`` the two reports.txt files.  It takes a few seconds, and prints the
record count and the count of each exit code to stderr.

The mutation helpers are also read by ``test_loader_fuzz.py``; pytest does not
collect this file.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from isoprod.fixtures import fixture_generate
from isoprod.verbs import dispatch, render

SEEDS = range(50)
COMBINERS = ("SUM", "MAX", "SQRT_SUM_SQ", "CAPPED_SUM", "SQUARE_SUM")
GRID_COMBINERS = ("SUM", "MAX", "CAPPED_SUM", "SQUARE_SUM")
DELETE = object()  # a mutation that deletes the key or item
# a value of every JSON type, for a swap at any path
SWAPS = ({}, [], 0, 2, -1, "", "x", "1/2", True, False, None, 1.5)

# the file kinds, each with the verbs that read it ({} is the file, {probe} a point of its dimension)
READERS = {
    "function": (["check", "--function", "{}"], ["envelope", "--function", "{}", "--probe", "{probe}"]),
    "csv": (["check", "--function", "{}"], ["extend-amenable", "--function", "{}", "--probe", "{probe}"]),
    "probes": (["extend-sup", "--function", "{function}", "--probes", "{}"],),
    "space": (["verify-metric", "--space", "{}"],
              ["product", "--factor", "{}", "--factor", "{space}", "--combiner", "SUM", "--verify"]),
    "matrix": (["verify-metric", "--space", "{}"],
               ["extract", "--product", "{}", "--factor", "{space}", "--factor", "{space_b}"]),
    "grid": (["omega", "--grid", "{}", "--eps", "{probe}"], ["lemma42", "--grid", "{}"]),
    "set": (["universal", "search", "--set", "{}", "--a", "1/3", "--b", "1/3"], ["embed", "--set", "{}"]),
    "spec": (["product", "--spec", "{}", "--verify"],),
    "combiner": (["product", "--factor", "{space}", "--factor", "{space_b}", "--combiner-file", "{}"],),
}


def json_paths(value, path=()):
    """Every path into a JSON value, as key and index tuples; the whole value's path is ()."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_paths(child, (*path, key))


def value_at(data, path):
    for key in path:
        data = data[key]
    return data


def replacements(value) -> list:
    """What a mutation may put in place of value: another JSON type, and for an integer
    a float, a boolean or a string of the same number."""
    swaps = [v for v in SWAPS if type(v) is not type(value)]
    if type(value) is int:
        swaps += [value + 0.9, float(value), value == 1, str(value)]
    return [*swaps, DELETE]


def mutated(data, path, replacement):
    """A copy of data with the value at path (not ()) replaced, or deleted for DELETE."""
    data = copy.deepcopy(data)
    parent = value_at(data, path[:-1])
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return data


def mutated_csv(text: str, rng: random.Random) -> str:
    """The CSV text with one cell replaced, dropped or doubled, or a row cut short."""
    rows = [line.split(",") for line in text.splitlines()]
    row = rng.randrange(len(rows))
    cell = rng.randrange(len(rows[row]))
    kind = rng.choice(("replace", "drop", "double", "cut"))
    if kind == "replace":
        rows[row][cell] = rng.choice(("", "x", "true", "1.5", "-1", "1/0", "2.0", " 1/2 "))
    elif kind == "drop":
        del rows[row][cell]
    elif kind == "double":
        rows[row].insert(cell, rows[row][cell])
    else:
        rows[row] = rows[row][:1]
    return "".join(",".join(r) + "\n" for r in rows)


def csv_of(function_file: Path) -> str:
    data = json.loads(function_file.read_text(encoding="utf-8"))
    return "".join(",".join([*e["point"], e["value"]]) + "\n" for e in data["entries"])


def probe_of(dim: int, rng: random.Random) -> str:
    return "(" + ",".join(rng.choice(("0", "1/2", "1", "2")) for _ in range(dim)) + ")"


def write(path: Path, data) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    return str(path)


# each ends in a verdict or in a LoadError that names the file at fault
MALFORMED = {
    "dim-float.json": ("function", {"dim": 1.9, "entries": [{"point": ["0"], "value": "0"}]}),
    "dim-true.json": ("function", {"dim": True, "entries": [{"point": ["0"], "value": "0"}]}),
    "empty.json": ("function", {"dim": 1, "entries": []}),
    "mixed-dims.json": ("function", {"dim": 2, "entries": [{"point": ["0", "0"], "value": "0"},
                                                           {"point": ["1"], "value": "1"}]}),
    "bad-row.csv": ("csv", "0,0\n1,1/0\n"),
    "n-float.json": ("grid", {"n": 1.5, "T": "1", "h": "1", "values": [{"point": ["0"], "value": "0"},
                                                                       {"point": ["1"], "value": "1"}]}),
    "n-string.json": ("grid", {"n": "1", "T": "1", "h": "1", "values": [{"point": ["0"], "value": "0"},
                                                                        {"point": ["1"], "value": "1"}]}),
    "boolean-entry.json": ("space", {"labels": ["a", "b"], "dist": [[0, 1], ["1", True]]}),
    "asymmetric.json": ("space", {"labels": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}),
    "ragged.json": ("space", {"labels": ["a", "b"], "dist": [["0", "1"], ["1"]]}),
    "duplicate-labels.json": ("space", {"labels": ["a", "a"], "dist": [["0", "1"], ["1", "0"]]}),
    "number-label.json": ("space", {"labels": ["a", 1], "dist": [["0", "1"], ["1", "0"]]}),
    "point-number.json": ("probes", [["1", "1"], 5]),
    "bad-factor-spec.json": ("spec", {"factors": ["asymmetric.json"], "combiner": "SUM"}),
    "big-cell.csv": ("csv", "0," + "1" * 140000 + "\n"),
}


def _files(seed: int) -> dict[str, list[str]]:
    """The valid inputs of one seed, by kind; the last function is amenable and of dimension 2."""
    rng = random.Random(seed)
    base = Path(f"s{seed}")
    files = {kind: [] for kind in READERS}
    for mode in ("raw", "isotone", "amenable"):
        for dim in (None, 1, 3, 2):
            (path,) = fixture_generate("random-sampled-function", seed, base / f"fn-{mode}-d{dim}", dim=dim, mode=mode)
            files["function"].append(str(path))
    files["csv"].append(write(base / "amenable.csv", csv_of(Path(files["function"][-1]))))
    files["probes"].append(write(base / "probes.json", [[rng.choice(("0", "1/2", "1", 3)) for _ in range(2)]
                                                        for _ in range(rng.randint(1, 3))]))
    for k, points in enumerate((3, 4)):
        (path,) = fixture_generate("random-metric-space", seed + 1000 * k, base / f"space{k}", max_points=points)
        files["space"].append(str(path))
    combiner = GRID_COMBINERS[seed % 4]
    (path,) = fixture_generate("named-combiner-grid", seed, base / "grid", combiner=combiner,
                               cap=Fraction(seed % 3 + 1, 2))
    files["grid"].append(str(path))
    (path,) = fixture_generate("ce-level-set", seed, base / "set", level=seed % 5 + 1)
    files["set"].append(str(path))
    a, b = (os.path.relpath(p, base) for p in files["space"])
    files["spec"] += [
        write(base / "spec-name.json", {"factors": [a, b], "combiner": COMBINERS[seed % 5]}),
        write(base / "spec-cap.json", {"factors": [a, b], "combiner": {"name": "CAPPED_SUM", "cap": f"{seed % 4 + 1}/2"}}),
        write(base / "spec-cap-beside.json", {"factors": [b], "combiner": "CAPPED_SUM", "cap": seed % 3 + 1}),
    ]
    return files


def expand(argv, file, fill: dict) -> list[str]:
    """A READERS argv for the file; fill names the probe and the valid function and spaces."""
    return [arg.format(str(file), **fill) if "{" in arg else arg for arg in argv]


class Corpus:
    """Runs invocations and writes their records."""

    def __init__(self, out):
        self.out = out
        self.exit_codes = Counter()  # one per record

    def run(self, argv) -> dict:
        """Run argv as JSON and with --csv, write both records and return the JSON report."""
        reports = []
        for as_csv in (False, True):
            args = ["--csv", *argv] if as_csv else list(argv)
            code, report = dispatch(args)
            report.pop("timing_ms", None)
            self.exit_codes[code] += 1
            self.out.write(f"$ {' '.join(args)}\n{code}\n{render(report, as_csv=as_csv)}\n")
            reports.append(report)
        return reports[0]

    def read(self, kind, file, files, probe):
        fill = {"probe": probe, "function": files["function"][-1], "space": files["space"][0],
                "space_b": files["space"][-1]}
        for argv in READERS[kind]:
            self.run(expand(argv, file, fill))


def _seed(corpus: Corpus, seed: int) -> None:
    rng = random.Random(seed)
    files = _files(seed)
    base = Path(f"s{seed}")
    probes = {}
    for path in files["function"]:
        probe = probes[path] = probe_of(json.loads(Path(path).read_text(encoding="utf-8"))["dim"], rng)
        for verb in ("check", "extend-sup", "extend-amenable", "envelope"):
            corpus.run([verb, "--function", path] + ([] if verb == "check" else ["--probe", probe]))
        corpus.run(["envelope", "--function", path, "--probe", probe, "--c", "1/2"])
    corpus.read("csv", files["csv"][0], files, "(1,1/2)")
    corpus.read("probes", files["probes"][0], files, None)
    space_a, space_b = files["space"]
    corpus.run(["verify-metric", "--space", space_a, "--tol", "1/10"])
    matrices = {}
    for name in COMBINERS:
        argv = ["product", "--factor", space_a, "--factor", space_b, "--combiner", name, "--verify"]
        report = corpus.run(argv + (["--cap", f"{seed % 3 + 1}/2"] if name == "CAPPED_SUM" else []))
        if "verdicts" in report:
            matrices[name] = write(base / f"product-{name}.json", report["verdicts"][0]["matrix"])
    files["matrix"] += list(matrices.values())
    for name, matrix in matrices.items():
        out = base / f"extracted-{name}.json"
        report = corpus.run(["extract", "--product", matrix, "--factor", space_a, "--factor", space_b,
                             "--out", str(out)])
        if "verdicts" in report:
            files["combiner"].append(str(out))
    corpus.read("space", space_a, files, None)
    for spec in files["spec"]:
        corpus.read("spec", spec, files, None)
    if files["combiner"]:
        combiner = os.path.relpath(files["combiner"][0], base)
        files["spec"].append(write(base / "spec-file.json", {"factors": [os.path.relpath(p, base) for p in files["space"]],
                                                            "combiner": {"file": combiner}}))
        corpus.read("spec", files["spec"][-1], files, None)
        corpus.run(["product", "--factor", space_a, "--factor", space_b, "--combiner-file", files["combiner"][0]])
    grid = files["grid"][0]
    eps = probe_of(2, rng).replace("2", "1/4")
    for argv in (["omega", "--grid", grid, "--eps", eps], ["fixed-point", "--grid", grid], ["lemma42", "--grid", grid],
                 ["nonconstant", "--grid", grid, "--var", str(seed % 3 + 1)]):
        corpus.run(argv)
    a, b = Fraction(rng.randint(0, 9), 9), Fraction(rng.randint(1, 27), 27)
    corpus.run(["universal", "search", "--set", files["set"][0], "--a", str(a), "--b", str(b)])
    corpus.run(["universal", "search", "--ce-level", str(seed % 4 + 1), "--a", str(a), "--b", str(b)])
    corpus.run(["embed", "--set", files["set"][0]])
    k = seed % 9 + 1  # besides seed/27, which passes 1 from seed 28, a t in (0, 1) of denominator 3^k
    for t in (Fraction(seed, 27), Fraction(3 * (seed * 7_654_321 % 3 ** (k - 1)) + 1 + seed % 2, 3**k)):
        for verb in ("member", "ce-member", "decompose", "ce-decompose"):
            corpus.run(["cantor", verb, str(t)])
    corpus.run(["cantor", "refute-ce-triple", "--level", str(seed % 12 + 1)])  # levels 1-12
    corpus.run(["witness-unbounded", str(Fraction(seed + 1, 3))])
    for kind in ("random-sampled-function", "random-metric-space", "named-combiner-grid", "ce-level-set"):
        corpus.run(["fixture", "--kind", kind, "--seed", str(seed), "--out", str(base / "fixture"),
                    "--combiner", GRID_COMBINERS[seed % 4]])
    # three seeded mutations of every file; a spec's copies stay beside it, so its factors resolve
    for kind, paths in files.items():
        for path in paths:
            path = Path(path)
            text = path.read_text(encoding="utf-8")
            for k in range(3):
                copy_path = path.with_name(f"{path.stem}.mut{k}{path.suffix}")
                if kind == "csv":
                    write(copy_path, mutated_csv(text, rng))
                else:
                    data = json.loads(text)
                    where = rng.choice(list(json_paths(data))[1:])
                    write(copy_path, mutated(data, where, rng.choice(replacements(value_at(data, where)))))
                corpus.read(kind, str(copy_path), files, probes.get(str(path), "(1/2,1/4)"))


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    root = out / "inputs"
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    with open(out / "reports.txt", "w", encoding="utf-8") as handle:
        corpus = Corpus(handle)
        fixed = {"function": [write(Path("malformed/function.json"), {"dim": 1, "entries": [
            {"point": ["0"], "value": "0"}, {"point": ["1"], "value": "1"}]})]}
        fixed["space"] = [write(Path("malformed/space.json"), {"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]})]
        for name, (kind, data) in MALFORMED.items():
            corpus.read(kind, write(Path("malformed") / name, data), fixed, "(1)")
        for seed in SEEDS:
            _seed(corpus, seed)
    codes = ", ".join(f"exit {code}: {count}" for code, count in sorted(corpus.exit_codes.items()))
    print(f"{sum(corpus.exit_codes.values())} records ({codes})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
