#!/usr/bin/env bash
# Runs the installed `qmetric` console script end to end; the tests call
# cli.main directly. Run it from any directory after installing the package;
# it works in a fresh temporary directory.
#
# approx and bridge send the batched bridge certificates through it. Bad
# input must exit exactly 2: a negative --samples or --seed, a NaN --eps, a
# NaN block weight, a negative planar --box, --samples above 10000, an --eps
# whose cross offset is below the metric tolerance, an infinite net scale
# and more --rows than halvings that stay positive. Malformed JSON must
# exit 2 too, not 1 with a traceback: a NaN block size and a ragged
# distance matrix. The exit code is captured, since bash's set -e ignores
# a !-negated command. lipnorm on a
# function made from values runs its self-adjointness decision under the
# real max norm, and the complex view of the Lipschitz row pass under the
# operator and max norms; a conv_K K of inf must exit 2. norms runs the
# element-level check of the real max norm. mk under the max norm with
# --refine solves the 16-gon LPs, whose lower end must pass the plain
# sandwich's and stay at most the upper end. mk under --spec-q state with
# a --ref-state and --dump-lp writes the multiplier line and one section
# per channel. Numbers in JSON must be numbers: a state whose "w" is the
# string "1" and a space whose dist holds the string "1" must exit 2, and
# true and false are never numbers in any array, so mk on a state whose
# density matrix is [[[true, false]]] and embed-check on a space whose dist
# holds true among numbers must exit 2 too. A point label is a JSON string,
# matched exactly: embed-check on the circle labelled 0..5 as numbers, and
# mk on a state whose term names the point 0 of the circle labelled "0".."5",
# must exit 2.
# gh between 5-point circle and interval nets runs the exact search at its
# cap and must report "kind": "exact"; gh on the 6-point circle, above the
# cap, with no --cross must exit 2.
# approx certifies each forward image by McShane's bound, or by lipnorm
# where that bound is loose, so on the 6-point bridge and on 64-point
# circles of diameter 1e6 (whose net joins are scanned, the lemma's margin
# being too wide there) and 1e-3 (least distance about 5e-5, where the
# images fall back to lipnorm) every certificate must be ok and every
# forward lipnorm_matched at most 1 + 1e-7. approx on a 160-point
# circle joins each net to the space by the lemma, without a triangle scan;
# a bridge over a caller's cross matrix is still scanned, so the circle's
# own distances with d[0][0] = 10 must exit 2 naming (X0, X1, Y0). A
# 1024-point circle is built twice, by gen and by approx, each time with
# the blocked triangle scan; the timeouts catch a scan that is slow again.
# embed-check on a 48-point M2+M3 circle solves its 1128 pairs a row at a
# time; its timeout catches a return to one flow call per pair. The 6-point
# embed-check also runs with --format csv, which flattens its list of pairs.
set -eu
cd "$(mktemp -d)"
exits_2() { code=0; "$@" || code=$?; if [ "$code" -ne 2 ]; then echo "exit $code, not 2: $*"; exit 1; fi; }
qmetric gen circle --n 6 --out s.json
echo '{"blocks": [2, 3]}' > a.json
qmetric embed-check --space s.json --algebra a.json
qmetric embed-check --space s.json --algebra a.json --format csv --out e.csv
grep -Fx "report.pairs.14.y,c5" e.csv
qmetric approx --space s.json --algebra a.json --rows 2
python -c 'import json; json.dump(json.load(open("s.json"))["dist"], open("c.json", "w"))'
qmetric bridge --space-x s.json --space-y s.json --cross c.json --algebra a.json --samples 2 --out b.json
qmetric gen circle --n 64 --diameter 1e6 --out s64w.json
qmetric approx --space s64w.json --algebra a.json --rows 4 --out t64w.json
qmetric gen circle --n 64 --diameter 1e-3 --out s64n.json
qmetric approx --space s64n.json --algebra a.json --rows 4 --out t64n.json
python - b.json t64w.json t64n.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    report = json.load(open(path))["report"]
    certs = [c for row in report.get("rows", [report]) for c in row["certificates"]]
    assert certs and all(c["ok"] for c in certs), path
    assert all(c["lipnorm_matched"] <= 1 + 1e-7 for c in certs if c["direction"] == "forward"), path
PY
exits_2 qmetric approx --space s.json --algebra a.json --rows 2 --samples -1
exits_2 qmetric approx --space s.json --algebra a.json --rows 2 --seed -1
exits_2 qmetric approx --space s.json --algebra a.json --rows 2 --eps nan
exits_2 qmetric embed-check --space s.json --algebra a.json --weights nan,1
exits_2 qmetric gen planar --n 3 --box -1
exits_2 qmetric approx --space s.json --algebra a.json --rows 2 --samples 10001
exits_2 qmetric approx --space s.json --algebra a.json --rows 2 --eps 1e-8
exits_2 qmetric approx --space s.json --algebra a.json --schedule inf,0.5
exits_2 qmetric approx --space s.json --algebra a.json --rows 1030
echo '{"blocks": [NaN]}' > nan.json
exits_2 qmetric embed-check --space s.json --algebra nan.json
echo '{"labels": ["a", "b"], "dist": [[0, 1], [1]]}' > ragged.json
exits_2 qmetric embed-check --space ragged.json --algebra a.json
qmetric gen circle --n 160 --out s160.json
qmetric approx --space s160.json --algebra a.json --rows 6 --out t160.json
python -c 'import json; d = json.load(open("s.json"))["dist"]; d[0][0] = 10.0; json.dump(d, open("bad.json", "w"))'
exits_2 qmetric bridge --space-x s.json --space-y s.json --cross bad.json --algebra a.json 2> bad.log
grep -F "joined metric fails the triangle inequality on (X0, X1, Y0)" bad.log
python -c 'import json, qmetric as q; s = q.circle_net(6); a = q.Algebra((2, 3)); json.dump(q.classical_embed(s, range(6), a).to_json_dict(), open("f.json", "w")); json.dump((q.matrix_unit(a, 1, 1, 2) + q.matrix_unit(a, 1, 2, 1)).to_json_dict(), open("e.json", "w"))'
qmetric lipnorm f.json --spec-norm realmax --spec-q conv
qmetric lipnorm f.json --spec-norm op --spec-q c
qmetric lipnorm f.json --spec-norm max --spec-q c
exits_2 qmetric lipnorm f.json --spec-q convk --K inf
python -c 'import json, qmetric as q; s = q.circle_net(6); a = q.Algebra((2, 3)); json.dump(q.tracial_functional(a, (0.5, 0.5), 0).to_json_dict(s.labels), open("mu.json", "w")); json.dump(q.FunctionalState(((1.0, 3, q.vector_state(a, 1, [1, 1j, 1])),)).to_json_dict(s.labels), open("nu.json", "w"))'
qmetric mk mu.json nu.json --space s.json --algebra a.json --spec-norm max --refine --out mk.json
python -c 'import json; r = json.load(open("mk.json"))["report"]["result"]; assert r["kind"] == "interval" and r["upper"] / 2 ** 0.5 < r["lower"] <= r["upper"], r'
python -c 'import json, qmetric as q; s = q.circle_net(6); a = q.Algebra((2, 3)); json.dump(q.tracial_functional(a, (0.3, 0.7), 2).to_json_dict(s.labels), open("r.json", "w"))'
qmetric mk mu.json nu.json --space s.json --algebra a.json --spec-q state --ref-state r.json --dump-lp d.csv
grep -q "^# multiplier " d.csv
grep -q "^# channel " d.csv
python -c 'import json; d = json.load(open("mu.json")); d["terms"][0]["w"] = "1"; json.dump(d, open("wtext.json", "w"))'
exits_2 qmetric mk wtext.json nu.json --space s.json --algebra a.json
python -c 'import json; d = json.load(open("s.json")); d["dist"][0][1] = "1"; json.dump(d, open("dtext.json", "w"))'
exits_2 qmetric embed-check --space dtext.json --algebra a.json
echo '{"blocks": [1]}' > m1.json
echo '{"terms": [{"w": 1, "x": "c0", "phi": {"weights": [1], "densities": [[[[true, false]]]]}}]}' > tbool.json
exits_2 qmetric mk tbool.json tbool.json --space s.json --algebra m1.json
python -c 'import json; d = json.load(open("s.json")); d["dist"][0][1] = True; json.dump(d, open("dbool.json", "w"))'
exits_2 qmetric embed-check --space dbool.json --algebra a.json
python -c 'import json; d = json.load(open("s.json")); d["labels"] = list(range(6)); json.dump(d, open("lnum.json", "w"))'
exits_2 qmetric embed-check --space lnum.json --algebra a.json
python -c 'import json; d = json.load(open("s.json")); d["labels"] = [str(i) for i in range(6)]; json.dump(d, open("lstr.json", "w")); m = json.load(open("mu.json")); m["terms"][0]["x"] = 0; json.dump(m, open("xnum.json", "w"))'
exits_2 qmetric mk xnum.json xnum.json --space lstr.json --algebra a.json
qmetric norms e.json --algebra a.json
qmetric gen circle --n 5 --out c5.json
qmetric gen interval --n 5 --out i5.json
qmetric gh c5.json i5.json --out gh.json
python -c 'import json; r = json.load(open("gh.json"))["report"]; assert r["kind"] == "exact", r'
exits_2 qmetric gh s.json s.json
echo '{"blocks": [2]}' > m2.json
timeout 60 qmetric gen circle --n 1024 --out s1024.json
timeout 60 qmetric approx --space s1024.json --algebra m2.json --rows 3 --out t1024.json
timeout 60 qmetric gen circle --n 48 --out s48.json
timeout 60 qmetric embed-check --space s48.json --algebra a.json --out e48.json
python -c 'import json; r = json.load(open("e48.json"))["report"]; assert len(r["pairs"]) == 1128, len(r["pairs"]); assert r["violated"] is False, r["violated"]'
