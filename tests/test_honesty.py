"""Aim 3 in tier-1: desing2 at the benchmark's tol over every recorded
reference point of perfbench/references.json, graded as the command
line's --tol gate sees it.  A point is refused (it raises, or its estimate
is above tol), wrong (accepted with a true error above tol), "over est"
(accepted, within tol, but with a true error above its estimate) or
honest.  The "over est" and "wrong" counts per kind may fall, not rise.
The same loop pins every output bit for bit: one sha256 per kind over each
point's value and estimate (float.hex) and method, or its refusal text.  A
failure prints the grades per kind and the near grades per plane, so a
change of route shows in the text.  The shoulder band, 1e-6..1e-3 from the
planes, between the near and the regular references, is graded the same
way from literals."""

import collections
import hashlib
import json
import pathlib
from fractions import Fraction

from deszeta.numeric import ToleranceError, desing2

REFERENCES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
TOL = 1e-6
GRADES = ("honest", "over est", "wrong", "refused")
# the most "over est" and "wrong" points per kind: every estimate is an
# upper bound on these points
BOUNDS = {"regular": (0, 0), "near": (0, 0), "far": (0, 0)}
# the digest of every output per kind; a change that moves output bits on
# purpose re-records the kind's digest and says so in CHANGES.md
DIGESTS = {
    "regular": "503c712996e7b58901f4d9554e0fade5d732461c551909fa33e733879c1af1b5",
    "near": "f896b3f579a7ffc64662dbb68224d8a5fba828f4b6a50de35369b2e4cb6ae458",
    "far": "4a440fd4710119bd9a59fe42c839a745f9febb713bdae5578f3f835576e675ba",
}
# the plane of near slot k is PLANES[k % 8], as perfbench/workloads.py deals them
PLANES = ("s2=1", "s1+s2=2", "s1+s2=1", "s1+s2=0", "s1+s2=-2", "s1+s2=-4", "s1+s2=-6",
          "s1+s2=-8")


def _grade(point, digest):
    s1, s2 = complex(*point["s1"]), complex(*point["s2"])
    g1, g2 = (complex(Fraction(g)) for g in point["g"])
    try:
        got = desing2(s1, s2, g1, g2, tol=TOL)
    except (ValueError, ToleranceError) as exc:
        digest.update(("%s\n" % exc).encode())
        return "refused"
    digest.update(("%s %s %s %s\n" % (got.value.real.hex(), got.value.imag.hex(),
                                      float(got.err_estimate).hex(), got.method)).encode())
    if not got.err_estimate <= TOL:
        return "refused"
    err = abs(got.value - complex(*point["value"]))
    if not err <= TOL:
        return "wrong"
    return "over est" if err > got.err_estimate else "honest"


def _rows(table, names):
    return "\n".join("%-12s %s" % (name, ", ".join("%s %d" % (g, table[name][g]) for g in GRADES))
                     for name in names)


def test_honesty_ratchet():
    table = collections.defaultdict(collections.Counter)
    planes = collections.defaultdict(collections.Counter)
    digests = collections.defaultdict(hashlib.sha256)
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    for key, point in references.items():
        kind, slot, _ = key.split("/")
        grade = _grade(point, digests[kind])
        table[kind][grade] += 1
        if kind == "near":
            planes[PLANES[int(slot) % len(PLANES)]][grade] += 1
    text = "%s\nnear per plane:\n%s" % (_rows(table, sorted(table)), _rows(planes, PLANES))
    assert sorted(table) == sorted(BOUNDS), text
    assert sum(sum(c.values()) for c in table.values()) == len(references) == 1856, text
    for kind, (over, wrong) in BOUNDS.items():
        assert table[kind]["over est"] <= over and table[kind]["wrong"] <= wrong, \
            "%s above its bounds (over est %d, wrong %d):\n%s" % (kind, over, wrong, text)
    moved = {kind: d.hexdigest() for kind, d in digests.items() if d.hexdigest() != DIGESTS[kind]}
    assert not moved, "the outputs moved: digests %s\n%s" % (moved, text)


# The shoulder band, which no reference samples: 8 points per plane (s2 = 1,
# s1 + s2 = 2, 1, 0, -2, -4) at 10^U(-6, -3) from it, weights from the
# workloads' pool, and one point the former three-term sum got wrong.  Each row is
# (s1, s2, g1, g2, value); the values are perfbench/reference.py's desing2_mp
# at extra_digits = int(-log10(distance)) + 3, as references.json records them.
SHOULDER = [
    # s2 = 1
    (0.8349250714158476 - 0.5990673270197364j, 0.999998918171226 + 7.434566350701031e-07j,
     "1/2", "1/2", 1.278072989295819 - 1.1059535073903335j),
    (0.2511064967858152 - 0.33934621454787717j, 0.9999990254555684 + 2.795330359030806e-06j,
     "2", "3/2", 0.16100731157161033 + 0.005745570234794181j),
    (1.0951561177264342 + 2.762722364639081j, 0.9999954883203862 - 3.264347805105095e-05j,
     "2", "3/2", 0.14058536236697497 - 0.15310513188171318j),
    (7.7235065255924535 + 1.7566548932819135j, 1.000033311831356 - 9.67790160023151e-05j,
     "2/3", "1/2", 59.98620992372374 + 82.23047953206786j),
    (5.329429081884985 + 1.159031379845029j, 0.9999667883904997 - 7.993638643202446e-06j,
     "3/2", "1/2", 0.178217696949612 - 0.047767506328056875j),
    (-5.9751236058429305 - 1.1465581654631676j, 1.000027149339883 + 6.0209372113547765e-05j,
     "2", "1/2", 0.7347906734984045 + 0.7227500474407428j),
    (-5.308500200616001 + 1.9780698347402863j, 1.000066677551057 - 3.898177860803809e-05j,
     "1/2", "2", 0.0005901712883616549 + 0.001975449214390909j),
    (6.2180330344857655 + 0.6014790617497763j, 1.0000013832273833 + 5.624964291745297e-08j,
     "3/2", "3/2", 0.11242625588759532 - 0.016515417848808896j),
    # s1 + s2 = 2
    (1.7366565070946063 + 0.7049528305411242j, 0.2632635685348186 - 0.7048947346193879j,
     "2", "1/2", 0.19893391781205094 + 0.017448208135021584j),
    (-1.9653236878425886 + 1.5816782879745088j, 3.9652656025239903 - 1.581632364614959j,
     "1/2", "3/2", -0.015446410712321307 - 0.0020657883485135802j),
    (2.174461953806063 - 1.885514512148331j, -0.1748700197826194 + 1.8853867184503441j,
     "2", "3/4", 0.20949871787163749 - 0.0719806740105611j),
    (0.22762813511444668 - 2.558471349192831j, 1.7723731897596204 + 2.5584763867181435j,
     "2", "2/3", 0.14062450025496817 - 0.07707741909397274j),
    (5.633967877376721 - 0.14977858867495364j, -3.6339396654084357 + 0.14978667957085623j,
     "2/3", "4/3", 1.7255506919476413 + 0.979042300959754j),
    (3.5170763534251552 - 2.325501906751608j, -1.5173671768838504 + 2.325360119100937j,
     "2", "3/2", 0.3336128312433986 - 0.2103021335664439j),
    (-0.16413547645515758 + 2.0386041164434228j, 2.16436212527654 - 2.0386565131293244j,
     "2/3", "3/4", 0.05608397454631411 + 0.6089941015328869j),
    (1.8323828317038844 - 0.9583271524495628j, 0.16772393470794533 + 0.9584631180426477j,
     "1/2", "4/3", 1.7438426043500805 - 2.5533450292070663j),
    # s1 + s2 = 1
    (2.9489068498710824 - 0.19000653823143288j, -1.9489219128334891 + 0.1899807803938085j,
     "1/2", "3/2", 4.3551282597698044 - 0.11299568824260667j),
    (2.878866806693366 + 2.6477774250027486j, -1.878515992352309 - 2.6474311954315928j,
     "1/2", "3/4", 3.179284118357834 + 5.222426925400465j),
    (-2.944975997881427 - 2.1915135198569664j, 3.9450713990217263 + 2.19146125590349j,
     "3/4", "3/4", -0.04129004392953418 - 0.04643352223754454j),
    (-3.211475471933095 + 1.846998698907909j, 4.211419168073544 - 1.8469741263073933j,
     "2/3", "3/4", -0.027944498991803287 + 0.024577023199129876j),
    (0.2293993240709425 + 2.4493130779239416j, 0.7706184347783349 - 2.4493096175971676j,
     "2", "2", 0.03013274741244994 + 0.23140480688641443j),
    (-2.934656518527983 - 1.6124512260556787j, 3.934654894779941 + 1.6124466996867186j,
     "3/2", "4/3", -0.0006315760006027343 - 0.030732600044252913j),
    (5.941909442631326 - 1.1500450368968573j, -4.941911209218468 + 1.1500423832948172j,
     "4/3", "2/3", 0.8090008012817718 - 0.03596807999868521j),
    (5.012582469341981 + 0.7020213786264061j, -4.01257497498192 - 0.7020254125626879j,
     "2/3", "4/3", -1.2026192518691494 - 3.270809476666228j),
    # s1 + s2 = 0
    (-1.391712457446384 - 2.470526735195089j, 1.3916523503203138 + 2.4705695372152743j,
     "1/2", "2", 0.011109881296793184 + 0.0857284177388677j),
    (-2.8945504351776985 + 1.1194203849360864j, 2.894554302116684 - 1.1194174354377102j,
     "3/4", "3/4", -0.001994417522540459 + 0.02631763637991585j),
    (4.726792009020298 + 2.241887979057416j, -4.726544502377469 - 2.24185283320777j,
     "2", "3/2", 0.8068064760590774 - 0.2528684667084255j),
    (-0.9320347136427809 - 2.2321117403102844j, 0.9320400131996358 + 2.2321157129870945j,
     "3/4", "3/2", -0.17869497104551377 - 0.07450550150054348j),
    (-4.096814043838115 - 0.9399561415243044j, 4.096822532719898 + 0.939957654825621j,
     "4/3", "4/3", -0.009073860206603696 - 0.0044388855126392965j),
    (-4.7851463740788445 + 2.60137915558835j, 4.785144550082457 - 2.6013791091855363j,
     "2/3", "1/2", -0.031886102488559484 + 0.0013223598809237141j),
    (0.0530882085115615 - 0.6271572596099438j, -0.05309178387610469 + 0.6271550375243296j,
     "1/2", "1/2", 0.24919015152343588 - 0.09605405015837151j),
    (-1.9779834840291939 - 1.264300504678349j, 1.9780421513479363 + 1.2639200036248877j,
     "1/2", "3/4", -0.011644537894872157 - 0.041493230471962135j),
    # s1 + s2 = -2
    (-2.7408423020154027 + 2.633911179019688j, 0.7408469066809165 - 2.633897084828945j,
     "2/3", "2", 0.03161929339493529 - 0.04312048240589544j),
    (-1.1552002758040127 - 0.7581231396309647j, -0.8447900587957928 + 0.7581179995307363j,
     "3/4", "1/2", 0.00838668222594521 - 0.00873432219420771j),
    (-1.7625679027098793 + 0.13592207533906212j, -0.23743410211143345 - 0.13592369399971016j,
     "2/3", "2/3", 0.0024040442227378942 + 0.0015130277662058719j),
    (-0.7565499168172265 + 2.304396934722051j, -1.243466687296121 - 2.304405002628065j,
     "2/3", "2", -0.388171048813396 + 0.13104585727619875j),
    (-6.426676123955819 + 0.6958710455011567j, 4.426687824595184 - 0.6958803097138988j,
     "3/4", "2", 0.00034677770719907647 + 0.0002110053472982684j),
    (0.3171447215694162 + 1.7428955578846985j, -2.317146070776298 - 1.7427591608461153j,
     "1/2", "3/2", 0.30861654874650085 + 0.35550072081755024j),
    (-5.5104791849212384 + 1.184596039065753j, 3.5104774689446003 - 1.1846026795037397j,
     "2", "4/3", -0.06406373764794426 - 0.024993945890567384j),
    (-4.27693461853469 - 2.7860617551748734j, 2.2769728411323165 + 2.785827524603552j,
     "2", "1/2", -0.07369164214247392 - 0.05572298981892578j),
    # s1 + s2 = -4
    (-6.332153455142264 - 1.8596031329185092j, 2.3325541117628967 + 1.8601631889147807j,
     "3/4", "2/3", 0.0048362383749612926 + 0.0008482857059711361j),
    (0.2935822581802421 + 1.907782551351038j, -4.293393736468479 - 1.9081752156847156j,
     "2", "3/2", -0.3556095066286487 - 0.6266998922427687j),
    (-6.923194360539141 + 2.5170888042238464j, 2.9231906629344264 - 2.517094440308262j,
     "2/3", "4/3", -0.001734168742155703 + 0.002779570189269693j),
    (-2.1308989522334976 + 1.432263688809146j, -1.869089395967476 - 1.4322390151807702j,
     "1/2", "3/2", -0.004685234773254192 + 0.003509252713783258j),
    (-0.2635447873099434 - 0.4505903647946026j, -3.7364680387291815 + 0.45056689712709685j,
     "4/3", "4/3", -0.11719781625074352 + 0.03651498357130683j),
    (-5.741970269558596 - 1.051270641997238j, 1.7415298724586599 + 1.0509027735939558j,
     "4/3", "2/3", 0.017515608055483443 + 0.010790925774753804j),
    (-3.730364121809784 - 2.5636682948124108j, -0.26960314470653923 + 2.563668436937518j,
     "4/3", "4/3", -0.028975744486978244 + 0.07929340326342789j),
    (-5.393726589708754 + 1.8512594621543281j, 1.3939904690678482 - 1.8511748071609417j,
     "3/4", "4/3", 0.00635953832571084 + 0.0015021489003503481j),
    # 3.4e-6 from s1 + s2 = 2: the three-term sum was off by 9.5e-5 at an estimate of 7.8e-8
    (-2.452782215933038 + 2.073931300875456j, 4.45278700145186 - 2.0739317092845404j,
     "2", "1/2", 0.10176969397148265 + 0.03933730419207961j),
]
# the most "over est", "wrong" and refused points of the band
SHOULDER_BOUNDS = (0, 0, 0)


def test_shoulder_band():
    grades = collections.Counter()
    for s1, s2, g1, g2, value in SHOULDER:
        point = {"s1": (s1.real, s1.imag), "s2": (s2.real, s2.imag), "g": (g1, g2),
                 "value": (value.real, value.imag)}
        grades[_grade(point, hashlib.sha256())] += 1
    text = ", ".join("%s %d" % (g, grades[g]) for g in GRADES)
    assert sum(grades.values()) == len(SHOULDER) == 49, text
    for grade, bound in zip(GRADES[1:], SHOULDER_BOUNDS):
        assert grades[grade] <= bound, "%s above %d: %s" % (grade, bound, text)
